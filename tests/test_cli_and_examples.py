"""Smoke tests for the experiment CLI (``python -m repro.exec``) and the
runnable examples."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.cli import EXPERIMENTS, _resolve, build_points, parse_axis

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.exec", *args],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=REPO,
    )


def only_point(path: Path) -> dict:
    """The single point's result from a ``--json`` file."""
    (result,) = json.loads(path.read_text())["points"].values()
    return result


class TestCli:
    def test_list(self):
        out = run_cli("--help")
        assert out.returncode == 0
        for name in EXPERIMENTS:
            assert name in out.stdout

    def test_every_experiment_resolves(self):
        for name in EXPERIMENTS:
            assert callable(_resolve(name)), name

    def test_axes_and_points(self):
        assert parse_axis("loss=0,0.01,x,true") == ("loss", [0, 0.01, "x", True])
        points = build_points([parse_axis("a=1,2"), parse_axis("b=x,y")], {"c": 3})
        assert points[0] == (("a", 1), ("b", "x"), ("c", 3))
        assert [dict(p)["b"] for p in points] == ["x", "y", "x", "y"]
        with pytest.raises(ValueError):
            build_points([parse_axis("a=1")], {"a": 2})
        with pytest.raises(ValueError):
            parse_axis("a=")

    def test_table1(self, tmp_path):
        out = run_cli("table1", "--json", str(tmp_path / "t1.json"))
        assert out.returncode == 0, out.stderr
        assert "aes-128-gcm" in only_point(tmp_path / "t1.json")

    def test_fio(self, tmp_path):
        out = run_cli("fio", "--fix", "block_size=65536", "--fix", "iodepth=8", "--json", str(tmp_path / "fio.json"))
        assert out.returncode == 0, out.stderr
        assert "block_size=65536" in out.stdout
        assert only_point(tmp_path / "fio.json")["iops"] > 0

    def test_iperf(self, tmp_path):
        out = run_cli(
            "iperf",
            "--fix", "mode=tls-offload",
            "--fix", "direction=rx",
            "--fix", "streams=4",
            "--json", str(tmp_path / "iperf.json"),
        )  # fmt: skip
        assert out.returncode == 0, out.stderr
        assert only_point(tmp_path / "iperf.json")["goodput_gbps"] > 0

    def test_bad_variant_rejected(self):
        out = run_cli("nginx", "--fix", "variant=spdy")
        assert out.returncode != 0


class TestExamples:
    def test_quickstart(self, capsys):
        runpy.run_path(str(REPO / "examples" / "quickstart.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "packets encrypted inline" in out
        assert "transferred" in out

    def test_remote_block_storage(self, capsys):
        runpy.run_path(str(REPO / "examples" / "remote_block_storage.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "offload" in out
        assert "NIC-placed" in out

    @pytest.mark.slow
    def test_https_file_server(self, capsys):
        runpy.run_path(str(REPO / "examples" / "https_file_server.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "offload+zc" in out

    @pytest.mark.slow
    def test_key_value_on_flash(self, capsys):
        runpy.run_path(str(REPO / "examples" / "key_value_on_flash.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "NVMe-TLS" in out
        assert "never learns any of it happened" in out

    @pytest.mark.slow
    def test_lossy_network_resilience(self, capsys):
        runpy.run_path(str(REPO / "examples" / "lossy_network_resilience.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "injected faults" in out
        assert "every byte arrives intact" in out

    def test_rpc_service(self, capsys):
        runpy.run_path(str(REPO / "examples" / "rpc_service.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "NIC-placed" in out
        assert "stayed untouched" in out

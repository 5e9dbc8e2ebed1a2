"""Tests of the benchmark harness itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _load(name: str):
    """Import a harness file under a private name (``trace`` would
    shadow the standard-library module of that name)."""
    spec = importlib.util.spec_from_file_location(f"perf_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_trace = _load("trace")

WORKLOADS = (
    "iperf_tls_rx_loss", "iperf_tls_tx_loss", "iperf_tcp_clean", "nginx_nvme_tls",
    "scale_mix_64k", "reset_storm_nvme", "exec_grid_2w",
)  # fmt: skip
END_TO_END = ("wall_s", "sim_ms_per_s", "peak_rss_mb", "setup_s")
LAYERS = ("sim", "net", "tcp", "nic", "core", "l5p", "crypto", "cpu", "obs", "storage", "apps", "faults", "exec")
#: Every per-layer metric the issue names; the benchmark may report more.
PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "share", "calls")]
    + ["other.self_s", "other.share"]
    + """sim.events sim.events_per_s sim.us_per_event
         net.pkts net.bytes net.dropped net.reordered net.pkts_per_s
         tcp.conns tcp.bytes_sent tcp.bytes_received
         nic.pkts_offloaded nic.pkts_bypassed nic.offload_ratio nic.cache_hits nic.cache_misses
         nic.cache_miss_ratio nic.pcie_bytes nic.pcie_recovery_bytes
         core.resync_requests core.resyncs_completed core.resync_failures core.tx_recoveries
         core.tx_recovery_bytes core.tx_sw_fallbacks
         l5p.records_full l5p.records_partial l5p.records_none l5p.full_ratio l5p.auth_failures
         cpu.cycles_total cpu.cycles_crypto cpu.cycles_copy cpu.cycles_stack
         faults.nic_resets faults.detected_errors faults.mismatches
         exec.workers exec.speedup exec.pool_bypassed exec.children_cpu_s
         harness.cpu_s harness.wall_iqr_s harness.calib_s
         trace.overhead_ratio trace.coverage trace.digest_match sim.digest""".split()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_quick_pass_reports_every_metric():
    """Every workload, both halves, at smoke size, in under a minute."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert set(result["metrics"]) == set(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    assert set(PER_LAYER) <= {m["name"] for m in spec["per_layer"]}
    for workload, metrics in result["metrics"].items():
        assert set(metrics) == declared, workload
        for name, entry in metrics.items():
            assert NAME.match(name), name
            assert UNIT.match(entry["unit"]), (name, entry)
            assert isinstance(entry["value"], (int, float)), (workload, name, entry)
        for name in END_TO_END:
            assert metrics[name]["value"] > 0, (workload, name)
        assert metrics["trace.digest_match"]["value"] == 1, workload
        assert metrics["trace.coverage"]["value"] >= 0.85, workload
    assert os.path.exists(os.path.join(HERE, "out", "trace_iperf_tls_rx_loss.json"))
    assert elapsed < 60, f"quick pass took {elapsed:.0f} s"


def _small_iperf():
    from repro.experiments.iperf_tls import run_iperf

    return run_iperf("tls-offload", "rx", streams=2, loss=0.01, measure=1e-3, seed=7)


def test_self_times_sum_to_the_traced_window():
    tracer = perf_trace.Tracer()
    tracer.install()
    try:
        first = tracer.span_count()
        start = time.perf_counter()
        _small_iperf()
        wall = time.perf_counter() - start
        last = tracer.span_count()
    finally:
        tracer.uninstall()
    totals = tracer.aggregate(first, last)
    assert last - first > 1000
    accounted = sum(totals["self_s"].values()) + totals["overhead_s"]
    assert accounted == pytest.approx(totals["top_s"], rel=1e-6)
    # run_iperf itself is the root span, so the spans cover the call.
    assert totals["top_s"] == pytest.approx(wall, rel=0.01)
    assert totals["calls"]["tcp"] > 0 and totals["self_s"]["tcp"] > 0


def test_install_and_uninstall_leave_results_identical():
    from repro.sim import Simulator
    from repro.sim.event import Event

    originals = (Simulator.run, Event.fire)
    before = _small_iperf()
    tracer = perf_trace.Tracer()
    tracer.install()
    try:
        assert Simulator.run is not originals[0] and Event.fire is not originals[1]
        during = _small_iperf()
    finally:
        tracer.uninstall()
    assert (Simulator.run, Event.fire) == originals
    after = _small_iperf()
    assert before == during == after
    assert tracer.wrapped > 300  # discovery found the layers' public surface


@pytest.mark.parametrize("method", ["process", "handle_renamed"])
def test_renamed_method_is_still_attributed_to_its_layer(method):
    """Discovery goes by package: a fake `repro.tcp` module is traced
    whatever its method is called."""
    name = "repro.tcp.fake_for_perf_test"
    module = types.ModuleType(name)
    source = f"class Engine:\n    def {method}(self, n):\n        return sum(range(n))\n"
    exec(compile(source, name, "exec"), module.__dict__)  # defines Engine with __module__ == name
    sys.modules[name] = module
    tracer = perf_trace.Tracer()
    try:
        tracer.install()
        first = tracer.span_count()
        assert getattr(module.Engine(), method)(1000) == sum(range(1000))
        last = tracer.span_count()
    finally:
        tracer.uninstall()
        del sys.modules[name]
    totals = tracer.aggregate(first, last)
    assert totals["calls"] == {**{layer: 0 for layer in tracer.layers}, "tcp": 1}
    assert vars(module.Engine)[method].__name__ == method  # the original is back

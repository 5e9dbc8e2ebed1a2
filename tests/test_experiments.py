"""Smoke tests for the experiment runners (tiny durations): every
figure's runner must produce sane, internally consistent results."""

import tracemalloc

import pytest

from repro.experiments.fio_cycles import run_fio_point
from repro.experiments.iperf_tls import run_iperf
from repro.experiments.nginx_bench import run_nginx, variant_tls
from repro.experiments.rof_bench import run_rof
from repro.experiments.scalability import run_scale_point
from repro.harness.testbed import Testbed


class TestByteBudget:
    """The payload of a run is written once by the application and moves
    through every layer by reference, so what the simulator itself
    allocates must stay well below the bytes it has in flight.  A copy
    per segment (``SendBuffer.peek``, a receive queue) or per record
    (kTLS record assembly, the TX log) brings the traced peak above 100 %
    of them; per-packet bookkeeping alone reads 42 % (TCP) and 19 % (TLS)."""

    BUDGET = 0.6  # traced peak / bytes sitting in send buffers at the end

    @pytest.mark.parametrize(
        "mode, kwargs",
        [("tcp", {}), ("tls-offload", {"loss": 0.01})],
        ids=["tcp-clean", "tls-offload-lossy"],
    )
    def test_traced_peak_stays_under_a_fraction_of_bytes_in_flight(self, mode, kwargs, monkeypatch):
        testbeds = []
        init = Testbed.__init__

        def capture(self, *args, **kwargs):
            testbeds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Testbed, "__init__", capture)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            run = run_iperf(mode, "rx", streams=4, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (tb,) = testbeds
        in_flight = sum(len(c.send_buffer) for c in tb.generator.tcp.connections.values())
        assert run.bytes_moved > 0 and in_flight > 12 * 1024 * 1024  # four 4 MiB send buffers, full
        assert peak - before < self.BUDGET * in_flight


class TestIperfRunner:
    def test_tls_sw_tx(self):
        run = run_iperf("tls-sw", direction="tx", warmup=2e-3, measure=3e-3)
        assert run.goodput_gbps > 0.5
        assert run.dut_cycles.get("crypto", 0) > 0
        assert 0.3 < run.crypto_fraction < 0.9

    def test_tcp_mode_has_no_crypto(self):
        run = run_iperf("tcp", direction="tx", warmup=2e-3, measure=3e-3)
        assert run.dut_cycles.get("crypto", 0) == 0
        assert run.goodput_gbps > 1

    def test_offload_rx_records_all_full(self):
        run = run_iperf("tls-offload", direction="rx", warmup=2e-3, measure=3e-3)
        assert run.records["full"] > 0
        assert run.records["none"] == 0

    def test_bad_mode_and_direction(self):
        with pytest.raises(ValueError):
            run_iperf("quic")
        with pytest.raises(ValueError):
            run_iperf("tcp", direction="sideways")

    def test_loss_triggers_tx_recovery(self):
        run = run_iperf("tls-offload", direction="tx", loss=0.03, warmup=3e-3, measure=5e-3, seed=3)
        assert run.tx_recoveries > 0
        assert run.pcie_recovery_fraction >= 0


class TestFioRunner:
    def test_point_sane(self):
        p = run_fio_point(4096, iodepth=1, warmup=2e-3, measure=4e-3)
        assert p.requests > 0
        assert p.cycles_total > 0
        assert 0 <= p.offloadable_fraction < 0.5
        assert p.cycles_idle > 0  # a single outstanding 4KiB I/O waits a lot

    def test_offload_point_removes_copy_crc(self):
        base = run_fio_point(65536, iodepth=8, warmup=2e-3, measure=4e-3)
        off = run_fio_point(65536, iodepth=8, offload=True, warmup=2e-3, measure=4e-3)
        assert off.cycles_copy + off.cycles_crc < 0.2 * (base.cycles_copy + base.cycles_crc)

    def test_llc_pressure_raises_copy_cost(self):
        shallow = run_fio_point(256 * 1024, iodepth=4, warmup=2e-3, measure=5e-3)
        deep = run_fio_point(256 * 1024, iodepth=256, warmup=2e-3, measure=5e-3)
        per_byte_shallow = shallow.cycles_copy / (256 * 1024)
        per_byte_deep = deep.cycles_copy / (256 * 1024)
        assert per_byte_deep > per_byte_shallow * 1.3


class TestNginxRunner:
    def test_variants_map_to_configs(self):
        assert variant_tls("http") is None
        assert variant_tls("https").tx_offload is False
        assert variant_tls("offload").tx_offload is True
        assert variant_tls("offload+zc").zerocopy_sendfile is True
        with pytest.raises(ValueError):
            variant_tls("spdy")

    def test_c2_run(self):
        r = run_nginx("http", storage="c2", file_size=65536, connections=8, warmup=6e-3, measure=4e-3)
        assert r.goodput_gbps > 1
        assert r.requests > 0

    def test_c1_is_drive_bound_not_faster_than_drive(self):
        r = run_nginx(
            "http", storage="c1", file_size=65536, server_cores=8,
            connections=16, warmup=8e-3, measure=6e-3,
        )
        assert r.goodput_gbps < 22.5  # the drive's ~21.4 Gbps ceiling

    def test_bad_storage_rejected(self):
        with pytest.raises(ValueError):
            run_nginx("http", storage="c9")


class TestRofRunner:
    def test_offload_beats_baseline(self):
        base = run_rof("baseline", value_size=65536, warmup=4e-3, measure=5e-3)
        off = run_rof("offload", value_size=65536, warmup=4e-3, measure=5e-3)
        assert base.gets > 0 and off.gets > 0
        assert off.goodput_gbps > base.goodput_gbps

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            run_rof("turbo")


class TestScalabilityRunner:
    def test_point_reports_cache_stats(self):
        p = run_scale_point(64, server_cores=2, measure=4e-3)
        assert p.goodput_gbps > 0
        assert p.cache_capacity_flows > 0
        assert 0 <= p.cache_miss_rate <= 1
        assert p.mean_rx_batch >= 1

"""Tests for the datacenter-scale flow-mix engine (fig19_xl).

Small flow counts with a shrunken cache keep the tests fast while
exercising the exact machinery the benchmark sweeps at 16 K..128 K.
"""

import pytest

from repro.experiments.scale_mix import VARIANTS, run_mix_point

# A 16 KiB cache holds ~78 contexts: 64 flows fit, 1024 thrash.
SMALL_CACHE = 16 * 1024


def _point(flows, **kw):
    kw.setdefault("cache_bytes", SMALL_CACHE)
    kw.setdefault("duration", 4e-3)
    return run_mix_point(flows, **kw)


def test_miss_rate_cliffs_past_cache_capacity():
    small = _point(64)
    big = _point(1024)
    assert small.flows < small.cache_capacity_flows < big.flows
    assert small.cache_miss_rate < 0.2
    assert big.cache_miss_rate > 0.5
    # Goodput degrades gently (the miss is per burst, not per packet).
    assert big.goodput_gbps > 0.4 * small.goodput_gbps


def test_https_variant_has_no_nic_context_traffic():
    p = _point(256, variant="https")
    assert p.cache_miss_rate == 0.0
    assert p.miss_dma_mb == 0.0
    # Software TLS is far slower than the offload datapath.
    assert p.goodput_gbps < _point(256).goodput_gbps / 5


def test_deterministic_per_seed():
    a = _point(256, seed=3)
    b = _point(256, seed=3)
    assert a == b
    assert _point(256, seed=4) != a


def test_traffic_process_is_variant_invariant():
    # The cache must never influence the generator's draws: both
    # variants see the identical event sequence.
    zc = _point(256)
    sw = _point(256, variant="https")
    assert zc.events_fired == sw.events_fired
    assert zc.pkts == sw.pkts and zc.bursts == sw.bursts


def test_churn_installs_fresh_contexts():
    p = _point(256, churn=0.2)
    assert p.churn_installs > 0
    no_churn = _point(256, churn=0.0)
    assert no_churn.churn_installs == 0


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        run_mix_point(64, variant="quic")
    assert VARIANTS == ("offload+zc", "https")

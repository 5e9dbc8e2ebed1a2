"""Plugin protocols (HTTP/2 + RESP): offload sweep and the registry-wide
magic-pattern false-positive study.

No paper figure covers these — they are the §7 "applicability"
argument made executable through the L5Protocol plugin registry:

1. **Offload sweep** — each plugin protocol, offload on/off, across a
   loss sweep.  The loss points are the resync-speculation stress
   profile: HTTP/2 responses use deliberately non-uniform frame lengths
   and RESP clients pipeline many short inline commands per packet, so
   recovery can never ride a fixed record cadence.  Emitted metrics
   include the NIC's resync counters.
2. **False-positive study** — seeded random windows scanned by every
   registered protocol's TCAM mask (``FrameSpec.matches``, derived from
   the header description) and full ``check_magic``.  Gates two
   invariants of the plugin contract: the mask is a *necessary*
   condition of the full check (mask misses imply check misses), and
   the measured full-check rate stays within the declared
   ``L5Protocol.confidence`` bound.  Hit counts are integers, so the
   baseline comparison is bit-identical.
"""

import random

from benchlib import QUICK, loss_pct
from repro.exec import run_grid_dict
from repro.experiments.l5p_plugins import run_l5p_point
from repro.harness.report import Table
from repro.l5p import plugin

SEED = 23
LOSS_POINTS = (0.0, 0.02) if QUICK else (0.0, 0.01, 0.03)
OPS = {"http2": 12, "resp": 16} if QUICK else {"http2": 48, "resp": 64}
UNTIL = 1.0 if QUICK else 2.0

FP_WINDOWS = 80_000 if QUICK else 300_000
FP_SEED = 7


def run_point(point):
    proto, offload, loss = point
    return run_l5p_point(
        proto=proto, offload=offload, loss=loss, ops=OPS[proto], seed=SEED, until=UNTIL
    )


def sweep():
    points = [
        (proto, offload, loss)
        for proto in ("http2", "resp")
        for offload in (True, False)
        for loss in LOSS_POINTS
    ]
    return run_grid_dict(points, run_point)


def false_positive_study():
    """Slide seeded random windows past every registered protocol."""
    protos = plugin.registered()
    width = max(p.frame.magic_len for p in protos)
    rng = random.Random(FP_SEED)
    data = rng.randbytes(FP_WINDOWS + width)

    scans = [(proto, proto.factory(), [0, 0]) for proto in protos]
    for i in range(FP_WINDOWS):
        for proto, adapter, hits in scans:
            window = data[i : i + proto.frame.magic_len]
            mask_hit = proto.frame.matches(window)
            magic_hit = adapter.check_magic(window, None)
            hits[0] += mask_hit
            hits[1] += magic_hit
            # Contract invariant: the TCAM mask is a necessary condition
            # of the full check — it may over-accept, never under-accept.
            assert not (magic_hit and not mask_hit), (
                f"{proto.name}: check_magic accepted a window its mask rejects"
            )
    return {proto.name: tuple(hits) for proto, _, hits in scans}


def test_fig_l5p_plugins(benchmark, emit):
    grid, fp = benchmark.pedantic(
        lambda: (sweep(), false_positive_study()), rounds=1, iterations=1
    )

    table = Table(
        ["protocol", "offload", "loss", "ops", "offloaded %", "Mcycles", "resyncs"],
        title=(
            "Plugin protocols: HTTP/2 frame placement and RESP inline "
            f"steering (closed loop, seed {SEED})"
        ),
    )
    metrics = {}
    for (proto, offload, loss), run in grid.items():
        mode = "off" if offload else "sw"
        key = f"{proto}.{mode}.{loss_pct(loss)}"
        cycles = sum(run.dut_cycles.values())
        table.row(
            proto,
            mode,
            f"{100 * loss:.0f}%",
            run.completed,
            f"{100 * run.offloaded_fraction:.0f}%",
            cycles / 1e6,
            run.nic_stats["resyncs_completed"],
        )
        metrics[f"{key}.completed"] = run.completed
        metrics[f"{key}.offloaded_frac"] = run.offloaded_fraction
        metrics[f"{key}.mcycles"] = cycles / 1e6
        metrics[f"{key}.resync_requests"] = run.nic_stats["resync_requests"]
        metrics[f"{key}.resyncs_completed"] = run.nic_stats["resyncs_completed"]
        metrics[f"{key}.boundary_resyncs"] = run.nic_stats["boundary_resyncs"]
        metrics[f"{key}.resync_failures"] = run.nic_stats["resync_failures"]

    fp_table = Table(
        ["protocol", "mask hits", "check_magic hits", "rate", "declared bound"],
        title=f"Magic false positives over {FP_WINDOWS} random windows (seed {FP_SEED})",
    )
    for name, (mask_hits, magic_hits) in sorted(fp.items()):
        bound = plugin.get(name).confidence
        rate = magic_hits / FP_WINDOWS
        fp_table.row(name, mask_hits, magic_hits, f"{rate:.2e}", f"{bound:.0e}")
        metrics[f"fp.{name}.mask_hits"] = mask_hits
        metrics[f"fp.{name}.magic_hits"] = magic_hits
        # The declared confidence is an upper bound on the measured rate.
        assert rate <= bound, f"{name}: measured FP rate {rate:.2e} exceeds bound {bound:.0e}"
    metrics["fp.windows"] = FP_WINDOWS

    emit(
        "fig_l5p_plugins",
        table.render() + "\n\n" + fp_table.render(),
        metrics=metrics,
        meta={"seed": SEED, "loss_points": list(LOSS_POINTS), "ops": OPS},
    )

    # Offload engages fully on clean links and saves DUT cycles.
    h2_off = grid[("http2", True, 0.0)]
    h2_sw = grid[("http2", False, 0.0)]
    assert h2_off.completed == OPS["http2"] and h2_sw.completed == OPS["http2"]
    assert h2_off.offloaded_fraction == 1.0
    assert sum(h2_off.dut_cycles.values()) < sum(h2_sw.dut_cycles.values())
    resp_off = grid[("resp", True, 0.0)]
    resp_sw = grid[("resp", False, 0.0)]
    assert resp_off.completed == OPS["resp"] and resp_sw.completed == OPS["resp"]
    assert resp_off.offloaded_fraction >= 0.8
    assert sum(resp_off.dut_cycles.values()) < sum(resp_sw.dut_cycles.values())
    # The stress profile exercised the resync machinery (the lossy HTTP/2
    # points via dropped frames; RESP at least via the pipelined-on-the-
    # handshake install race) and never left a flow failed.
    worst = max(LOSS_POINTS)
    assert grid[("http2", True, worst)].nic_stats["resync_requests"] > 0
    assert resp_off.nic_stats["resync_requests"] > 0
    for run in grid.values():
        assert run.nic_stats["resync_failures"] == 0
        assert run.completed > 0

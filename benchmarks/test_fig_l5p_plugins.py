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

from benchlib import Figure, axis, loss_pct
from repro.experiments.l5p_plugins import run_l5p_point
from repro.harness.report import Table
from repro.l5p import plugin

SEED = 23
FP_SEED = 7


def points(losses, ops, until, fp_windows):
    """Sweep points ``(proto, offload, loss, ops, until)``, then the FP study."""
    return [
        (proto, offload, loss, ops[proto], until)
        for proto in ("http2", "resp")
        for offload in (True, False)
        for loss in losses
    ] + [("fp", fp_windows)]


def run_point(point):
    if point[0] == "fp":
        return false_positive_study(point[1])
    proto, offload, loss, ops, until = point
    return run_l5p_point(proto=proto, offload=offload, loss=loss, ops=ops, seed=SEED, until=until)


def false_positive_study(windows):
    """Slide seeded random windows past every registered protocol."""
    protos = plugin.registered()
    width = max(p.frame.magic_len for p in protos)
    rng = random.Random(FP_SEED)
    data = rng.randbytes(windows + width)

    scans = [(proto, proto.factory(), [0, 0]) for proto in protos]
    for i in range(windows):
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


def split(grid):
    """``({(proto, offload, loss): run}, FP windows, {protocol: (mask hits, magic hits)})``."""
    *sweep, fp = grid
    return {p[:3]: grid[p] for p in sweep}, fp[1], grid[fp]


def meta(grid):
    sweep = list(grid)[:-1]
    return {"seed": SEED, "loss_points": axis(sweep, 2), "ops": {p[0]: p[3] for p in sweep}}


def metrics(grid):
    runs, windows, fp = split(grid)
    m = {}
    for (proto, offload, loss), run in runs.items():
        key = f"{proto}.{'off' if offload else 'sw'}.{loss_pct(loss)}"
        m[f"{key}.completed"] = run.completed
        m[f"{key}.offloaded_frac"] = run.offloaded_fraction
        m[f"{key}.mcycles"] = sum(run.dut_cycles.values()) / 1e6
        for stat in ("resync_requests", "resyncs_completed", "boundary_resyncs", "resync_failures"):
            m[f"{key}.{stat}"] = run.nic_stats[stat]
    for name, (mask_hits, magic_hits) in fp.items():
        m[f"fp.{name}.mask_hits"] = mask_hits
        m[f"fp.{name}.magic_hits"] = magic_hits
    m["fp.windows"] = windows
    return m


def table(m, grid):
    runs, windows, fp = split(grid)
    table = Table(
        ["protocol", "offload", "loss", "ops", "offloaded %", "Mcycles", "resyncs"],
        title=f"Plugin protocols: HTTP/2 frame placement and RESP inline steering (closed loop, seed {SEED})",
    )
    for proto, offload, loss in runs:
        mode = "off" if offload else "sw"
        key = f"{proto}.{mode}.{loss_pct(loss)}"
        offloaded = f"{100 * m[f'{key}.offloaded_frac']:.0f}%"
        table.row(proto, mode, f"{100 * loss:.0f}%", m[f"{key}.completed"], offloaded, m[f"{key}.mcycles"],
                  m[f"{key}.resyncs_completed"])
    fp_table = Table(
        ["protocol", "mask hits", "check_magic hits", "rate", "declared bound"],
        title=f"Magic false positives over {windows} random windows (seed {FP_SEED})",
    )
    for name in sorted(fp):
        magic_hits = m[f"fp.{name}.magic_hits"]
        rate = f"{magic_hits / windows:.2e}"
        fp_table.row(name, m[f"fp.{name}.mask_hits"], magic_hits, rate, f"{plugin.get(name).confidence:.0e}")
    return table.render() + "\n\n" + fp_table.render()


def check(grid):
    runs, windows, fp = split(grid)
    ops = meta(grid)["ops"]
    for name, (_, magic_hits) in sorted(fp.items()):
        bound = plugin.get(name).confidence
        rate = magic_hits / windows
        # The declared confidence is an upper bound on the measured rate.
        assert rate <= bound, f"{name}: measured FP rate {rate:.2e} exceeds bound {bound:.0e}"
    # Offload engages fully on clean links and saves DUT cycles.
    h2_off = runs[("http2", True, 0.0)]
    h2_sw = runs[("http2", False, 0.0)]
    assert h2_off.completed == ops["http2"] and h2_sw.completed == ops["http2"]
    assert h2_off.offloaded_fraction == 1.0
    assert sum(h2_off.dut_cycles.values()) < sum(h2_sw.dut_cycles.values())
    resp_off = runs[("resp", True, 0.0)]
    resp_sw = runs[("resp", False, 0.0)]
    assert resp_off.completed == ops["resp"] and resp_sw.completed == ops["resp"]
    assert resp_off.offloaded_fraction >= 0.8
    assert sum(resp_off.dut_cycles.values()) < sum(resp_sw.dut_cycles.values())
    # The stress profile exercised the resync machinery (the lossy HTTP/2
    # points via dropped frames; RESP at least via the pipelined-on-the-
    # handshake install race) and never left a flow failed.
    worst = max(loss for _, _, loss in runs)
    assert runs[("http2", True, worst)].nic_stats["resync_requests"] > 0
    assert resp_off.nic_stats["resync_requests"] > 0
    for run in runs.values():
        assert run.nic_stats["resync_failures"] == 0
        assert run.completed > 0


FIG_L5P_PLUGINS = Figure(
    "fig_l5p_plugins",
    points((0.0, 0.01, 0.03), {"http2": 48, "resp": 64}, until=2.0, fp_windows=300_000),
    run_point, metrics, table, check,
    quick=points((0.0, 0.02), {"http2": 12, "resp": 16}, until=1.0, fp_windows=80_000),
    meta=meta,
)

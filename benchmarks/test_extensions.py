"""Extension benchmark — §7 applicability, beyond the paper's own
evaluation: the RPC response copy+CRC offload.  (The magic-pattern
false-positive analysis lives in test_fig_l5p_plugins.py, which scans
every registered protocol.)"""

from benchlib import Figure
from repro.harness.report import Table
from repro.harness.testbed import Testbed, TestbedConfig
from repro.l5p.rpc import RpcClient, RpcConfig, RpcServer
from repro.util.units import gbps


def run_point(offload):
    tb = Testbed(TestbedConfig(seed=3, server_cores=1, generator_cores=4))
    service = RpcServer(tb.generator, port=7000)
    blob = bytes(128 * 1024)
    service.register(1, lambda args: blob)
    cfg = RpcConfig(rx_offload_crc=offload, rx_offload_copy=offload)
    client = RpcClient(tb.server, "generator", port=7000, config=cfg)
    done = []
    outstanding = 8

    def issue():
        client.call(1, {}, finish)

    def finish(value, lat):
        done.append(lat)
        issue()

    def start():
        for _ in range(outstanding):
            issue()

    tb.server.sim.call_soon(start)
    tb.run(until=30e-3)
    moved = len(done) * len(blob)
    return {
        "gbps": gbps(max(moved, 1), 30e-3),
        "placed": client.stats["placed"],
        "cycles": tb.server.cpu.total_cycles,
        "calls": len(done),
    }


def metrics(grid):
    base, off = grid[False], grid[True]
    return {
        "sw.gbps": base["gbps"],
        "sw.calls": base["calls"],
        "sw.mcycles": base["cycles"] / 1e6,
        "offload.gbps": off["gbps"],
        "offload.calls": off["calls"],
        "offload.placed": off["placed"],
        "offload.mcycles": off["cycles"] / 1e6,
    }


def table(m, grid):
    table = Table(
        ["config", "Gbps", "calls", "NIC-placed", "client Mcycles"],
        title="Extension: RPC response copy+CRC offload (128KiB blobs)",
    )
    table.row("software", m["sw.gbps"], m["sw.calls"], grid[False]["placed"], m["sw.mcycles"])
    table.row("offload", m["offload.gbps"], m["offload.calls"], m["offload.placed"], m["offload.mcycles"])
    return table.render()


def check(grid):
    off, base = grid[True], grid[False]
    assert off["placed"] == off["calls"] > 0
    assert off["gbps"] > base["gbps"]


EXT_RPC_OFFLOAD = Figure("ext_rpc_offload", (False, True), run_point, metrics, table, check)

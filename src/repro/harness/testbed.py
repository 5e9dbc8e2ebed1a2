"""The two-machine testbed from the paper's §6.

A Dell R730 "server" (the device under test: 2.0 GHz cores, offload
NIC) and an R640 "generator" (workload generator and remote-drive
target) connected back-to-back over 100 Gbps ConnectX-6 Dx ports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.model import CostModel, DEFAULT_COST_MODEL
from repro.faults.plan import FaultPlan
from repro.net.host import Host
from repro.net.link import Link, LinkConfig
from repro.nic import OffloadNic
from repro.sim import Simulator
from repro.util.units import GBPS


@dataclass
class TestbedConfig:
    __test__ = False  # not a pytest collectable despite the name

    seed: int = 0
    server_cores: int = 1  # the DUT ("server" in the paper)
    generator_cores: int = 12  # the workload generator (R640: 12 cores/socket)
    bandwidth_bps: float = 100 * GBPS
    latency_s: float = 5e-6
    # Fault injection, per direction.
    loss_to_server: float = 0.0
    reorder_to_server: float = 0.0
    duplicate_to_server: float = 0.0
    loss_to_generator: float = 0.0
    reorder_to_generator: float = 0.0
    # Richer fault injection (repro.faults): bursty loss, corruption,
    # jitter, link flaps, NIC faults, and the degradation policy.  None
    # leaves every draw sequence untouched.
    faults: Optional[FaultPlan] = None
    model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    nic_cache_bytes: int = 4 * 1024 * 1024
    # Enable the runtime invariant sanitizer (repro.analysis.sanitizer)
    # for this run; also switchable globally via REPRO_SANITIZE=1.
    sanitize: bool = False
    # Observability (repro.obs): per-component counters and, optionally,
    # a Chrome trace_event timeline.  Off by default: the datapath then
    # performs no metric work beyond a pointer check.
    metrics: bool = False
    trace: bool = False
    trace_limit: int = 200_000
    # Layer-5 protocols this scenario uses, resolved through the
    # repro.l5p.plugin registry at construction time: unknown or
    # duplicate names raise PluginError before the first packet moves.
    # Empty means "don't care" (endpoints still hit the driver-level
    # registry gate at l5o_create).
    protocols: tuple = ()


class Testbed:
    """Two hosts, one link; the server side is 'a', the generator 'b'."""

    __test__ = False  # not a pytest collectable despite the name

    def __init__(self, config: Optional[TestbedConfig] = None):
        self.config = config or TestbedConfig()
        cfg = self.config
        self.protocols = {}
        if cfg.protocols:
            from repro.l5p import plugin

            self.protocols = plugin.resolve(cfg.protocols)
        if cfg.sanitize:
            from repro.analysis import sanitizer

            sanitizer.enable()
        self.sim = Simulator(seed=cfg.seed)
        self.obs = None
        if cfg.metrics or cfg.trace:
            from repro.obs import Obs

            self.obs = Obs(self.sim, trace=cfg.trace, trace_limit=cfg.trace_limit)
            self.sim.obs = self.obs
        self.server = Host(
            self.sim,
            "server",
            model=cfg.model,
            cores=cfg.server_cores,
            nic=OffloadNic(cache_bytes=cfg.nic_cache_bytes),
        )
        self.generator = Host(
            self.sim,
            "generator",
            model=cfg.model,
            cores=cfg.generator_cores,
            nic=OffloadNic(cache_bytes=cfg.nic_cache_bytes),
        )
        plan = cfg.faults
        wire_to_generator = plan.to_generator if plan is not None else None
        wire_to_server = plan.to_server if plan is not None else None
        self.link = Link(
            self.sim,
            config_ab=LinkConfig(
                bandwidth_bps=cfg.bandwidth_bps,
                latency_s=cfg.latency_s,
                loss=cfg.loss_to_generator,
                reorder=cfg.reorder_to_generator,
                corrupt=wire_to_generator.corrupt if wire_to_generator else 0.0,
                jitter_s=wire_to_generator.jitter_s if wire_to_generator else 0.0,
            ),
            config_ba=LinkConfig(
                bandwidth_bps=cfg.bandwidth_bps,
                latency_s=cfg.latency_s,
                loss=cfg.loss_to_server,
                reorder=cfg.reorder_to_server,
                duplicate=cfg.duplicate_to_server,
                corrupt=wire_to_server.corrupt if wire_to_server else 0.0,
                jitter_s=wire_to_server.jitter_s if wire_to_server else 0.0,
            ),
        )
        self.server.attach_link(self.link, "a")
        self.generator.attach_link(self.link, "b")
        if plan is not None:
            self._install_faults(plan)
        if self.obs is not None:
            self._register_probes()

    def _install_faults(self, plan: FaultPlan) -> None:
        """Arm the plan's stateful injectors.  Each gets a dedicated rng
        substream so fault rolls never perturb the base simulation."""
        from repro.faults.inject import LinkFaultInjector

        if plan.to_generator is not None and (plan.to_generator.burst or plan.to_generator.flaps):
            self.link.ab.fault_injector = LinkFaultInjector(
                plan.to_generator, self.sim.substream("faults:link:to_generator")
            )
        if plan.to_server is not None and (plan.to_server.burst or plan.to_server.flaps):
            self.link.ba.fault_injector = LinkFaultInjector(
                plan.to_server, self.sim.substream("faults:link:to_server")
            )
        if plan.nic is not None:
            self.server.nic.install_faults(plan.nic, self.sim.substream("faults:nic:server"))
        if plan.degrade is not None:
            self.server.nic.driver.configure_degradation(plan.degrade)
            self.generator.nic.driver.configure_degradation(plan.degrade)
        if plan.lifecycle is not None:
            # Crash/reset fault domain on the DUT NIC (the server side —
            # where the offload contexts under test live).
            self.server.nic.lifecycle.arm(
                plan.lifecycle, self.sim.substream("faults:lifecycle:server")
            )

    # ------------------------------------------------------------------
    def _register_probes(self) -> None:
        """Attach pull-based metrics for everything that already keeps
        its own statistics; sampled only when a snapshot is taken."""
        obs = self.obs
        obs.probe("sim.events_fired", lambda: self.sim.events_fired)
        obs.probe("sim.now_ns", lambda: self.sim.now_ns)
        # Per-direction wire fault totals (drop/reorder/dup/corrupt, plus
        # injector counters when a FaultPlan armed one).
        obs.probe("link.to_generator", self.link.ab.counters)
        obs.probe("link.to_server", self.link.ba.counters)
        for host in (self.server, self.generator):
            name = host.name
            obs.probe(f"host.{name}.cpu.cycles", host.cpu.cycles_by_category)
            obs.probe(f"host.{name}.tcp.connections", lambda h=host: h.tcp.connection_count)
            obs.probe(f"host.{name}.nic.pcie.bytes", lambda h=host: dict(h.nic.pcie.bytes_by_category))
            obs.probe(
                f"host.{name}.nic.cache",
                lambda h=host: {
                    "hits": h.nic.cache.hits,
                    "misses": h.nic.cache.misses,
                    "occupancy": h.nic.cache.occupancy,
                },
            )
            obs.probe(f"host.{name}.nic.offload", lambda h=host: h.nic.offload_stats())

    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def reset_measurement(self) -> None:
        """Clear counters after warm-up so steady state is measured."""
        self.server.cpu.reset_stats()
        self.generator.cpu.reset_stats()
        self.server.nic.pcie.reset_stats()
        self.generator.nic.pcie.reset_stats()
        self.server.nic.cache.reset_stats()
        self.server.rx_batch_sizes.clear()
        if self.obs is not None:
            self.obs.metrics.reset()

    # ------------------------------------------------------------------
    # structured reporting (repro.obs)
    # ------------------------------------------------------------------
    def metrics_report(self) -> dict:
        """A structured snapshot of the run: config, clock, and every
        registered metric (push counters and pull probes alike)."""
        if self.obs is None:
            raise RuntimeError("metrics are not enabled; pass TestbedConfig(metrics=True)")
        cfg = self.config
        return {
            "config": {
                "seed": cfg.seed,
                "server_cores": cfg.server_cores,
                "generator_cores": cfg.generator_cores,
                "bandwidth_bps": cfg.bandwidth_bps,
                "loss_to_server": cfg.loss_to_server,
                "loss_to_generator": cfg.loss_to_generator,
                "nic_cache_bytes": cfg.nic_cache_bytes,
                "faults": cfg.faults.describe() if cfg.faults is not None else None,
            },
            "sim": {"now_ns": self.sim.now_ns, "events_fired": self.sim.events_fired},
            "metrics": self.obs.snapshot(),
        }

    def write_metrics(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(self.metrics_report(), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")

    def write_trace(self, path: str) -> None:
        """Export the run's Chrome trace_event JSON (about:tracing /
        Perfetto); requires TestbedConfig(trace=True)."""
        if self.obs is None or self.obs.tracer is None:
            raise RuntimeError("tracing is not enabled; pass TestbedConfig(trace=True)")
        self.obs.write_trace(path)

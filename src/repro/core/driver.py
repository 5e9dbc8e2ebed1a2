"""The NIC driver: the software half of the autonomous offload.

Implements Listing 1 (operations the driver provides to the L5P) and
dispatches Listing 2 (upcalls the L5P provides to the driver).  The
driver shadows each HW context's expected TCP sequence so that
out-of-sequence transmissions are detected in software, before the
packet is posted to the NIC (§4.2).

Offload commands ride to the NIC through the flow's send ring as
special descriptors; we account their PCIe cost but model their
ordering as exact (the send ring guarantees it in hardware).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Optional, Protocol

from repro.core.context import HwContext, RxState
from repro.core.types import Direction, L5pAdapter, TxMsgState
from repro.net.packet import FlowKey


class L5pOps(Protocol):
    """Listing 2: operations the L5P provides to the NIC driver."""

    def l5o_get_tx_msgstate(self, tcpsn: int) -> Optional[TxMsgState]:
        """State of the transmitted message covering ``tcpsn``."""
        ...

    def l5o_resync_rx_req(self, tcpsn: int) -> None:
        """The NIC speculates an L5P header starts at ``tcpsn``; confirm
        or deny later via ``l5o_resync_rx_resp``."""
        ...

    def l5o_offload_degraded(self, direction: str, reason: str) -> None:
        """The driver gave up on ``direction``'s offload for this flow
        (§5.3); the L5P carries on in software."""
        ...

    def l5o_nic_reattach(self, direction: str) -> Optional[HwContext]:
        """A NIC reset destroyed ``direction``'s context: re-install it
        from host-owned state and return it, or None if the flow is
        closed or the endpoint not ready."""
        ...


class NicDriver:
    """Per-NIC driver instance (mlx5-equivalent glue)."""

    _ids = itertools.count(1)

    def __init__(self, nic):
        # Local import: repro.nic's package init pulls in this module,
        # so a top-level import would be circular (same idiom as the
        # DatagramEngine import in repro.nic.nic).
        from repro.nic.flow_table import FlowTable

        self.nic = nic
        # Indexed flow tables (repro.nic.flow_table): dict-shaped O(1)
        # lookup plus dense iteration and lifetime install/remove
        # accounting, sized for datacenter flow counts.
        self.tx_contexts = FlowTable()
        self.rx_contexts = FlowTable()
        self.dgram_tx_contexts: dict[FlowKey, object] = {}
        self.dgram_rx_contexts: dict[FlowKey, object] = {}
        # Ablation knob: extra delay before the L5P sees a speculation
        # request (models slower driver/firmware paths).
        self.resync_delay_s = 0.0
        # Graceful degradation (paper §5.3).  All off by default so no
        # retry timers are scheduled and event order is untouched; the
        # harness arms them from a FaultPlan via configure_degradation().
        self.max_resync_retries = 0
        self.resync_timeout_s = 2e-3
        self.resync_backoff = 2.0
        self.disable_after_failures = 0
        self.probation_s = 0.0
        # ctx_id -> (tcpsn, token) of the speculation awaiting an
        # answer; the token makes stale timeout events detectable even
        # when a later speculation lands on the same sequence number.
        self._resync_pending: dict[int, tuple[int, int]] = {}
        self._resync_token = itertools.count(1)
        # ctx_id -> (conn, l5p_ops): who asked for each context, so a
        # NIC reset can route re-installation (or, for the TOE
        # personality, connection loss) back to its owner.
        self._installs: dict[int, tuple[Any, Any]] = {}
        # Watchdog + re-install queue (armed by the NIC lifecycle).
        self._watchdog_profile = None
        self._watchdog_missed = 0
        self._reattach_queue: deque = deque()
        self._reattach_profile = None
        # Old TX ctx_id -> reattached successor id.  Packets are stamped
        # with the context id at *build* time, so a packet queued before
        # a reset can reach the wire after it, carrying the torn-down
        # id; resolving the alias routes it to the successor, whose
        # standard §4.2 recovery absorbs the sequence seam.
        self._ctx_aliases: dict[int, int] = {}

    def configure_degradation(self, policy) -> None:
        """Arm the degradation knobs from a DegradePolicy-shaped object
        (duck-typed: any object with the five attributes below works,
        keeping this module import-free of repro.faults)."""
        if policy is None:
            return
        self.max_resync_retries = policy.max_resync_retries
        self.resync_timeout_s = policy.resync_timeout_s
        self.resync_backoff = policy.resync_backoff
        self.disable_after_failures = policy.disable_after_failures
        self.probation_s = policy.probation_s

    # ------------------------------------------------------------------
    # Listing 1: L5P-facing operations
    # ------------------------------------------------------------------
    def l5o_create(
        self,
        conn,
        adapter: L5pAdapter,
        static_state: Any,
        tcpsn: int,
        direction: Direction,
        l5p_ops: L5pOps,
        msg_index: int = 0,
    ) -> HwContext:
        """Install an offload context for ``conn`` starting at ``tcpsn``
        (the first byte of the next L5P message on the stream).

        The adapter's protocol must be registered with
        :mod:`repro.l5p.plugin` — a NIC image only contains the parsers
        it was built with, so an unregistered name is a programming
        error surfaced loudly here rather than a silent misparse."""
        from repro.l5p import plugin

        plugin.get(adapter.name)
        if self.nic.obs is not None:
            self.nic.obs.cell(f"driver.l5p.{adapter.name}.contexts").value += 1
        ctx_id = next(self._ids)
        if direction == Direction.TX:
            flow = conn.flow
        else:
            flow = conn.flow.reversed()  # incoming packets carry the peer's view
        ctx = HwContext(ctx_id, flow, direction, adapter, static_state, tcpsn, msg_index=msg_index)
        ctx.l5p_ops = l5p_ops
        ctx.obs = self.nic.obs
        if direction == Direction.TX:
            self.tx_contexts[ctx_id] = ctx
            conn.tx_ctx_id = ctx_id
        else:
            self.rx_contexts[flow] = ctx
        self._installs[ctx_id] = (conn, l5p_ops)
        self.nic.context_installed(ctx)
        return ctx

    def l5o_destroy(self, ctx: HwContext) -> None:
        if ctx.direction == Direction.TX:
            self.tx_contexts.pop(ctx.ctx_id, None)
        else:
            self.rx_contexts.pop(ctx.flow, None)
        self._resync_pending.pop(ctx.ctx_id, None)
        self._installs.pop(ctx.ctx_id, None)
        if self._ctx_aliases:
            for stale in [k for k, v in self._ctx_aliases.items() if v == ctx.ctx_id]:
                del self._ctx_aliases[stale]
        self.nic.context_removed(ctx)

    def l5o_add_rr_state(self, ctx: HwContext, key: Any, state: Any) -> Any:
        """Register request/response state (e.g. an NVMe CID -> the block
        buffers its response payload must be placed into)."""
        ctx.rr_state[key] = state
        self.nic.pcie.count("descriptor", 64)
        return key

    def l5o_del_rr_state(self, ctx: HwContext, key: Any) -> None:
        ctx.rr_state.pop(key, None)
        self.nic.pcie.count("descriptor", 64)

    def l5o_resync_rx_resp(self, ctx: HwContext, tcpsn: int, result: bool, msg_index: int = 0) -> None:
        """The L5P confirms/denies the NIC's speculated header at
        ``tcpsn``; on success the NIC resumes offloading from the next
        message boundary (Figure 7, transition d2).

        The response rides a send-ring descriptor; an injected NIC fault
        profile can drop, delay, or duplicate it on the way down.
        """
        faults = getattr(self.nic, "faults", None)
        if faults is not None:
            rng = self.nic.fault_rng
            obs = self.nic.obs
            if faults.resync_resp_drop and rng.random() < faults.resync_resp_drop:
                if obs is not None:
                    obs.count("driver.resync.resp_dropped")
                return  # the retry timeout (if armed) will re-ask
            if faults.resync_resp_dup and rng.random() < faults.resync_resp_dup:
                if obs is not None:
                    obs.count("driver.resync.resp_duplicated")
                self.nic.host.sim.call_soon(self._deliver_resync_resp, ctx, tcpsn, result, msg_index)
            if faults.resync_resp_delay and rng.random() < faults.resync_resp_delay:
                if obs is not None:
                    obs.count("driver.resync.resp_delayed")
                self.nic.host.sim.schedule(
                    faults.resync_resp_delay_s, self._deliver_resync_resp, ctx, tcpsn, result, msg_index
                )
                return
        self._deliver_resync_resp(ctx, tcpsn, result, msg_index)

    def _deliver_resync_resp(self, ctx: HwContext, tcpsn: int, result: bool, msg_index: int) -> None:
        obs = self.nic.obs
        if obs is not None:
            obs.count("driver.resync.confirmed" if result else "driver.resync.denied")
        outcome = self.nic.rx_engine.resync_response(ctx, tcpsn, result, msg_index)
        if outcome == "confirmed":
            ctx.consecutive_resync_failures = 0
            self._resync_pending.pop(ctx.ctx_id, None)
        elif outcome == "denied":
            self._resync_pending.pop(ctx.ctx_id, None)
            self._resync_failed(ctx)
        # "stale" responses (speculation already abandoned) change nothing.

    # ------------------------------------------------------------------
    # driver-internal helpers used by the engines
    # ------------------------------------------------------------------
    def l5o_create_datagram(self, flow: FlowKey, adapter, static_state, direction: Direction):
        """Install a datagram (UDP) offload context — §7's trivial case:
        static state only, no sequence tracking, no recovery interface."""
        from repro.core.datagram import DatagramContext

        ctx = DatagramContext(next(self._ids), flow, adapter, static_state)
        if direction == Direction.TX:
            self.dgram_tx_contexts[flow] = ctx
        else:
            self.dgram_rx_contexts[flow] = ctx
        self.nic.pcie.count("descriptor", 64)
        return ctx

    def l5o_destroy_datagram(self, ctx) -> None:
        self.dgram_tx_contexts.pop(ctx.flow, None)
        self.dgram_rx_contexts.pop(ctx.flow, None)

    def lookup_tx(self, ctx_id: Optional[int]) -> Optional[HwContext]:
        if ctx_id is None:
            return None
        ctx = self.tx_contexts.get(ctx_id)
        if ctx is None and self._ctx_aliases:
            alias = self._ctx_aliases.get(ctx_id)
            if alias is not None:
                ctx = self.tx_contexts.get(alias)
        if ctx is not None and ctx.offload_disabled:
            return None  # degraded: the flow rides the software path
        return ctx

    def lookup_rx(self, flow: FlowKey) -> Optional[HwContext]:
        ctx = self.rx_contexts.get(flow)
        if ctx is not None and ctx.offload_disabled:
            return None  # degraded: the flow rides the software path
        return ctx

    def request_resync(self, ctx: HwContext, tcpsn: int) -> None:
        """HW->SW: deliver the speculation request to the L5P (via a
        completion on the receive ring, then the driver's upcall)."""
        ctx.resync_requests += 1
        obs = self.nic.obs
        if obs is not None:
            obs.count("driver.resync.requests")
            obs.event("resync-request", lane=f"ctx/{ctx.ctx_id}", cat="resync", tcpsn=tcpsn)
        self.nic.pcie.count("descriptor", 64)
        if ctx.l5p_ops is not None:
            self.nic.host.sim.schedule(self.resync_delay_s, ctx.l5p_ops.l5o_resync_rx_req, tcpsn)
        if self.max_resync_retries > 0:
            token = next(self._resync_token)
            self._resync_pending[ctx.ctx_id] = (tcpsn, token)
            self.nic.host.sim.schedule(
                self.resync_delay_s + self.resync_timeout_s, self._resync_timeout, ctx, tcpsn, token, 1
            )

    # ------------------------------------------------------------------
    # graceful degradation (paper §5.3): bounded retries, then give up
    # ------------------------------------------------------------------
    def _resync_timeout(self, ctx: HwContext, tcpsn: int, token: int, attempt: int) -> None:
        """The speculation at ``tcpsn`` was never answered in time."""
        if self._resync_pending.get(ctx.ctx_id) != (tcpsn, token):
            return  # answered, superseded, or already failed — stale timer
        if ctx.offload_disabled or self.rx_contexts.get(ctx.flow) is not ctx:
            self._resync_pending.pop(ctx.ctx_id, None)
            return
        if ctx.rx_state != RxState.TRACKING or ctx.speculation_seq != tcpsn:
            self._resync_pending.pop(ctx.ctx_id, None)
            return
        if attempt > self.max_resync_retries:
            self._resync_pending.pop(ctx.ctx_id, None)
            self._resync_failed(ctx)
            return
        ctx.resync_retries += 1
        obs = self.nic.obs
        if obs is not None:
            obs.count("driver.resync.retries")
            obs.event("resync-retry", lane=f"ctx/{ctx.ctx_id}", cat="resync", tcpsn=tcpsn, attempt=attempt)
        self.nic.pcie.count("descriptor", 64)
        if ctx.l5p_ops is not None:
            self.nic.host.sim.schedule(self.resync_delay_s, ctx.l5p_ops.l5o_resync_rx_req, tcpsn)
        backoff = self.resync_timeout_s * (self.resync_backoff**attempt)
        self.nic.host.sim.schedule(
            self.resync_delay_s + backoff, self._resync_timeout, ctx, tcpsn, token, attempt + 1
        )

    def _resync_failed(self, ctx: HwContext) -> None:
        """One speculation definitively failed (denied or retries
        exhausted); after enough consecutive failures, give up."""
        ctx.resync_failures += 1
        ctx.consecutive_resync_failures += 1
        obs = self.nic.obs
        if obs is not None:
            obs.count("driver.resync.failures")
        if ctx.rx_state == RxState.TRACKING:
            ctx.enter_searching()  # Figure 7 edge d1
        if self.disable_after_failures and ctx.consecutive_resync_failures >= self.disable_after_failures:
            self._auto_disable(ctx)

    def _auto_disable(self, ctx: HwContext) -> None:
        if ctx.offload_disabled:
            return
        ctx.offload_disabled = True
        ctx.auto_disables += 1
        self._resync_pending.pop(ctx.ctx_id, None)
        obs = self.nic.obs
        if obs is not None:
            obs.count("driver.offload.auto_disabled")
            obs.event("offload-auto-disable", lane=f"ctx/{ctx.ctx_id}", cat="degrade")
        if ctx.l5p_ops is not None:
            ctx.l5p_ops.l5o_offload_degraded(ctx.direction.value, "resync-failures")
        if self.probation_s > 0:
            self.nic.host.sim.schedule(self.probation_s, self._probation_reenable, ctx)

    def _probation_reenable(self, ctx: HwContext) -> None:
        """Probation expired: give the offload another chance.  The
        context resumes in SEARCHING, so the Figure 7 machine re-locks
        on the live stream before any packet is offloaded again."""
        if self.rx_contexts.get(ctx.flow) is not ctx and self.tx_contexts.get(ctx.ctx_id) is not ctx:
            return  # destroyed while on probation
        if not ctx.offload_disabled:
            return
        ctx.offload_disabled = False
        ctx.consecutive_resync_failures = 0
        obs = self.nic.obs
        if obs is not None:
            obs.count("driver.offload.probation_reenabled")
            obs.event("offload-probation-reenable", lane=f"ctx/{ctx.ctx_id}", cat="degrade")

    # ------------------------------------------------------------------
    # NIC lifecycle: watchdog, teardown, and paced re-installation
    # ------------------------------------------------------------------
    def start_watchdog(self, profile) -> None:
        """Arm the heartbeat watchdog (NicLifecycleProfile-shaped knobs).
        The tick charges no cycles and draws no randomness, so an armed
        but never-firing lifecycle leaves every metric untouched."""
        self._watchdog_profile = profile
        self._watchdog_missed = 0
        self.nic.host.sim.schedule(profile.heartbeat_interval_s, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        profile = self._watchdog_profile
        if profile is None:
            return
        lifecycle = self.nic.lifecycle
        from repro.nic.lifecycle import NicState

        if lifecycle.state is NicState.HUNG:
            # The device did not answer the heartbeat (stalled
            # completion queue / dead firmware mailbox).
            self._watchdog_missed += 1
            obs = self.nic.obs
            if obs is not None:
                obs.count("driver.watchdog.missed_heartbeats")
            if self._watchdog_missed >= profile.missed_heartbeats:
                self._watchdog_missed = 0
                if obs is not None:
                    obs.count("driver.watchdog.resets_initiated")
                lifecycle.begin_reset("watchdog")
        else:
            self._watchdog_missed = 0
        self.nic.host.sim.schedule(profile.heartbeat_interval_s, self._watchdog_tick)

    def nic_reset_teardown(self, personality: str = "autonomous") -> list:
        """The NIC is resetting: every HW context it held is gone.

        Autonomous personality (the paper's design): TX contexts are
        parked as software shadows so queued "wrong bytes" keep getting
        transformed by the host during the outage, RX flows ride the
        L5P software path, and a re-install request per (owner,
        direction) is returned for :meth:`begin_reattach`.

        TOE personality (*PnO-TCP* / *FlexiNS* model): the connection
        state lived on the NIC, so every offloaded connection is aborted
        outright — nothing to re-install.
        """
        lifecycle = self.nic.lifecycle
        obs = self.nic.obs
        requests: list = []
        killed: set = set()
        removed = 0
        for ctx in list(self.tx_contexts.values()):
            self.tx_contexts.pop(ctx.ctx_id, None)
            self._teardown_one(ctx, personality, requests, killed)
            removed += 1
        for ctx in list(self.rx_contexts.values()):
            self.rx_contexts.pop(ctx.flow, None)
            lifecycle.track_rx_fallback(ctx.flow)
            self._teardown_one(ctx, personality, requests, killed)
            removed += 1
        self._resync_pending.clear()
        if obs is not None and removed:
            obs.count("driver.contexts.removed", removed)
        return requests

    def _teardown_one(self, ctx: HwContext, personality: str, requests: list, killed: set) -> None:
        lifecycle = self.nic.lifecycle
        obs = self.nic.obs
        # In-flight DMA/descriptor abort semantics: a context mid-walk
        # had a transform in flight; the reset aborts it on the device
        # (one descriptor-sized PCIe transaction to reap the queue).
        lifecycle.note_context_lost(mid_walk=ctx.desc is not None)
        self.nic.pcie.count("reset-abort", 64)
        if obs is not None:
            obs.gauge("driver.contexts.active").dec()
        conn, _l5p_ops = self._installs.pop(ctx.ctx_id, (None, None))
        if personality == "toe":
            if conn is not None and id(conn) not in killed and conn.state != "closed":
                killed.add(id(conn))
                lifecycle.note_toe_connection_lost()
                conn.abort()
            return
        if ctx.direction == Direction.TX:
            lifecycle.park_tx(ctx)
        requests.append((ctx.l5p_ops, ctx.direction, ctx.ctx_id))

    def begin_reattach(self, requests: list, profile) -> None:
        """The function came back up: re-install offload contexts from
        host-owned state, ``reinstall_batch`` per ``reinstall_interval_s``
        tick so the recovering cache is not thundering-herded."""
        self._reattach_queue = deque(requests)
        self._reattach_profile = profile
        # Datagram offloads (§7) are static-state-only: the driver
        # re-writes them directly, one descriptor each, no upcall.
        for _ in range(len(self.dgram_tx_contexts) + len(self.dgram_rx_contexts)):
            self.nic.pcie.count("descriptor", 64)
        self._reattach_tick()

    def _reattach_tick(self) -> None:
        lifecycle = self.nic.lifecycle
        profile = self._reattach_profile
        budget = getattr(profile, "reinstall_batch", 8) if profile is not None else 8
        while budget > 0 and self._reattach_queue:
            l5p_ops, direction, old_id = self._reattach_queue.popleft()
            budget -= 1
            ctx = l5p_ops.l5o_nic_reattach(direction.value) if l5p_ops is not None else None
            if ctx is None:
                lifecycle.note_reinstall_unsupported()
                continue
            lifecycle.note_reinstall()
            if direction == Direction.TX:
                # Route packets stamped with the dead id (built before
                # the reset) to the successor; flatten chains so a storm
                # of resets still resolves in one hop.
                for stale, target in self._ctx_aliases.items():
                    if target == old_id:
                        self._ctx_aliases[stale] = ctx.ctx_id
                self._ctx_aliases[old_id] = ctx.ctx_id
        if self._reattach_queue:
            interval = getattr(profile, "reinstall_interval_s", 0.0) if profile is not None else 0.0
            self.nic.host.sim.schedule(interval, self._reattach_tick)
        else:
            lifecycle.reattach_complete()

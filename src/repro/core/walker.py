"""The L5P message walker.

Consumes a run of in-order stream bytes and advances a context through
message headers, bodies, and trailers — the NIC's inner loop.  The same
walker serves four modes:

- TX offload: transform body bytes, replace the dummy trailer with the
  computed one.
- RX offload: transform (e.g. decrypt) body bytes, verify wire trailers.
- Tracking walk: advance transform state and message position but emit
  the original bytes (used when the NIC re-locks onto the stream at a
  message boundary mid-packet; such a packet is *not* marked offloaded
  but later packets of the same message can be, per Figure 8b).
- Replay: like TX offload but output is discarded (context recovery for
  retransmissions re-derives mid-message state from the message start).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import HwContext, Phase
from repro.core.types import Direction, ProtocolError
from repro.net.packet import Buffer


@dataclass
class WalkResult:
    out: Buffer = b""
    completed: int = 0  # messages finished within this run
    all_ok: bool = True  # every trailer completed in this run verified (RX)
    desynced: bool = False  # header failed to parse: stream position lost


def walk(ctx: HwContext, data: Buffer, emit: bool = True) -> WalkResult:
    """Advance ``ctx`` over ``data``.

    ``emit=True`` produces transformed output (offload); ``emit=False``
    is the tracking walk: state advances, output *is* the input.
    ``ctx.expected_seq`` is *not* touched — callers own sequence math.

    Nothing is copied that a transform did not write: pass-through
    pieces are slices of ``data``, and a run that lies inside one
    message body comes back as the transform's own output object.
    """
    view = memoryview(data)
    out: list[Buffer] = []
    result = WalkResult()
    i = 0
    n = len(view)
    while i < n:
        if ctx.phase == Phase.HEADER:
            need = ctx.adapter.header_len - len(ctx.header_buf)
            take = view[i : i + need]
            ctx.header_buf += take
            out.append(take)  # headers pass through unmodified
            i += len(take)
            if len(ctx.header_buf) == ctx.adapter.header_len:
                desc = ctx.adapter.parse_header(bytes(ctx.header_buf), ctx.static_state)
                if desc is None:
                    # Cannot be a valid message: the context lost the
                    # stream. Emit the rest untouched and report it.
                    out.append(view[i:])
                    result.desynced = True
                    result.all_ok = False
                    break
                ctx.start_message(desc)
        elif ctx.phase == Phase.BODY:
            take = view[i : i + ctx.body_remaining]
            if emit:
                transformed = ctx.transform.process(take)
                if len(transformed) != len(take):
                    raise ProtocolError(
                        f"{ctx.adapter.name}: transform is not size-preserving "
                        f"({len(take)} -> {len(transformed)} bytes)"
                    )
                out.append(transformed)
            else:
                ctx.transform.track(take)
            ctx.body_remaining -= len(take)
            i += len(take)
            if ctx.body_remaining == 0:
                if ctx.trailer_remaining:
                    ctx.phase = Phase.TRAILER
                else:
                    result.completed += 1
                    ctx.finish_message()
        else:  # Phase.TRAILER
            take = view[i : i + ctx.trailer_remaining]
            if ctx.direction == Direction.TX and emit:
                if not ctx._trailer_out:
                    ctx._trailer_out = ctx.transform.finalize_tx()
                    if len(ctx._trailer_out) != ctx.desc.trailer_len:
                        raise ProtocolError(
                            f"{ctx.adapter.name}: trailer length mismatch "
                            f"({len(ctx._trailer_out)} != {ctx.desc.trailer_len})"
                        )
                offset = ctx.desc.trailer_len - ctx.trailer_remaining
                out.append(ctx._trailer_out[offset : offset + len(take)])
            else:
                # RX (or tracking): collect and pass through the wire trailer.
                ctx._trailer_in += take
                out.append(take)
            ctx.trailer_remaining -= len(take)
            i += len(take)
            if ctx.trailer_remaining == 0:
                if ctx.direction == Direction.RX and emit:
                    if not ctx.transform.verify_rx(bytes(ctx._trailer_in)):
                        result.all_ok = False
                result.completed += 1
                ctx.finish_message()
    if not emit:
        result.out = data
    else:
        result.out = out[0] if len(out) == 1 else b"".join(out)
    obs = ctx.obs
    if obs is not None:
        # One batched attribution flush per walk: the per-mode cells are
        # resolved once per context (epoch-batched Cell counters), so the
        # steady-state cost is two integer adds, not f-string formatting
        # plus registry lookups on every packet.
        cells = ctx.walk_cells.get(emit)
        if cells is None:
            mode = "offload" if emit else "track"
            prefix = f"walker.{ctx.direction.value}.{mode}"
            cells = ctx.walk_cells[emit] = (
                obs.cell(f"{prefix}.bytes"),
                obs.cell(f"{prefix}.msgs"),
            )
        bytes_cell, msgs_cell = cells
        bytes_cell.value += n
        if result.completed:
            msgs_cell.value += result.completed
        if result.desynced:
            obs.count("walker.desyncs")
    return result


def replay(ctx: HwContext, stored_bytes: Buffer) -> None:
    """Re-derive mid-message state by replaying ``stored_bytes`` from the
    message start (TX context recovery, §4.2).  Output is discarded."""
    result = walk(ctx, stored_bytes, emit=True)
    if result.desynced:
        raise ProtocolError(f"{ctx.adapter.name}: replay hit an unparseable header")

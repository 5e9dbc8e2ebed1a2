"""The formal L5Protocol plugin contract and registry.

The paper's Table 3 offloadability preconditions are an *interface*,
not a property of TLS and NVMe-TCP specifically.  This module is that
interface's executable form: a protocol joins the simulator by
declaring an :class:`L5Protocol` — its :class:`~repro.l5p.frame.FrameSpec`
(the fixed plaintext header, from which the magic pattern, header check
and stream cut are computed), adapter factory and the Table-3 rows a
header description cannot prove — and calling :func:`register`.  (The
Listing-2 upcalls are not declared: every stream endpoint inherits all
four from :class:`~repro.l5p.base.StreamEndpoint`.)
Everything downstream resolves protocols through the registry:

- the driver refuses ``l5o_create`` for adapters whose ``name`` was
  never registered (a silicon image only contains parsers it was built
  with), see ``src/repro/core/driver.py``;
- endpoints construct adapters with :func:`make_adapter` instead of
  importing concrete classes, and cut their stream with the registered
  frame;
- ``TestbedConfig(protocols=...)`` resolves and validates the set of
  protocols a scenario uses before the first packet moves.

Registration is *loud*: duplicate names, unsatisfied preconditions, a
frame with nothing for resync to match on, or a factory whose adapter
parses a different frame all raise :class:`PluginError` at import time
rather than misparsing bytes at simulation time.  The plugin-author
guide is ``docs/l5p-plugins.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.types import L5pAdapter
from repro.l5p.frame import FrameSpec


class PluginError(Exception):
    """An L5Protocol declaration or lookup is invalid."""


@dataclass(frozen=True)
class Table3Preconditions:
    """The rows of the paper's Table 3 that a protocol must *assert*.

    The other two rows are proven by the declaration's ``frame``: a
    :class:`~repro.l5p.frame.FrameSpec` cannot be built without a
    fixed plaintext header and length field (``header_plaintext_length``),
    and its derived TCAM mask shows whether headers are recognizable
    mid-stream (``magic_identifiable``).  Every field here defaults to
    ``False``; :func:`register` rejects any protocol with an unsatisfied
    row — an L5P that fails Table 3 is not autonomously offloadable and
    has no business in the registry.
    """

    #: The transform neither inflates nor deflates message bytes, and
    #: trailers are replaced in place, never inserted (Table 3 row 1).
    size_preserving: bool = False
    #: The transform consumes arbitrary in-order byte ranges with
    #: constant-size per-message state (Table 3 row 2).
    incremental_constant_state: bool = False
    #: Per-message dynamic state is derivable from the message ordinal
    #: (or explicit request/response state), so a lost context can be
    #: reconstructed from the upcalls (§3.2, §4.1).
    state_from_msg_index: bool = False
    #: Free-form qualifications ("RX only", "steering, not transform").
    notes: str = ""


@dataclass(frozen=True)
class L5Protocol:
    """One registered layer-5 protocol: the full plugin declaration."""

    name: str
    frame: FrameSpec
    #: Declared upper bound on the false-positive rate of the full
    #: header check against uniform random bytes; the seeded study in
    #: ``benchmarks/test_fig_l5p_plugins.py`` measures the actual rate
    #: and gates it against this bound.
    confidence: float
    preconditions: Table3Preconditions
    #: Zero-arg-callable (kwargs optional) returning a fresh adapter.
    factory: Callable[..., L5pAdapter]
    description: str = ""

    def missing(self) -> list[str]:
        """Names of unsatisfied Table-3 rows (empty when offloadable)."""
        rows = ("size_preserving", "incremental_constant_state", "state_from_msg_index")
        bad = [row for row in rows if not getattr(self.preconditions, row)]
        if not any(self.frame.mask):
            bad.append("magic_identifiable")
        return bad

    def validate(self) -> None:
        """Check internal consistency; raises :class:`PluginError`."""
        if not self.name or self.name != self.name.lower():
            raise PluginError(f"protocol name must be non-empty lowercase, got {self.name!r}")
        bad = self.missing()
        if bad:
            raise PluginError(
                f"protocol {self.name!r} does not satisfy Table 3: {', '.join(bad)} "
                "unsatisfied — it is not autonomously offloadable"
            )
        if not 0.0 < self.confidence <= 1.0:
            raise PluginError(f"protocol {self.name!r}: confidence must be in (0, 1], got {self.confidence}")
        probe = self.factory()
        if not isinstance(probe, L5pAdapter):
            raise PluginError(f"protocol {self.name!r}: factory returned {type(probe).__name__}")
        if probe.name != self.name:
            raise PluginError(
                f"protocol {self.name!r}: factory adapter is named {probe.name!r}"
            )
        if probe.frame is not self.frame:
            raise PluginError(f"protocol {self.name!r}: factory adapter parses a different frame")


_REGISTRY: dict[str, L5Protocol] = {}

#: Modules whose import registers the built-in protocols.  Lazy so that
#: ``repro.core`` can import this module without dragging in every L5P.
_BUILTIN_MODULES = (
    "repro.l5p.tls.record",
    "repro.l5p.nvme_tcp.pdu",
    "repro.l5p.nvme_tls",
    "repro.l5p.rpc.frame",
    "repro.l5p.decomp",
    "repro.l5p.dpi",
    "repro.l5p.http2.frame",
    "repro.l5p.resp.frame",
)


def register(proto: L5Protocol) -> L5Protocol:
    """Validate and add ``proto``; duplicate names fail loudly."""
    proto.validate()
    if proto.name in _REGISTRY:
        raise PluginError(f"protocol {proto.name!r} is already registered")
    _REGISTRY[proto.name] = proto
    return proto


def unregister(name: str) -> None:
    """Remove a registration (test support); unknown names fail loudly."""
    if name not in _REGISTRY:
        raise PluginError(f"cannot unregister unknown protocol {name!r}")
    del _REGISTRY[name]


def ensure_builtins() -> None:
    """Import every built-in protocol module (each registers itself)."""
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get(name: str) -> L5Protocol:
    """Look up a protocol (importing the built-ins only on a miss: every
    endpoint looks its frame up); unknown names raise with the known set."""
    if name not in _REGISTRY:
        ensure_builtins()
    proto = _REGISTRY.get(name)
    if proto is None:
        raise PluginError(
            f"unknown L5 protocol {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        )
    return proto


def names() -> list[str]:
    ensure_builtins()
    return sorted(_REGISTRY)


def registered() -> list[L5Protocol]:
    ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def make_adapter(name: str, **kwargs: Any) -> L5pAdapter:
    """Construct a fresh adapter for ``name`` through its factory."""
    return get(name).factory(**kwargs)


def resolve(protocols) -> dict[str, L5Protocol]:
    """Resolve an iterable of names (``TestbedConfig.protocols``)."""
    out: dict[str, L5Protocol] = {}
    for name in protocols:
        if name in out:
            raise PluginError(f"protocol {name!r} listed twice")
        out[name] = get(name)
    return out

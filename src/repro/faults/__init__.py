"""Deterministic fault injection and graceful offload degradation.

Split in two halves:

- :mod:`repro.faults.plan` — frozen, declarative :class:`FaultPlan`
  (wire faults, NIC/driver faults, degradation policy) attached to
  ``TestbedConfig(faults=...)``.
- :mod:`repro.faults.inject` — the stateful injectors and packet
  mutators that implement the wire half.

:func:`repro.faults.chaos.chaos_point` runs one seeded TLS / NVMe-TCP
soak point under a randomized fault mix with the runtime sanitizer
enabled, verifying end-to-end byte-stream / CRC integrity; the
``chaos_soak`` benchmark figure gates the multi-seed grid.
"""

from repro.faults.inject import LinkFaultInjector, corrupting_link, flip_payload_byte
from repro.faults.plan import (
    DegradePolicy,
    FaultPlan,
    GilbertElliott,
    LinkFaultProfile,
    NicFaultProfile,
    NicLifecycleProfile,
)

__all__ = [
    "DegradePolicy",
    "FaultPlan",
    "GilbertElliott",
    "LinkFaultInjector",
    "LinkFaultProfile",
    "NicFaultProfile",
    "NicLifecycleProfile",
    "corrupting_link",
    "flip_payload_byte",
]

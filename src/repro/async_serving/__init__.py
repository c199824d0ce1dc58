"""repro.async_serving — the event-driven C10K serving plane.

A virtual-time reactor (with an asyncio adapter for the wall-clock
path) multiplexes thousands of per-session state machines onto the
existing gateway/router frontends, and resumption tickets amortize the
attestation+DHKE handshake across reconnects.  See
:mod:`repro.async_serving.tier` for the layering and
:mod:`repro.hypervisor.resumption` for the ticket protocol.
"""

from repro.async_serving.reactor import (
    AsyncioReactorAdapter,
    ReactorHandle,
    VirtualReactor,
)
from repro.async_serving.session import (
    AsyncSession,
    InvalidSessionTransition,
    SessionState,
)
from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    ModelHandshakeEngine,
    ServiceHandshakeEngine,
    ServiceTenant,
    SessionCapacityError,
    SessionClosedError,
    drive_open_loop,
)

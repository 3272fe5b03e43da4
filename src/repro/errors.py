"""Exception hierarchy shared across repro subsystems.

Kernel-level errors live in :mod:`repro.sim.engine`
(:class:`~repro.sim.engine.SimulationError`); everything above the kernel
raises one of the classes below so callers can catch per-layer.
"""

from repro.sim.engine import SimulationError

__all__ = [
    "SimulationError",
    "TopologyError",
    "NetworkError",
    "GasnetError",
    "UpcError",
    "AffinityError",
    "SubthreadError",
    "MpiError",
    "FaultError",
    "ExecutorError",
    "MessageCorruptedError",
    "EndpointFailedError",
]


class TopologyError(SimulationError):
    """Invalid machine topology or topology query."""


class AffinityError(TopologyError):
    """Invalid thread/process binding request."""


class NetworkError(SimulationError):
    """Fabric-level error (unknown endpoint, bad route, ...)."""


class GasnetError(SimulationError):
    """GASNet-layer error (bad segment address, team misuse, ...)."""


class UpcError(SimulationError):
    """UPC-runtime error (bad shared pointer, affinity violation, ...)."""


class SubthreadError(SimulationError):
    """Sub-thread runtime error (thread-safety violation, pool misuse)."""


class MpiError(SimulationError):
    """MPI-layer error (unmatched receive, communicator misuse, ...)."""


class FaultError(SimulationError):
    """Invalid fault plan or fault-injection misuse."""


class ExecutorError(SimulationError):
    """A campaign executor could not complete its batch.

    Raised for a journal that cannot be resumed (recorded for a
    different campaign).  Failed points never raise it: the queue
    executor retries them and then quarantines them into a degraded
    report.
    """


class MessageCorruptedError(NetworkError):
    """A message was delivered but failed its integrity check.

    Raised by the fabric *after* the corrupted bytes have drained, so the
    sender has paid the full transfer cost; reliable layers catch this
    and retransmit.
    """


class EndpointFailedError(GasnetError):
    """A peer is unreachable and the retry budget is exhausted.

    Carries the peer's UPC thread id as ``thread`` so schedulers can
    blacklist the victim and fail over.
    """

    def __init__(self, thread: int, message: str = ""):
        super().__init__(
            message or f"endpoint for thread {thread} unreachable (retries exhausted)"
        )
        self.thread = thread

"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class TraceError(ReproError):
    """A trace file or trace stream is malformed."""


class TraceFormatError(TraceError):
    """A trace payload violates its format's structural contract.

    Raised by the binary readers (:mod:`repro.trace.io`,
    :mod:`repro.trace.columns`) and the external-format adapters
    (:mod:`repro.trace.adapters`) for bad magic, unsupported versions,
    truncated payloads, and malformed records.  ``offset`` locates the
    defect: a byte offset into the payload for binary formats, a
    1-based line number for text formats (see ``unit``), or None when
    no single position is responsible.
    """

    def __init__(
        self, message: str, offset: int | None = None, unit: str = "byte"
    ) -> None:
        if offset is not None:
            message = f"{message} (at {unit} {offset})"
        super().__init__(message)
        self.offset = offset
        self.unit = unit


class WorkloadError(ReproError):
    """A workload specification cannot be resolved or generated."""


class SimulationError(ReproError):
    """The pipeline model reached an inconsistent state.

    This always indicates a bug in the simulator (or a hand-built
    configuration violating a documented invariant), never a property of
    the simulated workload.
    """


class ExperimentError(ReproError):
    """An experiment harness was invoked with an unknown id or bad scale."""


class TelemetryError(ReproError):
    """A telemetry artifact (metric, trace, manifest) is malformed."""


class MetricsError(ReproError):
    """A metric aggregation was fed values outside its domain."""


class ServiceError(ReproError):
    """A simulation-service request or server state is invalid.

    Raised by :mod:`repro.service` for malformed submissions, unknown
    job ids, and illegal lifecycle transitions (e.g. cancelling a job
    that already finished).  Transport-level concerns (rate limiting,
    backpressure) are expressed as HTTP statuses, not exceptions.
    """

"""Exception types shared across the emulator."""


class RtcsimError(Exception):
    """Base class for all emulator errors."""


class ValidationError(RtcsimError):
    """A value or object violates a documented invariant."""


class ConfigError(RtcsimError):
    """Configuration document or CLI arguments cannot be resolved."""


class TraceParseError(RtcsimError):
    """A mobility trace file is malformed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class SchedulingError(RtcsimError):
    """The scheduler's queue ordering or timeline invariants were breached."""


class RealtimeViolationError(RtcsimError):
    """Real-time pacing fell behind by more than the allowed budget.

    ``events`` holds the event log scheduled before the abort. It may run past
    the last delivered event, since the scheduler works ahead of the wall clock.
    """

    def __init__(self, message: str, events=None, lag_s: float | None = None):
        self.events = list(events) if events is not None else []
        self.lag_s = lag_s
        super().__init__(message)

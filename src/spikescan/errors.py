"""Exception types shared across the library."""


class SpikescanError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(SpikescanError):
    """Operands have incompatible shapes."""


class DivisionByZero(SpikescanError):
    """Elementwise division hit a zero divisor."""


class NonFiniteError(SpikescanError):
    """A NaN or Inf appeared where the library guarantees finite values."""


class LengthMismatch(SpikescanError):
    """A time-coupled neuron was fed a sequence of the wrong length.

    Raised by full/masked PSN whenever the input length differs from the
    length the weight matrix was built for; this is the executable form of
    their failure to summarize prefixes or update online.
    """


class MissingFiringRate(SpikescanError):
    """A spike-input layer has no firing rate to weight its energy."""


class ParallelUnavailable(SpikescanError):
    """The neuron has no offline parallel evaluation path."""


class StepUnavailable(SpikescanError):
    """The neuron cannot run stepwise with bounded state."""


class ReplayMismatch(SpikescanError):
    """A checker's input, replayed through the live neuron, did not reproduce
    the membrane values the checker drew its verdict from."""


class CorruptContainer(SpikescanError, ValueError):
    """A tensor container file is malformed; ``offset`` is the byte offset of
    the field that could not be read.  Also a ValueError, so callers that
    catch ValueError for a bad file keep working."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class OutOfMemory(SpikescanError, MemoryError):
    """A computation could not allocate the memory it needs; the message
    names the work that ran out.  Also a MemoryError, so callers that catch
    MemoryError for an allocation that failed keep working."""

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


class StabilityGuard(SpikescanError):
    """The matrix-form cross-check was asked to run outside its safe band.

    The cumulative-product factorization divides by a running product of
    decay factors, which under- or overflows for long sequences or decays
    near 0/1.  The guard refuses instead of returning garbage.
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

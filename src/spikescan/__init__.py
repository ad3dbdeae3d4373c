"""spikescan: spiking-neuron recurrences with dual serial/parallel execution.

Serial stepwise inference and parallel-through-time training share one set
of neuron definitions; executable checkers verify the membrane-control
properties the designs rely on, and an accounting model estimates FLOPs and
energy per layer.
"""

__version__ = "0.1.0"

from .errors import (CorruptContainer, DivisionByZero, LengthMismatch,
                     MissingFiringRate, NonFiniteError, OutOfMemory,
                     ParallelUnavailable, ReplayMismatch, ShapeMismatch,
                     SpikescanError, StepUnavailable)
from .numerics import (ArcTangent, Rectangular, StraightThrough,
                       SurrogateKind, Tape, Tensor, clip_round, matmul,
                       spike_threshold, zeros)
from .scan import scan
from .neurons import (DsnNeuron, DsnParams, DsnState, LifNeuron, Neuron,
                      NeuronConfig, PsnNeuron, PsnParams, dsn_forward_parallel,
                      make_neuron, psn_forward)

__all__ = [name for name in dir() if not name.startswith("_")]

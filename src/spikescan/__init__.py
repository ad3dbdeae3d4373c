"""spikescan: spiking-neuron recurrences with dual serial/parallel execution.

Serial stepwise inference and parallel-through-time training share one set
of neuron definitions; executable checkers verify the membrane-control
properties the designs rely on, and an accounting model estimates FLOPs and
energy per layer.
"""

__version__ = "0.1.0"

from .errors import (DivisionByZero, LengthMismatch, MissingFiringRate,
                     NonFiniteError, ParallelUnavailable, ReplayMismatch,
                     ShapeMismatch, SpikescanError, StabilityGuard,
                     StepUnavailable)
from .numerics import (ArcTangent, Rectangular, StraightThrough,
                       SurrogateKind, Tape, Tensor, clip_round, elementwise,
                       grad_check, matmul, spike_threshold, tensor, zeros)
from .scan import ScanProblem, matrix_form, scan, scan_backward, scan_parallel, scan_serial
from .neurons import (DsnNeuron, DsnParams, DsnState, LifNeuron, Neuron,
                      NeuronConfig, PsnNeuron, PsnParams, dsn_dynamic_decay,
                      dsn_forward_parallel, dsn_step, lif_sequence,
                      make_neuron, psn_forward)

__all__ = [name for name in dir() if not name.startswith("_")]

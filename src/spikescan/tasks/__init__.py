"""Desk-scale experiments: membrane approximation, pixel classification,
length extrapolation, plus the one training loop they share (``fit``)."""

from .training import Adam, TrainConfig, Param, cosine_lr, fit, leaves
from .datasets import (SignalSpec, gen_dataset_a, gen_dataset_b,
                       gen_shape_images, gen_wave_mixtures)
from .approx import (ApproxModel, ApproxResult, ApproxTarget,
                     run_approx_experiment)
from .extrapolate import run_extrapolation
from .pixel import run_pixel_task

__all__ = [name for name in dir() if not name.startswith("_")]

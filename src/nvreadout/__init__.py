"""Readout of time-resolved single-photon fluorescence traces.

Two readout strategies over binned photon traces, plus the simulator that
serves as their ground-truth oracle:

* :mod:`nvreadout.gating` - traditional time-gated count summation; the
  gate-width sweep returns contrast and total-variance curves over widths
  plus both optima,
* :mod:`nvreadout.regression` - a per-bin weighted linear estimator with
  nonnegative weights, trained in closed form: weights (delta)_+ / m on
  log-spaced bin groups, the least variance per unit contrast, then
  calibrated to the targets; every readout, a gate included
  (``gated_equivalent_model``), is one such ``ReadoutModel``,
* :mod:`nvreadout.traces` - Poisson trace simulator with a calibrated
  default preset,
* :mod:`nvreadout.rabi` - oscillation datasets (one points x bins counts
  matrix), sinusoid fitting and training-target assignment,
* :mod:`nvreadout.evaluation` - method comparison and trace repair on
  models only: the two gates in model form and the trained model, applied
  to a dataset's counts matrix,
* :mod:`nvreadout.io` / :mod:`nvreadout.cli` - file formats and the
  command-line pipeline.
"""

from .errors import FitFailureError, ParameterError, ParseError, ReadoutError
from .evaluation import EvalReport, MethodEval, RepairResult, evaluate, repair
from .gating import (GateMetrics, GateWindow, SweepResult, contrast, gate_sum,
                     gated_population, sweep_gate, total_variance)
from .rabi import (RabiDataset, SinusoidFit, TrainingExample, assign_targets,
                   fit_rabi, simulate_rabi_dataset)
from .regression import (LossBreakdown, ReadoutModel, gated_equivalent_model,
                         loss, loss_gradient, predict, prediction_variance,
                         train, train_boundary, train_rabi)
from .traces import (EmissionProfile, PhotodynamicsParams, TimeTrace,
                     differential, expected_trace, make_profiles, mix_profile,
                     paper_like_params, simulate_trace)

__version__ = "0.1.0"

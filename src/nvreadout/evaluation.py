"""Method comparison on a test dataset: variances, errors, contrast, repair.

Three processing methods are compared on the same test traces:

* ``max-C gate``  - gated estimator at the maximum-contrast window,
* ``min-V gate``  - gated estimator at the minimum-total-variance window,
* ``ML``          - a trained weighted readout model.

All three arrive as :class:`ReadoutModel` objects, each gate in its exact
model form (:func:`nvreadout.regression.gated_equivalent_model` of the
sweep optimum's window, calibrated by the boundary traces' per-measurement
window sums), and are applied to the dataset's counts matrix by one
matrix-vector product per model, so no output depends on the BLAS thread
count.  Two precision measures are reported per method: the average
formula variance (Poisson propagation through the estimator) and the
empirical mean squared error against ground truth when available, else
against the method's own sinusoid fit.  Contrast is the
peak-minus-trough of the method's own fitted oscillation in its own
population units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailureError, ParameterError
from .rabi import RabiDataset, SinusoidFit, fit_rabi
from .regression import ReadoutModel, _apply
from .traces import _check_populations

__all__ = [
    "MethodEval",
    "EvalReport",
    "RepairResult",
    "evaluate",
    "repair",
]

METHOD_MAX_C = "max-C gate"
METHOD_MIN_V = "min-V gate"
METHOD_ML = "ML"


@dataclass(frozen=True)
class MethodEval:
    method: str
    avg_formula_variance: float
    empirical_mse: float
    contrast_measured: float


@dataclass(frozen=True)
class EvalReport:
    """Per-method precision records; pairwise reductions derive from them."""

    methods: tuple[MethodEval, ...]
    truth_based: bool

    @property
    def reductions(self) -> dict[tuple[str, str], float]:
        """``reductions[(a, b)]`` is 1 - V_a / V_b for average formula variances,
        or nan where either is 0: a constant estimator (the flat model) has no
        contrast, so its variance compares with nothing."""
        return {(a.method, b.method):
                1.0 - a.avg_formula_variance / b.avg_formula_variance
                if a.avg_formula_variance and b.avg_formula_variance else float("nan")
                for a in self.methods for b in self.methods if a.method != b.method}

    def method(self, name: str) -> MethodEval:
        for m in self.methods:
            if m.method == name:
                return m
        raise KeyError(name)


@dataclass(frozen=True, eq=False)
class RepairResult:
    """Original and repaired series per point (read-only), each with its own fit."""

    durations: np.ndarray       # ns
    p_original: np.ndarray
    p_repaired: np.ndarray
    q_fit: np.ndarray           # original series' fitted value at each duration
    fit_original: SinusoidFit
    fit_repaired: SinusoidFit
    rms_original: float         # original vs its own fit
    rms_repaired: float         # repaired vs its own fit


def _method_eval(name: str, durations: np.ndarray, p: np.ndarray,
                 variances: np.ndarray, truth: np.ndarray | None) -> MethodEval:
    # a method whose series cannot be fitted (e.g. a degenerate one-bin
    # window on noisy boundaries) still reports its variance; its contrast,
    # and without truth its error, become nan instead of failing the run
    try:
        fit = fit_rabi(durations, p)
        contrast_measured = 2.0 * fit.amplitude
    except FitFailureError:
        fit = None
        contrast_measured = float("nan")
    if truth is not None:
        mse = float(np.mean((p - truth) ** 2))
    elif fit is not None:
        mse = float(np.mean((p - fit.value(durations)) ** 2))
    else:
        mse = float("nan")
    return MethodEval(name, float(np.mean(variances)), mse, contrast_measured)


def evaluate(test: RabiDataset, max_c_gate: ReadoutModel, min_v_gate: ReadoutModel,
             model: ReadoutModel, truth=None) -> EvalReport:
    """Compare two gated baselines and a trained model on a test dataset.

    Parameters
    ----------
    test : RabiDataset
        Test traces, all at one repetition count.
    max_c_gate, min_v_gate : ReadoutModel
        The gated baselines in model form, at the sweep's two optima.
    model : ReadoutModel
        Trained weighted estimator.
    truth : sequence of float, optional
        Ground-truth populations, each in [0, 1]; when given, empirical
        errors are computed against it instead of each method's own fit.
    """
    durations = test.durations
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != durations.shape:
            raise ParameterError("truth length differs from test set")
        _check_populations(truth, "truth")

    p, v = _apply([max_c_gate, min_v_gate, model], test.counts, test.repetitions,
                  test.bin_width_ns)
    rows = tuple(_method_eval(name, durations, p[:, k], v[:, k], truth)
                 for k, name in enumerate((METHOD_MAX_C, METHOD_MIN_V, METHOD_ML)))
    return EvalReport(rows, truth is not None)


def repair(dataset: RabiDataset, original: ReadoutModel,
           repaired: ReadoutModel) -> RepairResult:
    """Original and repaired populations for every point, from two models.

    ``original`` is normally the min-variance gate in model form and
    ``repaired`` the trained model.  Both series get their own sinusoid
    fit; ``q_fit`` tabulates the original's fitted curve.
    """
    durations = dataset.durations
    p, _ = _apply([original, repaired], dataset.counts, dataset.repetitions,
                  dataset.bin_width_ns)
    p.setflags(write=False)             # and with it both series, views of its columns
    p_orig, p_rep = p[:, 0], p[:, 1]
    fit_o = fit_rabi(durations, p_orig)
    fit_r = fit_rabi(durations, p_rep)
    q_fit = fit_o.value(durations)
    q_fit.setflags(write=False)
    rms_o = float(np.sqrt(np.mean((p_orig - q_fit) ** 2)))
    rms_r = float(np.sqrt(np.mean((p_rep - fit_r.value(durations)) ** 2)))
    return RepairResult(durations, p_orig, p_rep, q_fit, fit_o, fit_r, rms_o, rms_r)

"""Per-bin weighted readout model and its variance-regularized trainer.

The model maps a trace to a population estimate

    p = sum_i weights[i] * counts[i] / repetitions + intercept

with nonnegative per-bin weights.  Weights live in per-measurement rate
space, so one trained model applies unchanged to test traces taken with
any repetition count.  Under Poisson counts the estimate's variance is

    var(p) = sum_i (weights[i] / repetitions)^2 * counts[i].

Training takes a traces x bins counts matrix, the repetitions of every
row and one target population per row (:func:`train`);
:func:`train_boundary` stacks the two boundary traces, :func:`train_rabi`
takes a scan's counts matrix and its own fit's targets.  It is the exact
solve of one convex problem.  With rate_scale the largest per-measurement
bin rate of the training set, normalized rates z = rates / rate_scale and
weights v = weights * rate_scale, it minimizes over v >= 0 and a free
intercept b

    (1/m) sum_j (z_j . v + b - t_j)^2 + (1/(w m)) sum_i c_i v_i^2
        + LAMBDA ||v - v_g||^2

for m traces with targets t_j and repetitions R_j, w = WEIGHT_FACTOR and
c_i = sum_j z_ji / (R_j rate_scale).  Like LAMBDA, w is a module constant:
the LAMBDA term dominates, and any w from 1 to 1e8 moves the model's noise
per unit contrast by under 0.2%.  The first two terms are J / (w m) for
J = w sum_j (p_j - t_j)^2 + sum_j var(p_j).  The third pulls v toward
v_g, equal weights over the best min-variance window of the extremal-target
traces (zeros when every window is degenerate): a ridge penalty in place
of the early stopping that keeps a fit to noisy oscillation sets from
memorizing shot noise (Ali, Kolter & Tibshirani, AISTATS 2019).

The solver centres z and t to remove b and maximizes the concave
m-dimensional dual by semismooth Newton steps, backtracking on the dual
value.  With d = c + LAMBDA w m and u = LAMBDA w m v_g / d the primal
weights at a dual point mu are v = max(0, u - Z_c^T mu / (2 d)); each
step's Hessian is restricted to the bins where v > 0.  Predictions never
depend on rate_scale; the model keeps it for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConvergenceError, DegenerateBoundaryError,
                     DegenerateTrainingError, DomainError, ParameterError,
                     ShapeError)
from .gating import GateWindow, _metric_curves
from .rabi import RabiDataset, _targets, fit_rabi
from .traces import TimeTrace, _check_header_text, _check_pair, _checked_counts

__all__ = [
    "ReadoutModel",
    "LossBreakdown",
    "predict",
    "prediction_variance",
    "loss",
    "loss_gradient",
    "train",
    "train_boundary",
    "train_rabi",
    "gated_equivalent_model",
]

LAMBDA = 1.0          # weight of the proximity term toward the gated anchor
WEIGHT_FACTOR = 1e4   # weight of the prediction term over the variance term
_DUAL_TOL = 1e-13     # dual-gradient tolerance, relative to 1 + |Z_c| v
_ARMIJO = 1e-4        # sufficient-increase fraction of the line search


@dataclass(frozen=True)
class LossBreakdown:
    """The two loss terms and the weight of the first; ``total`` is derived."""

    prediction_term: float      # sum of squared prediction errors, unweighted
    variance_term: float        # sum of per-example estimate variances
    weight_factor: float

    def __post_init__(self):
        if self.prediction_term < 0 or self.variance_term < 0:
            raise ParameterError("loss terms must be nonnegative")

    @property
    def total(self) -> float:
        return self.weight_factor * self.prediction_term + self.variance_term


@dataclass(frozen=True, eq=False)
class ReadoutModel:
    """Nonnegative per-bin weights plus intercept, in per-measurement space."""

    weights: np.ndarray
    intercept: float
    reference_bin_width_ns: float
    rate_scale: float = 1.0     # training-set max bin rate used as preconditioner
    trained_on: str = ""        # provenance: one line, no surrounding whitespace
    training_loss: LossBreakdown | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ParameterError("weights must be a non-empty 1-d sequence")
        if np.any(~np.isfinite(w)):
            raise ParameterError("weights must be finite")
        if w.min() < 0:
            raise ParameterError("weights must be nonnegative")
        if not np.isfinite(self.intercept):
            raise ParameterError("intercept must be finite")
        if not (0 < self.reference_bin_width_ns < np.inf):
            raise ParameterError("reference_bin_width_ns must be finite and positive")
        if not (0 < self.rate_scale < np.inf):
            raise ParameterError("rate_scale must be finite and positive")
        _check_header_text(self.trained_on, "trained_on")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return int(self.weights.size)


# ---------------------------------------------------------------------------
# Model application
# ---------------------------------------------------------------------------

def _apply(models, counts: np.ndarray, repetitions: int,
           bin_width_ns: float) -> tuple[np.ndarray, np.ndarray]:
    """Populations and Poisson variances of K models on a points x bins matrix.

    Every row of ``counts`` is taken at ``repetitions`` measurements; with
    the models' weights stacked as W (K x bins) and intercepts as b, returns
    the points x K arrays P = (counts / R) W^T + b and
    V = counts ((W / R)^2)^T = (counts / R) (W^2)^T / R.
    """
    for model in models:
        if counts.shape[1] != model.dimension:
            raise ShapeError(
                f"data have {counts.shape[1]} bins, model expects {model.dimension}")
        if bin_width_ns != model.reference_bin_width_ns:
            raise ShapeError(
                f"data bin width {bin_width_ns} ns differs from model's "
                f"{model.reference_bin_width_ns} ns")
    w = np.stack([model.weights for model in models])
    rates = counts / repetitions
    p = rates @ w.T + np.array([model.intercept for model in models])
    return p, rates @ (w * w).T / repetitions


def predict(model: ReadoutModel, trace: TimeTrace) -> float:
    """Population estimate for a trace (not clipped to [0, 1])."""
    p, _ = _apply([model], trace.counts[None], trace.repetitions, trace.bin_width_ns)
    return float(p[0, 0])


def prediction_variance(model: ReadoutModel, trace: TimeTrace) -> float:
    """Poisson variance of the estimate: sum (weight/R)^2 * counts."""
    _, v = _apply([model], trace.counts[None], trace.repetitions, trace.bin_width_ns)
    return float(v[0, 0])


# ---------------------------------------------------------------------------
# Loss and gradient
# ---------------------------------------------------------------------------

def _design(examples, model: ReadoutModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-measurement rates, repetition counts and targets for ``model``."""
    if len(examples) == 0:
        raise DomainError("need at least one training example")
    n = len(examples[0].trace)
    width = examples[0].trace.bin_width_ns
    rows, reps, targets = [], [], []
    for k, ex in enumerate(examples):
        if len(ex.trace) != n:
            raise ShapeError(f"example {k} has {len(ex.trace)} bins, expected {n}")
        if ex.trace.bin_width_ns != width:
            raise ShapeError(f"example {k} bin width differs")
        rows.append(ex.trace.rates)
        reps.append(float(ex.trace.repetitions))
        targets.append(float(ex.target))
    if width != model.reference_bin_width_ns or n != model.dimension:
        raise ShapeError("examples incompatible with model")
    return np.stack(rows), np.asarray(reps), np.asarray(targets)


def _loss(rates: np.ndarray, reps: np.ndarray, targets: np.ndarray,
          model: ReadoutModel, w: float) -> LossBreakdown:
    """Both loss terms of ``model`` on a rates matrix, totalled at weight ``w``."""
    residuals = rates @ model.weights + model.intercept - targets
    pred = float(residuals @ residuals)
    var_coeff = (rates / reps[:, None]).sum(axis=0)
    var = float(model.weights * model.weights @ var_coeff)
    return LossBreakdown(pred, var, w)


def loss(model: ReadoutModel, examples, w: float) -> LossBreakdown:
    """Evaluate both loss terms for a model on a training set."""
    return _loss(*_design(examples, model), model, w)


def loss_gradient(model: ReadoutModel, examples, w: float) -> tuple[np.ndarray, float]:
    """Gradient of the total loss at weight ``w`` over (weights, intercept)."""
    rates, reps, targets = _design(examples, model)
    residuals = rates @ model.weights + model.intercept - targets
    var_coeff = (rates / reps[:, None]).sum(axis=0)
    grad_w = 2.0 * w * (rates.T @ residuals) + 2.0 * var_coeff * model.weights
    grad_b = 2.0 * w * float(residuals.sum())
    return grad_w, grad_b


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _gated_init(counts: np.ndarray, reps: np.ndarray, targets: np.ndarray,
                bin_width_ns: float) -> np.ndarray:
    """Equal weights over the best min-variance window of the extremal rows.

    Uses the brightest-target and darkest-target rows as boundary
    proxies.  Returns zeros when every window is degenerate in the target
    orientation (e.g. swapped labels).
    """
    bright, dark = (TimeTrace(counts[k], reps[k], bin_width_ns)
                    for k in (int(np.argmax(targets)), int(np.argmin(targets))))
    *_, v = _metric_curves(np.cumsum(bright.counts) / bright.repetitions,
                           np.cumsum(dark.counts) / dark.repetitions)
    if np.isnan(v).all():
        return np.zeros(len(bright))
    window = GateWindow(0, int(np.nanargmin(v)) + 1)
    return gated_equivalent_model(bright, dark, window).weights


def _solve(rates: np.ndarray, reps: np.ndarray, targets: np.ndarray,
           anchor: np.ndarray, max_steps: int, lam: float = LAMBDA,
           w: float = WEIGHT_FACTOR) -> tuple[np.ndarray, float, int, float]:
    """Exact minimizer of the module's stated objective by dual Newton steps.

    ``anchor`` holds the gated-anchor weights in rate space.  Returns
    rate-space weights, intercept, Newton steps taken and the KKT residual
    (norm of the projected objective gradient over (v, b)) at the result.
    """
    scale = float(rates.max())
    z = rates / scale
    m = z.shape[0]
    c = (z / reps[:, None]).sum(axis=0) / scale
    v_g = anchor * scale
    zc = z - z.mean(axis=0)
    tc = targets - targets.mean()
    d = c + lam * w * m
    u = lam * w * m * v_g / d

    def at(mu):
        """Primal weights, dual value and dual gradient at ``mu``."""
        g = zc.T @ mu
        v = np.maximum(0.0, u - g / (2.0 * d))
        value = float(d @ (v - u) ** 2 + g @ v - mu @ mu / (4.0 * w) - mu @ tc)
        return v, value, zc @ v - tc - mu / (2.0 * w)

    mu = np.zeros(m)
    v, value, grad = at(mu)
    steps = 0
    # the gradient is a residual in target units; rounding in Z_c v grows
    # with the size of its terms
    while np.any(np.abs(grad) > _DUAL_TOL * (1.0 + np.abs(zc) @ v)):
        if steps == max_steps:
            raise ConvergenceError(
                f"training did not converge in {max_steps} Newton steps "
                f"(dual gradient {np.abs(grad).max():.3e})")
        active = v > 0
        za = zc[:, active]
        delta = np.linalg.solve(np.eye(m) / (2.0 * w) + (za / (2.0 * d[active])) @ za.T,
                                grad)
        alpha = 1.0
        while True:
            trial = at(mu + alpha * delta)
            # an unchanged active set means the dual is quadratic along the
            # whole step, so the step cannot decrease it; skipping the value
            # test there keeps rounding from stalling the final steps
            if (np.array_equal(trial[0] > 0, active) or alpha < 1e-10
                    or trial[1] >= value + _ARMIJO * alpha * float(grad @ delta)):
                break
            alpha *= 0.5
        mu = mu + alpha * delta
        v, value, grad = trial
        steps += 1

    b = float(targets.mean() - z.mean(axis=0) @ v)
    r = z @ v + b - targets
    grad_v = (2.0 / m) * (z.T @ r) + (2.0 / (w * m)) * c * v + 2.0 * lam * (v - v_g)
    grad_v = np.where(v > 0, grad_v, np.minimum(grad_v, 0.0))
    kkt = float(np.hypot(np.linalg.norm(grad_v), 2.0 * r.mean()))
    return v / scale, b, steps, kkt


def train(counts, repetitions, targets, bin_width_ns: float,
          max_iterations: int = 100, provenance: str = "") -> ReadoutModel:
    """Fit a readout model to labeled traces by the exact solve above.

    Parameters
    ----------
    counts : array of int, traces x bins
        Photon counts of at least two traces, one per row.
    repetitions : int or sequence of int
        Measurements summed in every row, or one value per row.
    targets : sequence of float
        One target population in [0, 1] per row, not all equal.
    bin_width_ns : float
        Bin width shared by every row.
    max_iterations : int
        Cap on Newton steps, an integer >= 1.
    provenance : str
        Free text recorded on the model.

    Returns
    -------
    ReadoutModel
        Weights satisfy min(weights) >= 0 exactly; ``training_loss`` holds
        the final loss breakdown at WEIGHT_FACTOR and ``trained_on`` names
        the solver, LAMBDA, the Newton steps taken and the KKT residual.  A
        solve that needs more than ``max_iterations`` steps raises
        :class:`ConvergenceError`.
    """
    if not (isinstance(max_iterations, (int, np.integer)) and max_iterations >= 1):
        raise ParameterError("max_iterations must be an integer >= 1")
    counts = _checked_counts(counts, 2, 1, bin_width_ns)    # repetitions: below
    m = len(counts)
    reps, targets = np.array(repetitions), np.array(targets, dtype=float)
    if reps.ndim == 0:
        reps = np.full(m, reps)
    if reps.shape != (m,) or targets.shape != (m,):
        raise ShapeError(f"need one repetition count and one target for each of {m} traces")
    if reps.dtype.kind not in "iu" or reps.min() < 1:
        raise ParameterError("repetitions must be integers >= 1")
    if not np.all((targets >= 0.0) & (targets <= 1.0)):
        raise DomainError("targets must be in [0, 1]")
    if np.all(targets == targets[0]):       # one trace included
        raise DegenerateTrainingError("targets need at least two distinct values")
    if counts.max() == 0:
        raise DegenerateTrainingError("all training traces are empty")

    rates = counts / reps[:, None]
    weights, intercept, steps, kkt = _solve(
        rates, reps, targets, _gated_init(counts, reps, targets, bin_width_ns),
        max_iterations)
    model = ReadoutModel(
        weights=weights,
        intercept=intercept,
        reference_bin_width_ns=bin_width_ns,
        rate_scale=float(rates.max()),
        trained_on=f"{provenance or f'{m} traces'}, "
                   f"solver=dual-newton, lambda={LAMBDA!r}, iterations={steps}, "
                   f"kkt_residual={kkt:.3e}",
    )
    return replace(model, training_loss=_loss(rates, reps, targets, model, WEIGHT_FACTOR))


def train_boundary(trace0: TimeTrace, trace1: TimeTrace,
                   max_iterations: int = 100) -> ReadoutModel:
    """Train on the two boundary traces with targets 1 (bright) and 0 (dark)."""
    _check_pair(trace0, trace1)
    if np.array_equal(trace0.counts, trace1.counts) and \
            trace0.repetitions == trace1.repetitions:
        raise DegenerateTrainingError("boundary traces are identical")
    return train(np.stack([trace0.counts, trace1.counts]),
                 [trace0.repetitions, trace1.repetitions], [1.0, 0.0],
                 trace0.bin_width_ns, max_iterations,
                 provenance=f"boundary traces, repetitions="
                            f"{trace0.repetitions}/{trace1.repetitions}")


def train_rabi(dataset: RabiDataset, *, max_iterations: int = 100) -> ReadoutModel:
    """Train on a whole oscillation dataset, one target per point from the fit
    of its count sums (see ``assign_targets``); other targets go to :func:`train`."""
    sums = dataset.counts.sum(axis=1) / dataset.repetitions
    targets = _targets(dataset.durations, fit_rabi(dataset.durations, sums))
    return train(dataset.counts, dataset.repetitions, targets, dataset.bin_width_ns,
                 max_iterations, provenance=f"oscillation set, {len(dataset)} points, "
                                            f"repetitions={dataset.repetitions}")


def gated_equivalent_model(trace0: TimeTrace, trace1: TimeTrace,
                           window: GateWindow) -> ReadoutModel:
    """Exact model form of the gated estimator for a given window.

    Equal weights 1 / (bright - dark per-measurement window sums) inside
    the window, zero outside, intercept -dark / (bright - dark): applied
    to any trace this reproduces the gated population estimate and its
    variance identically.
    """
    _check_pair(trace0, trace1)
    window.check_fits(len(trace0))
    sel = slice(window.start_bin, window.stop_bin)
    bright = float(trace0.counts[sel].sum() / trace0.repetitions)
    dark = float(trace1.counts[sel].sum() / trace1.repetitions)
    span = bright - dark
    if not (span > 0):
        raise DegenerateBoundaryError(
            f"window sums degenerate: bright={bright}, dark={dark}")
    weights = np.zeros(len(trace0))
    weights[sel] = 1.0 / span
    return ReadoutModel(
        weights=weights,
        intercept=-dark / span,
        reference_bin_width_ns=trace0.bin_width_ns,
        rate_scale=1.0,
        trained_on=f"gated-equivalent, window=[{window.start_bin},{window.stop_bin})",
    )

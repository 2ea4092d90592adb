"""Per-bin weighted readout model and its closed-form trainer.

The model maps a trace to a population estimate

    p = sum_i weights[i] * counts[i] / repetitions + intercept

with nonnegative per-bin weights.  Weights live in per-measurement rate
space, so one trained model applies unchanged to test traces taken with
any repetition count.  Under Poisson counts the estimate's variance is

    var(p) = sum_i (weights[i] / repetitions)^2 * counts[i].

Training takes a traces x bins counts matrix, the repetitions of every
row and one target population per row (:func:`train`);
:func:`train_boundary` stacks the two boundary traces, :func:`train_rabi`
takes a scan's counts matrix and its own fit's targets.  Poisson bins are
independent, so among nonnegative weights the estimate with the least
variance per unit contrast at p = 1/2 has w proportional to
(delta)_+ / m, delta = r0 - r1 and m = (r0 + r1) / 2 the bins' bright -
dark rate difference and mean rate; this reaches the Cramer-Rao bound
(Gupta, Hacquebard & Childress, JOSA B 2016).  The trainer estimates it
in three steps, with no iteration:

1. regress each bin's rates on the rows' targets by least squares: the
   slope is delta, the fitted rate at target 1/2 is m;
2. sum both over GROUPS log-spaced bin groups, edges
   unique([0] + round(geomspace(1, n, GROUPS + 1))), which pools the
   noise of the long, flat tail;
3. set w_g = (delta_g)_+ / m_g on each group (0 where m_g <= 0), then
   calibrate by the least-squares fit of the targets on w . rates,
   which is exact on a boundary pair.

A training set with no group of positive delta (swapped labels, say)
gets zero weights and the mean target as its intercept.  Predictions
never depend on rate_scale; the model keeps it for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .gating import _boundary_span, _gate_width, gate_sum
from .rabi import RabiDataset, fit_count_sums
from .traces import (TimeTrace, _check_header_text, _check_pair, _check_positive,
                     _checked_counts, _checked_floats, _repetition_count)

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

GROUPS = 16           # log-spaced bin groups the weights are constant on
WEIGHT_FACTOR = 1e4   # prediction-term weight of the recorded loss (see LossBreakdown)


@dataclass(frozen=True)
class LossBreakdown:
    """The two loss terms and the weight of the first; ``total`` is derived.
    The trainer does not minimize ``total``; kept, with WEIGHT_FACTOR and
    ``training_loss``, only for ``bench/run.py``, until ROADMAP item 5."""

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
    rate_scale: float = 1.0     # training-set max bin rate, for provenance only
    trained_on: str = ""        # provenance: one line, no surrounding whitespace
    training_loss: LossBreakdown | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _checked_floats(self.weights, "weights"))
        if not np.isfinite(self.intercept):
            raise ParameterError("intercept must be finite")
        _check_positive(self.reference_bin_width_ns, "reference_bin_width_ns")
        _check_positive(self.rate_scale, "rate_scale")
        _check_header_text(self.trained_on, "trained_on")

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
    weights w and intercept b of model k, column k of the returned points x K
    arrays is P = (counts / R) w + b and V = counts (w / R)^2 = (counts / R) w^2 / R.
    One matrix-vector product per model: a product with the stacked weights
    would sum in an order that follows the BLAS thread count.  ParameterError if
    a variance or the estimates' sum of squares, which the MSE and fits take, overflows.
    """
    for model in models:
        if counts.shape[1] != model.dimension:
            raise ParameterError(
                f"data have {counts.shape[1]} bins, model expects {model.dimension}")
        if bin_width_ns != model.reference_bin_width_ns:
            raise ParameterError(
                f"data bin width {bin_width_ns} ns differs from model's "
                f"{model.reference_bin_width_ns} ns")
    rates = counts / repetitions
    with np.errstate(over="ignore", invalid="ignore"):   # inf * 0 is nan
        p = np.stack([rates @ m.weights + m.intercept for m in models], axis=1)
        v = np.stack([rates @ (m.weights * m.weights) for m in models], axis=1) / repetitions
        if not (np.isfinite(v).all() and np.isfinite((p * p).sum())):
            raise ParameterError(
                "estimates overflow: a model's weights or intercept are too large")
    return p, v


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
        raise ParameterError("need at least one training example")
    n = len(examples[0].trace)
    width = examples[0].trace.bin_width_ns
    rows, reps, targets = [], [], []
    for k, ex in enumerate(examples):
        if len(ex.trace) != n:
            raise ParameterError(f"example {k} has {len(ex.trace)} bins, expected {n}")
        if ex.trace.bin_width_ns != width:
            raise ParameterError(f"example {k} bin width differs")
        rows.append(ex.trace.rates)
        reps.append(float(ex.trace.repetitions))
        targets.append(float(ex.target))
    if width != model.reference_bin_width_ns or n != model.dimension:
        raise ParameterError("examples incompatible with model")
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
    """Evaluate both loss terms for a model on a training set; kept only for
    criterion c02's check of :func:`loss_gradient`, until ROADMAP item 5."""
    return _loss(*_design(examples, model), model, w)


def loss_gradient(model: ReadoutModel, examples, w: float) -> tuple[np.ndarray, float]:
    """Gradient of the total loss at weight ``w`` over (weights, intercept);
    kept only for ``bench/run.py`` and criterion c02, until ROADMAP item 5."""
    rates, reps, targets = _design(examples, model)
    residuals = rates @ model.weights + model.intercept - targets
    var_coeff = (rates / reps[:, None]).sum(axis=0)
    grad_w = 2.0 * w * (rates.T @ residuals) + 2.0 * var_coeff * model.weights
    grad_b = 2.0 * w * float(residuals.sum())
    return grad_w, grad_b


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(counts, repetitions, targets, bin_width_ns: float,
          provenance: str = "") -> ReadoutModel:
    """Fit a readout model to labeled traces by the closed form above.

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
    provenance : str
        Free text recorded on the model.

    Returns
    -------
    ReadoutModel
        Weights satisfy min(weights) >= 0 exactly; ``training_loss`` holds
        the loss breakdown at WEIGHT_FACTOR and ``trained_on`` names the
        recipe and GROUPS.
    """
    counts = _checked_counts(counts, 2, bin_width_ns)
    m, n = counts.shape
    reps, targets = np.array(repetitions), np.array(targets, dtype=float)
    if reps.ndim == 0:
        reps = np.full(m, reps)
    if reps.shape != (m,) or targets.shape != (m,):
        raise ParameterError(f"need one repetition count and one target for each of {m} traces")
    reps = np.array([_repetition_count(r) for r in reps.tolist()], dtype=float)
    if not np.all((targets >= 0.0) & (targets <= 1.0)):
        raise ParameterError("targets must be in [0, 1]")
    if np.all(targets == targets[0]):       # one trace included
        raise ParameterError("targets need at least two distinct values")
    if counts.max() == 0:
        raise ParameterError("all training traces are empty")

    rates = counts / reps[:, None]
    # step 1: per-bin slope and rate at target 1/2 (sums, not BLAS products,
    # so the bytes do not depend on the BLAS thread count)
    tc = targets - targets.mean()
    delta = (tc[:, None] * rates).sum(axis=0) / (tc * tc).sum()
    mid = rates.mean(axis=0) + delta * (0.5 - targets.mean())
    # step 2: group sums; step 3: group weights, spread back over the bins
    # (a set, not np.unique, which imports numpy.ma: ~20 ms of every process)
    edges = np.array(sorted({0, *np.round(np.geomspace(1, n, GROUPS + 1)).astype(int)}))
    delta_g = np.add.reduceat(delta, edges[:-1])
    mid_g = np.add.reduceat(mid, edges[:-1])
    use = (delta_g > 0) & (mid_g > 0)
    shape = np.repeat(np.where(use, delta_g / np.where(use, mid_g, 1.0), 0.0),
                      np.diff(edges))
    s = (rates * shape).sum(axis=1)
    sc = s - s.mean()
    cov = (sc * tc).sum()
    if cov > 0:
        slope = cov / (sc * sc).sum()
        weights, intercept = slope * shape, float(targets.mean() - slope * s.mean())
    else:                                   # no positive group: swapped labels
        weights, intercept = np.zeros(n), float(targets.mean())
    model = ReadoutModel(
        weights=weights,
        intercept=intercept,
        reference_bin_width_ns=bin_width_ns,
        rate_scale=float(rates.max()),
        trained_on=f"{provenance or f'{m} traces'}, "
                   f"solver=closed-form, groups={GROUPS}, iterations=0",
    )
    return replace(model, training_loss=_loss(rates, reps, targets, model, WEIGHT_FACTOR))


def train_boundary(trace0: TimeTrace, trace1: TimeTrace) -> ReadoutModel:
    """Train on the two boundary traces with targets 1 (bright) and 0 (dark)."""
    _check_pair(trace0, trace1)
    if np.array_equal(trace0.counts, trace1.counts) and \
            trace0.repetitions == trace1.repetitions:
        raise ParameterError("boundary traces are identical")
    return train(np.stack([trace0.counts, trace1.counts]),
                 [trace0.repetitions, trace1.repetitions], [1.0, 0.0],
                 trace0.bin_width_ns,
                 provenance=f"boundary traces, repetitions="
                            f"{trace0.repetitions}/{trace1.repetitions}")


def train_rabi(dataset: RabiDataset) -> ReadoutModel:
    """Train on a whole oscillation dataset, each point's target the
    ``normalized`` fit of its count sums at its duration; other targets go
    to :func:`train`."""
    _, fit = fit_count_sums(dataset)
    return train(dataset.counts, dataset.repetitions, fit.normalized(dataset.durations),
                 dataset.bin_width_ns,
                 provenance=f"oscillation set, {len(dataset)} points, "
                            f"repetitions={dataset.repetitions}")


def gated_equivalent_model(trace0: TimeTrace, trace1: TimeTrace,
                           width: int) -> ReadoutModel:
    """Exact model form of the gated estimator for a given gate width.

    Equal weights 1 / (bright - dark per-measurement gated sums) on the
    first ``width`` bins, zero after them, intercept -dark / (bright - dark):
    applied to any trace this reproduces the gated population estimate and
    its variance identically.
    """
    _check_pair(trace0, trace1)
    width = _gate_width(width, len(trace0))
    bright, dark = (gate_sum(trace, width) / trace.repetitions for trace in (trace0, trace1))
    span = _boundary_span(bright, dark)
    weights = np.zeros(len(trace0))
    weights[:width] = 1.0 / span
    return ReadoutModel(
        weights=weights,
        intercept=-dark / span,
        reference_bin_width_ns=trace0.bin_width_ns,
        rate_scale=1.0,
        trained_on=f"gated-equivalent, width={width} bins",
    )

"""Time-gated readout: gated sums, population estimator, gate-width sweep.

The traditional estimator sums counts in a gate window and maps the sum
linearly so that the bright-state boundary reads 1 and the dark-state
boundary reads 0.  Window quality is judged by two competing figures of
merit computed from the boundary gated sums (bright B, dark D):

    contrast        C = (B - D) / B
    total variance  V = (B + D) / (2 (B - D)^2)

V is the population-estimate variance integrated over all populations in
[0, 1].  Sweeping the window width trades one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundaryError, ShapeError
from .traces import TimeTrace, _check_pair

__all__ = [
    "GateWindow",
    "GateMetrics",
    "SweepResult",
    "gate_sum",
    "gated_population",
    "contrast",
    "total_variance",
    "sweep_gate",
]


@dataclass(frozen=True)
class GateWindow:
    """Contiguous bin window [start_bin, start_bin + width_bins)."""

    start_bin: int = 0
    width_bins: int = 1

    def __post_init__(self):
        if self.start_bin < 0:
            raise ShapeError("start_bin must be nonnegative")
        if self.width_bins < 1:
            raise ShapeError("width_bins must be >= 1")

    @property
    def stop_bin(self) -> int:
        return self.start_bin + self.width_bins

    def check_fits(self, n_bins: int) -> None:
        if self.stop_bin > n_bins:
            raise ShapeError(
                f"window [{self.start_bin}, {self.stop_bin}) overruns trace of {n_bins} bins")


@dataclass(frozen=True)
class GateMetrics:
    """Boundary gated sums and figures of merit for one window of a sweep."""

    window: GateWindow
    bright_total: float         # gated sum of the bright boundary trace
    dark_total: float           # gated sum of the dark boundary trace
    contrast: float
    total_variance: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Figures of merit over gate widths 1..N - start_bin, and their optima.

    Entry k of each array belongs to width k + 1.  Widths whose boundary
    sums are degenerate (see :func:`_metric_curves`) hold nan in all four
    arrays.  The optima ``max_contrast`` and ``min_variance`` are computed
    from the arrays, ties going to the smaller width; they are None only
    when every width is degenerate.
    """

    start_bin: int
    bin_width_ns: float
    repetitions: int
    bright_total: np.ndarray
    dark_total: np.ndarray
    contrast: np.ndarray
    total_variance: np.ndarray

    @property
    def max_contrast(self) -> GateMetrics | None:
        return self._optimum(np.nanargmax, self.contrast)

    @property
    def min_variance(self) -> GateMetrics | None:
        return self._optimum(np.nanargmin, self.total_variance)

    def _optimum(self, arg, curve: np.ndarray) -> GateMetrics | None:
        return None if np.isnan(curve).all() else self.at(int(arg(curve)) + 1)

    def at(self, width: int) -> GateMetrics:
        """Metrics of one width; DegenerateBoundaryError if it is degenerate."""
        window = GateWindow(self.start_bin, width)
        window.check_fits(self.start_bin + self.contrast.size)
        k = width - 1
        if np.isnan(self.contrast[k]):
            raise DegenerateBoundaryError(f"gate width {width} is degenerate")
        return GateMetrics(window, float(self.bright_total[k]), float(self.dark_total[k]),
                           float(self.contrast[k]), float(self.total_variance[k]))


def gate_sum(trace: TimeTrace, window: GateWindow) -> float:
    """Sum of counts inside the window, in float64 (an int64 sum can wrap)."""
    window.check_fits(len(trace))
    return float(trace.counts[window.start_bin:window.stop_bin].sum(dtype=float))


def gated_population(gate_counts: float, bright_total: float,
                     dark_total: float) -> tuple[float, float]:
    """Population estimate and its variance from a gated sum.

    All three arguments must be expressed at the same repetition count
    (scale a boundary sum by test repetitions / boundary repetitions).
    This is the reference form of the estimator; the pipeline applies its
    exact model form, :func:`nvreadout.regression.gated_equivalent_model`.

    Returns
    -------
    (population, variance)
        population = (gate_counts - dark_total) / (bright_total - dark_total),
        deliberately not clipped to [0, 1] so residual statistics stay
        unbiased; variance = gate_counts / (bright_total - dark_total)^2
        assuming Poisson counts.
    """
    span = bright_total - dark_total
    if not (span > 0):
        raise DegenerateBoundaryError(
            f"bright_total must exceed dark_total, got {bright_total} <= {dark_total}")
    return (gate_counts - dark_total) / span, gate_counts / (span * span)


def contrast(bright_total: float, dark_total: float) -> float:
    """Relative fluorescence difference (bright - dark) / bright."""
    if not (bright_total > 0):
        raise DegenerateBoundaryError(f"bright_total must be positive, got {bright_total}")
    return (bright_total - dark_total) / bright_total


def total_variance(bright_total: float, dark_total: float) -> float:
    """Population variance integrated over populations in [0, 1].

    Closed form (bright + dark) / (2 (bright - dark)^2), the integral of
    the per-population variance (p*bright + (1-p)*dark) / (bright-dark)^2.
    """
    span = bright_total - dark_total
    if not (span > 0):
        raise DegenerateBoundaryError(
            f"bright_total must exceed dark_total, got {bright_total} <= {dark_total}")
    return (bright_total + dark_total) / (2.0 * span * span)


def _metric_curves(cum_bright: np.ndarray, cum_dark: np.ndarray):
    """Gated sums, contrast and total variance over widths, from cumulative sums.

    Returns four arrays holding nan at every degenerate width, so that
    nanargmax/nanargmin never select one: a width is degenerate unless
    bright > dark > 0, contrast < 1 and total variance > 0, which nan fails.
    """
    with np.errstate(all="ignore"):     # 0/0 at empty widths; a file's 1e200 overflows
        span = cum_bright - cum_dark
        c, v = span / cum_bright, (cum_bright + cum_dark) / (2.0 * span * span)
    valid = (span > 0) & (cum_dark > 0) & (c < 1) & (v > 0)
    return tuple(np.where(valid, x, np.nan) for x in (cum_bright, cum_dark, c, v))


def sweep_gate(trace0: TimeTrace, trace1: TimeTrace, start_bin: int = 0) -> SweepResult:
    """Evaluate every gate width on a pair of boundary traces.

    ``trace0`` must be the bright boundary.  Widths run from 1 to
    N - start_bin.
    """
    _check_pair(trace0, trace1)
    if trace0.repetitions != trace1.repetitions:
        raise ShapeError("boundary traces must share a repetition count; "
                         "rescale one of them first")
    n = len(trace0)
    if not (0 <= start_bin < n):
        raise ShapeError(f"start_bin {start_bin} outside trace of {n} bins")

    cum0 = np.cumsum(trace0.counts[start_bin:], dtype=float)    # int64 could wrap
    cum1 = np.cumsum(trace1.counts[start_bin:], dtype=float)
    return SweepResult(start_bin, trace0.bin_width_ns, trace0.repetitions,
                       *_metric_curves(cum0, cum1))

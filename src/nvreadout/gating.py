"""Time-gated readout: gated sums, population estimator, gate-width sweep.

The traditional estimator sums counts in a gate window and maps the sum
linearly so that the bright-state boundary reads 1 and the dark-state
boundary reads 0.  Window quality is judged by two competing figures of
merit computed from the boundary gated sums (bright B, dark D):

    contrast        C = (B - D) / B
    total variance  V = (B + D) / (2 (B - D)^2)

V is the population-estimate variance integrated over all populations in
[0, 1].  Every window starts at the trace's first bin, so a gate is its
width, the one free parameter: sweeping it trades one figure against the
other, and a :class:`SweepResult` derives both curves from the gated sums
over widths.  A boundary pair is usable only when bright > dark, the one
rule :func:`_boundary_span` states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .traces import TimeTrace, _check_pair, _check_positive, _repetition_count

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
    """The first ``width_bins`` bins of a trace."""

    width_bins: int

    def __post_init__(self):
        if self.width_bins < 1:
            raise ParameterError("width_bins must be >= 1")

    def check_fits(self, n_bins: int) -> None:
        if self.width_bins > n_bins:
            raise ParameterError(
                f"gate width {self.width_bins} overruns trace of {n_bins} bins")


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
    """Figures of merit over gate widths 1..N, and their optima.

    Built from the boundary gated sums, two 1-d arrays of one length; entry
    k of each array belongs to width k + 1.  ``contrast`` and
    ``total_variance`` are derived, and a width is degenerate unless
    bright > dark > 0, contrast < 1 and total variance > 0; it holds nan in
    all four arrays, which are read-only, and is never an optimum.  The
    optima ``max_contrast`` and ``min_variance`` take ties to the smaller
    width; they are None only when every width is degenerate.
    """

    bin_width_ns: float
    repetitions: int
    bright_total: np.ndarray
    dark_total: np.ndarray
    contrast: np.ndarray = field(init=False)
    total_variance: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_positive(self.bin_width_ns, "bin_width_ns")
        _repetition_count(self.repetitions)
        bright, dark = np.asarray(self.bright_total, float), np.asarray(self.dark_total, float)
        if bright.ndim != 1 or bright.shape != dark.shape:
            raise ParameterError("bright_total and dark_total must be 1-d and of one length, "
                                 f"got shapes {bright.shape} and {dark.shape}")
        with np.errstate(all="ignore"):     # 0/0 at empty widths; a file's 1e200 overflows
            span = bright - dark
            c, v = span / bright, (bright + dark) / (2.0 * span * span)
        valid = (span > 0) & (dark > 0) & (c < 1) & (v > 0)
        for name, x in zip(("bright_total", "dark_total", "contrast", "total_variance"),
                           (bright, dark, c, v)):
            curve = np.where(valid, x, np.nan)
            curve.setflags(write=False)
            object.__setattr__(self, name, curve)

    @property
    def max_contrast(self) -> GateMetrics | None:
        return self._optimum(np.nanargmax, self.contrast)

    @property
    def min_variance(self) -> GateMetrics | None:
        return self._optimum(np.nanargmin, self.total_variance)

    def _optimum(self, arg, curve: np.ndarray) -> GateMetrics | None:
        return None if np.isnan(curve).all() else self.at(int(arg(curve)) + 1)

    def at(self, width: int) -> GateMetrics:
        """Metrics of one width; ParameterError if it is degenerate."""
        window = GateWindow(width)
        window.check_fits(self.contrast.size)
        k = width - 1
        if np.isnan(self.contrast[k]):
            raise ParameterError(f"gate width {width} is degenerate")
        return GateMetrics(window, float(self.bright_total[k]), float(self.dark_total[k]),
                           float(self.contrast[k]), float(self.total_variance[k]))


def gate_sum(trace: TimeTrace, window: GateWindow) -> float:
    """Sum of counts inside the window, in float64 (an int64 sum can wrap)."""
    window.check_fits(len(trace))
    return float(trace.counts[:window.width_bins].sum(dtype=float))


def _boundary_span(bright_total: float, dark_total: float) -> float:
    """bright - dark; ParameterError unless bright > dark."""
    span = bright_total - dark_total
    if not (span > 0):
        raise ParameterError(
            f"bright_total must exceed dark_total, got {bright_total} <= {dark_total}")
    return span


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
    span = _boundary_span(bright_total, dark_total)
    return (gate_counts - dark_total) / span, gate_counts / (span * span)


def contrast(bright_total: float, dark_total: float) -> float:
    """Relative fluorescence difference (bright - dark) / bright."""
    if not (bright_total > 0):
        raise ParameterError(f"bright_total must be positive, got {bright_total}")
    return (bright_total - dark_total) / bright_total


def total_variance(bright_total: float, dark_total: float) -> float:
    """Population variance integrated over populations in [0, 1].

    Closed form (bright + dark) / (2 (bright - dark)^2), the integral of
    the per-population variance (p*bright + (1-p)*dark) / (bright-dark)^2.
    """
    span = _boundary_span(bright_total, dark_total)
    return (bright_total + dark_total) / (2.0 * span * span)


def sweep_gate(trace0: TimeTrace, trace1: TimeTrace) -> SweepResult:
    """Evaluate every gate width, 1 to N, on a pair of boundary traces.

    ``trace0`` must be the bright boundary.
    """
    _check_pair(trace0, trace1)
    if trace0.repetitions != trace1.repetitions:
        raise ParameterError("boundary traces must share a repetition count; "
                             "rescale one of them first")
    cum0 = np.cumsum(trace0.counts, dtype=float)    # int64 could wrap
    cum1 = np.cumsum(trace1.counts, dtype=float)
    return SweepResult(trace0.bin_width_ns, trace0.repetitions, cum0, cum1)

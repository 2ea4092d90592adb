"""Time-gated readout: gated sums and the gate-width sweep.

The traditional estimator sums counts in a gate window and maps the sum
linearly so that the bright-state boundary reads 1 and the dark-state
boundary reads 0; :func:`nvreadout.regression.gated_equivalent_model`
states it, as a model.  Window quality is judged by two competing
figures of merit of the boundary gated sums (bright B, dark D):

    contrast        C = (B - D) / B
    total variance  V = (B + D) / (2 (B - D)^2)

V is the population-estimate variance integrated over all populations in
[0, 1].  Every window starts at the trace's first bin, so a gate is its
width, the one free parameter: sweeping it trades one figure against the
other.  C and V are :class:`SweepResult`'s: it derives both curves from
the gated sums over widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .traces import TimeTrace, _check_pair, _check_positive, _repetition_count

__all__ = [
    "GateMetrics",
    "SweepResult",
    "gate_sum",
    "sweep_gate",
]


def _gate_width(width, n_bins: int) -> int:
    """``width`` as an int, if it is an integer (Python or numpy) from 1 to ``n_bins``."""
    width = _repetition_count(width, "width")
    if width > n_bins:
        raise ParameterError(f"gate width {width} overruns trace of {n_bins} bins")
    return width


@dataclass(frozen=True)
class GateMetrics:
    """Boundary gated sums and figures of merit for one width of a sweep."""

    window: int                 # the gate width in bins
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
    width; they are None only when every width is degenerate.  Every width
    is finite in ns: N times ``bin_width_ns`` must not overflow.
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
        if not bright.size * float(self.bin_width_ns) < np.inf:    # the widest gate, in ns
            raise ParameterError(f"bin_width_ns times {bright.size} widths overflows, "
                                 f"got {self.bin_width_ns!r}")
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
        width = _gate_width(width, self.contrast.size)
        k = width - 1
        if np.isnan(self.contrast[k]):
            raise ParameterError(f"gate width {width} is degenerate")
        return GateMetrics(width, float(self.bright_total[k]), float(self.dark_total[k]),
                           float(self.contrast[k]), float(self.total_variance[k]))


def gate_sum(trace: TimeTrace, width: int) -> float:
    """Sum of the first ``width`` counts, in float64 (an int64 sum can wrap)."""
    return float(trace.counts[:_gate_width(width, len(trace))].sum(dtype=float))


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

"""Oscillation datasets: sinusoid fitting and target assignment.

A Rabi dataset is one counts matrix with a row per pulse duration.  The
population oscillates sinusoidally with pulse duration, which gives a
free source of regression targets: fit

    q(t) = offset + amplitude * cos(2*pi*frequency*t + phase)

to any per-duration population series (the fit is invariant to affine
processing of the series, so even raw per-measurement count sums work),
then rescale the fitted curve so its extrema map to 1 and 0
(:meth:`SinusoidFit.normalized`).  That curve at the scan's durations is
the scan's target vector (:func:`assign_targets` pairs each target with
its trace in a :class:`TrainingExample`).

Sinusoid fitting is multimodal in frequency, but frequency is its only
nonlinear parameter: at a fixed frequency the offset and the cos/sin
amplitudes follow from a linear least-squares solve.  The fit profiles
the sum of squares over one frequency grid (variable projection, from
row sums) and takes its best point, the lowest frequency among ties.
Between that point's grid neighbours it finds the root of the profile's
slope, which has a closed form at each linear solve, and reads offset,
amplitude and phase from the solve there.  The slope, unlike the flat sum
of squares, is well conditioned at the minimum, so the fit is accurate to
rounding.  The grid spans 0.25-4x the dominant periodogram frequency and
stops at the Nyquist frequency of the median sampling step.  Its size grows
with the span over (points - 1) median steps, 1 on an evenly spaced scan;
above 16 the scan is rejected, so the fit's work is bounded by the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailureError, ParameterError
from .traces import (EmissionProfile, TimeTrace, _check_pair, _check_populations,
                     _check_positive, _check_repetitions, _checked_counts, _draw, _owned,
                     _repetition_count)

__all__ = [
    "RabiDataset",
    "SinusoidFit",
    "TrainingExample",
    "fit_rabi",
    "assign_targets",
    "simulate_rabi_dataset",
]

_MIN_POINTS = 8
_FREQ_GRID_SPAN = (0.25, 4.0)   # scan range around the dominant frequency
_GRID_STEPS_PER_BASIN = 8       # grid spacing is 1 / (this * time span)
_GRID_BLOCK = 2**18             # frequencies x points profiled per block
_MAX_SPAN_STEPS = 16            # span / ((points - 1) * median step) allowed
_RANK_TOL = 1e-10               # squared column norm / points below which a
                                # cos/sin column counts as rank-deficient
_FREQ_RTOL = 1e-12              # refine's stopping bracket width, relative
_AMPLITUDE_SNR = 3.0            # amplitude must exceed this multiple of rms


@dataclass(frozen=True)
class SinusoidFit:
    """offset + amplitude * cos(2*pi*frequency*t + phase), amplitude >= 0."""

    offset: float
    amplitude: float
    frequency: float            # cycles per ns
    phase: float                # radians, in [0, 2*pi)
    residual_rms: float

    def __post_init__(self):
        if self.amplitude < 0 or not (self.frequency > 0):
            raise ParameterError("amplitude must be >= 0 and frequency > 0")
        if not (0.0 <= self.phase < 2.0 * np.pi):
            raise ParameterError("phase must lie in [0, 2*pi)")

    def value(self, t):
        """Fitted curve at time(s) t (ns)."""
        return self.offset + self.amplitude * np.cos(
            2.0 * np.pi * self.frequency * np.asarray(t, dtype=float) + self.phase)

    def rescaled(self, y):
        """Values ``y`` on the fit's scale: its extrema map to 1 and 0."""
        if self.amplitude == 0:
            raise FitFailureError("cannot normalize a flat fit")
        low = self.offset - self.amplitude
        return (np.asarray(y, dtype=float) - low) / (2.0 * self.amplitude)

    def normalized(self, t):
        """Fitted curve rescaled, clipped to [0, 1] (rounding can land just outside)."""
        return np.clip(self.rescaled(self.value(t)), 0.0, 1.0)


@dataclass(frozen=True)
class TrainingExample:
    """A trace with its target population in [0, 1]; kept only for
    ``bench/run.py``'s solver diagnostics, until ROADMAP item 5."""

    trace: TimeTrace
    target: float

    def __post_init__(self):
        _check_populations(self.target, "target")


@dataclass(frozen=True, eq=False)
class RabiDataset:
    """An oscillation scan as one counts matrix.

    ``counts[k]`` is the trace taken at pulse duration ``durations[k]``;
    every row shares one repetition count and bin width.
    """

    durations: np.ndarray       # ns, finite and strictly increasing
    counts: np.ndarray          # points x bins, nonnegative int64, read-only
    repetitions: int
    bin_width_ns: float = 2.0

    def __post_init__(self):
        durations = _owned(self.durations, np.float64)
        if durations.ndim != 1 or durations.size < 1:
            raise ParameterError("dataset needs at least one point")
        bad = ~np.isfinite(durations)
        bad[1:] |= durations[1:] <= durations[:-1]
        if bad.any():
            k = int(np.argmax(bad))
            raise ParameterError("durations must be finite and strictly increasing"
                                 if np.isfinite(durations[k]) else
                                 f"duration_ns {durations[k]} is not finite", row=k)
        counts = _checked_counts(self.counts, 2, self.bin_width_ns)
        object.__setattr__(self, "repetitions", _repetition_count(self.repetitions))
        if len(counts) != durations.size:
            raise ParameterError(f"{len(counts)} count rows for {durations.size} durations")
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.durations.size)

    @property
    def points(self) -> tuple[tuple[float, TimeTrace], ...]:
        """(duration, trace) pairs, one per row of the counts matrix; kept
        only for ``bench/run.py`` and :func:`assign_targets`, until ROADMAP item 5."""
        return tuple((float(d), TimeTrace(row, self.repetitions, self.bin_width_ns))
                     for d, row in zip(self.durations, self.counts))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _median_step(t: np.ndarray) -> float:
    """``np.median(np.diff(t))``, bit for bit, without its NaN check (which
    imports ``numpy.ma``): the middle step, or the mean of the middle two."""
    d = np.sort(np.diff(t))
    m = d.size // 2
    return float(d[m] if d.size % 2 else (d[m - 1] + d[m]) / 2)


def _profile_sse(t: np.ndarray, y: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Least-squares sum of squares of offset + a*cos + b*sin at each frequency.

    The offset is projected out by centering; the sine column is then
    orthogonalized against the cosine column (Gram-Schmidt), so a column
    that vanishes (f -> 0) or aliases onto the other (Nyquist) drops out
    instead of dividing by zero.  Only the centred columns' row sums
    c.c, c.s, s.s, c.y and s.y are formed, and the projections are taken
    on those scalars, so no residual matrix is built.  The sum is a
    difference of sums, good enough to rank the grid; the fit's
    rounding-level accuracy comes from the slope root in :func:`_refine`.
    """
    yc = y - y.mean()
    arg = 2.0 * np.pi * np.outer(freqs, t)
    c = np.cos(arg)
    c -= c.mean(axis=1, keepdims=True)
    s = np.sin(arg, out=arg)
    s -= s.mean(axis=1, keepdims=True)
    tol = _RANK_TOL * t.size
    cc, cs, ss = (np.einsum("ij,ij->i", u, v) for u, v in ((c, c), (c, s), (s, s)))
    cy, sy = c @ yc, s @ yc
    k = np.divide(cs, cc, out=np.zeros_like(cc), where=cc > tol)
    ss, sy = ss - k * cs, sy - k * cy   # s := s - k c, on the sums
    sse = yc @ yc - np.divide(cy * cy, cc, out=np.zeros_like(cc), where=cc > tol)
    return sse - np.divide(sy * sy, ss, out=np.zeros_like(ss), where=ss > tol)


def _solve_at(t: np.ndarray, y: np.ndarray, f: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Offset and cos/sin amplitudes solved at frequency f, the residual
    y - fit, and the profile's slope there: by the envelope theorem,
    d(sse)/df = -4*pi * sum(r * t * (b*cos - a*sin)) at the solved (a, b)."""
    arg = 2.0 * np.pi * f * t
    design = np.column_stack([np.ones_like(t), np.cos(arg), np.sin(arg)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ coef
    _, a, b = coef
    return coef, r, -4.0 * np.pi * float(r @ (t * (b * design[:, 1] - a * design[:, 2])))


def _refine(t: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Frequency of the profile minimum in [lo, hi]: an end where the slope
    points outward, else the slope's root by regula falsi with the Illinois
    halving (an end kept twice has its slope halved).  A secant step that
    rounds onto an end stops; the least-|slope| frequency evaluated is returned."""
    g_lo, g_hi = _solve_at(t, y, lo)[2], _solve_at(t, y, hi)[2]
    if g_lo >= 0 or g_hi <= 0:
        return lo if g_lo >= 0 else hi
    best, side = min((-g_lo, lo), (g_hi, hi)), 0
    while hi - lo > _FREQ_RTOL * hi:
        f = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        if not lo < f < hi:
            break
        g = _solve_at(t, y, f)[2]
        best = min(best, (abs(g), f))
        if g < 0:
            lo, g_lo, g_hi, side = f, g, g_hi * (0.5 if side < 0 else 1.0), -1
        else:
            hi, g_hi, g_lo, side = f, g, g_lo * (0.5 if side > 0 else 1.0), 1
    return best[1]


def fit_rabi(durations, values) -> SinusoidFit:
    """Least-squares sinusoid fit of a per-duration series.

    Parameters
    ----------
    durations, values : sequences of float
        At least 8 finite points with strictly increasing durations; the
        durations must span at least one period of the fitted oscillation.

    Raises
    ------
    FitFailureError
        On too few points, non-finite or constant values, durations that
        are not strictly increasing, a span above 16 (points - 1) median
        steps or below one fitted period, durations so small that the
        fitted frequency times 2 pi overflows, or no credible oscillation
        (fitted amplitude below 3x the residual rms).
    """
    t = np.asarray(durations, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ParameterError("durations and values must be equal-length 1-d sequences")
    if t.size < _MIN_POINTS:
        raise FitFailureError(f"need at least {_MIN_POINTS} points, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise FitFailureError("durations and values must be finite")
    if np.any(np.diff(t) <= 0):
        raise FitFailureError("durations must be strictly increasing "
                              "and span nonzero time")
    if np.all(y == y[0]):
        raise FitFailureError("values are constant: no oscillation to fit")

    # fitted at the power-of-two scales that put the largest duration and the
    # largest value magnitude in [0.5, 1): exact, so the fit is equivariant in
    # either scale, and no difference or sum of the fit underflows or overflows
    e_t, e_y = (int(np.frexp(np.abs(x).max())[1]) for x in (t, y))
    t, y = np.ldexp(t, -e_t), np.ldexp(y, -e_y)
    dt = _median_step(t)
    span = t[-1] - t[0]
    ratio = span / dt / (t.size - 1)
    if not ratio <= _MAX_SPAN_STEPS:
        raise FitFailureError(f"durations span {ratio:.4g} times (points - 1) median "
                              f"steps; need <= {_MAX_SPAN_STEPS}")
    try:
        with np.errstate(over="raise", invalid="raise"):    # an overflow fails the fit
            spectrum = np.abs(np.fft.rfft(y - y.mean(), 4 * t.size))   # padded periodogram
            f_dom = float(np.fft.rfftfreq(4 * t.size, dt)[1 + int(np.argmax(spectrum[1:]))])
            if f_dom <= 0:
                raise FitFailureError("no dominant oscillation frequency found")

            f_lo = _FREQ_GRID_SPAN[0] * f_dom
            f_hi = min(_FREQ_GRID_SPAN[1] * f_dom, 0.5 / dt)
            n_grid = int(np.ceil((f_hi - f_lo) * _GRID_STEPS_PER_BASIN * span)) + 1
            grid = np.linspace(f_lo, f_hi, n_grid)
            blocks = np.array_split(grid, max(1, grid.size * t.size // _GRID_BLOCK))
            k = int(np.argmin(np.concatenate([_profile_sse(t, y, b) for b in blocks])))
            f = _refine(t, y, grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])

            (offset, a, b), r, _ = _solve_at(t, y, f)
            amplitude = float(np.hypot(a, b))
            # -tiny % 2pi == 2pi, which the second % maps to 0
            phase = float(np.arctan2(-b, a) % (2.0 * np.pi) % (2.0 * np.pi))
            rms = float(np.sqrt(r @ r / t.size))
            credible = amplitude >= _AMPLITUDE_SNR * rms
            offset, amplitude, rms = (float(np.ldexp(x, e_y)) for x in (offset, amplitude, rms))
            frequency = float(np.ldexp(f, -e_t))    # overflows if the durations are tiny
    except FloatingPointError as exc:
        raise FitFailureError(f"fit out of floating-point range: {exc}") from None

    if 2.0 * np.pi * frequency == np.inf:      # the curve's phase would be nan
        raise FitFailureError(f"fit out of floating-point range: frequency {frequency:.4g}"
                              "/ns times 2 pi overflows")
    span_periods = span * f
    if span_periods < 1.0:
        raise FitFailureError(
            f"data span covers {span_periods:.3f} fitted periods; need >= 1")
    if not credible:
        raise FitFailureError(
            f"no credible oscillation: amplitude {amplitude:.4g} < "
            f"{_AMPLITUDE_SNR} * residual rms {rms:.4g}")
    return SinusoidFit(offset, amplitude, frequency, phase, rms)


def fit_count_sums(dataset: RabiDataset) -> tuple[np.ndarray, SinusoidFit]:
    """Per-measurement count sums of each row (float64: int64 can wrap) and their fit."""
    sums = dataset.counts.sum(axis=1, dtype=float) / dataset.repetitions
    return sums, fit_rabi(dataset.durations, sums)


def assign_targets(dataset: RabiDataset, fit: SinusoidFit) -> list[TrainingExample]:
    """Each point's trace with its target, ``fit.normalized`` at its duration;
    kept only for ``bench/run.py``'s solver diagnostics, until ROADMAP item 5."""
    return [TrainingExample(trace, float(qk))
            for (_, trace), qk in zip(dataset.points, fit.normalized(dataset.durations))]


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _check_scan(points, n_bins, period_ns, span_ns,
                names=("points", "period_ns", "span_ns")) -> None:
    """Reject a points count that is not an integer >= 2 (by the rule of
    :func:`_repetition_count`) or whose points x bins matrix numpy cannot index,
    a period or span not finite and positive, a step that repeats a duration or
    an inf phase."""
    points = _repetition_count(points, names[0])
    if points < 2:
        raise ParameterError(f"{names[0]} must be >= 2, got {points}")
    if points * n_bins > np.iinfo(np.intp).max:
        raise ParameterError(f"{names[0]} times {n_bins} bins exceeds numpy's index range, "
                             f"got {points}")
    for name, value in zip(names[1:], (period_ns, span_ns)):
        _check_positive(value, name)
    step = span_ns / (points - 1)
    if not step > 0:
        raise ParameterError(f"{names[2]} / ({names[0]} - 1) underflows to 0, got {span_ns!r}")
    if not (points - 2) * step < span_ns:   # linspace's last two durations
        raise ParameterError(f"{names[2]} / ({names[0]} - 1) rounds to a step that repeats "
                             f"a duration, got {span_ns!r} / {points - 1}")
    if not 2.0 * np.pi * float(span_ns) / float(period_ns) < np.inf:  # as the truth computes it
        raise ParameterError(f"2 pi {names[2]} / {names[1]} overflows, got "
                             f"{span_ns!r} / {period_ns!r}")


def simulate_rabi_dataset(profile0: EmissionProfile, profile1: EmissionProfile,
                          repetitions: int, seed: int, points: int = 60,
                          period_ns: float = 200.0, span_ns: float = 600.0,
                          ) -> tuple[RabiDataset, np.ndarray]:
    """Simulate an oscillation dataset plus its ground-truth populations.

    Point k sits at duration k * span/(points-1) with population
    0.5 + 0.5*cos(2*pi*duration/period) and is drawn with seed ``seed + k``.
    ``period_ns`` and ``span_ns`` must be finite and positive.

    Returns
    -------
    (dataset, truth)
        The dataset and the true population of every point.
    """
    _check_scan(points, len(profile0), period_ns, span_ns)
    durations = np.linspace(0.0, span_ns, points)
    truth = 0.5 + 0.5 * np.cos(2.0 * np.pi * durations / period_ns)
    _check_pair(profile0, profile1)
    for profile in (profile0, profile1):     # every mix draws fewer photons than one
        _check_repetitions(repetitions, profile)
    # mixed one row at a time, with mix_profile's arithmetic: a whole-matrix
    # mix would double the peak
    rows = (p * profile0.rates + (1.0 - p) * profile1.rates for p in truth)
    counts = _draw(rows, (points, len(profile0)), repetitions, seed)
    dataset = RabiDataset(durations, counts, int(repetitions), profile0.bin_width_ns)
    return dataset, truth

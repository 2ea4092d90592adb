"""Oscillation datasets: sinusoid fitting and target assignment.

A Rabi dataset is one counts matrix with a row per pulse duration.  The
population oscillates sinusoidally with pulse duration, which gives a
free source of regression targets: fit

    q(t) = offset + amplitude * cos(2*pi*frequency*t + phase)

to any per-duration population series (the fit is invariant to affine
processing of the series, so even raw per-measurement count sums work),
then rescale the fitted curve so its extrema map to 1 and 0.  Points
nearest the fitted extrema get exactly 1 and 0 (:func:`assign_targets`
pairs each with its trace in a :class:`TrainingExample`).

Sinusoid fitting is multimodal in frequency, but frequency is its only
nonlinear parameter: at a fixed frequency the offset and the cos/sin
amplitudes follow from a linear least-squares solve.  The fit therefore
profiles the sum of squares over one frequency grid around the dominant
periodogram frequency (variable projection), refines the best grid
point (the lowest frequency among ties) by golden-section search between
its grid neighbours and reads offset, amplitude and phase from the linear
solve there.  The grid stops at the Nyquist
frequency of the median sampling step, above which aliases fit equally
well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitFailureError, ParameterError, ShapeError
from .traces import (EmissionProfile, TimeTrace, _checked_counts, mix_profile,
                     simulate_trace)

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
_RANK_TOL = 1e-10               # squared column norm / points below which a
                                # cos/sin column counts as rank-deficient
_FREQ_RTOL = 1e-12              # golden-section stopping width, relative
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

    def normalized(self, t):
        """Fitted curve rescaled so its extrema map to exactly 1 and 0."""
        if self.amplitude == 0:
            raise FitFailureError("cannot normalize a flat fit")
        return (np.asarray(self.value(t)) - (self.offset - self.amplitude)) / \
            (2.0 * self.amplitude)

    def extremum_times(self, t_min: float, t_max: float,
                       kind: str) -> np.ndarray:
        """Times of fitted peaks ('peak') or troughs ('trough') in [t_min, t_max]."""
        target = 0.0 if kind == "peak" else np.pi
        w = 2.0 * np.pi * self.frequency
        k_lo = int(np.floor((w * t_min + self.phase - target) / (2.0 * np.pi))) - 1
        k_hi = int(np.ceil((w * t_max + self.phase - target) / (2.0 * np.pi))) + 1
        ks = np.arange(k_lo, k_hi + 1)
        times = (target - self.phase + 2.0 * np.pi * ks) / w
        return times[(times >= t_min) & (times <= t_max)]


@dataclass(frozen=True)
class TrainingExample:
    """A trace with its target population in [0, 1]."""

    trace: TimeTrace
    target: float

    def __post_init__(self):
        if not (0.0 <= self.target <= 1.0):
            raise DomainError(f"target must be in [0, 1], got {self.target}")


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
        durations = np.array(self.durations, dtype=float)
        if durations.ndim != 1 or durations.size < 1:
            raise ParameterError("dataset needs at least one point")
        if not np.all(np.isfinite(durations)) or np.any(np.diff(durations) <= 0):
            raise ParameterError("durations must be finite and strictly increasing")
        counts = _checked_counts(self.counts, 2, self.repetitions, self.bin_width_ns)
        if len(counts) != durations.size:
            raise ShapeError(f"{len(counts)} count rows for {durations.size} durations")
        durations.setflags(write=False)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "repetitions", int(self.repetitions))

    def __len__(self) -> int:
        return int(self.durations.size)

    @property
    def points(self) -> tuple[tuple[float, TimeTrace], ...]:
        """(duration, trace) pairs, one per row of the counts matrix."""
        return tuple((float(d), TimeTrace(row, self.repetitions, self.bin_width_ns))
                     for d, row in zip(self.durations, self.counts))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _dominant_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Dominant nonzero frequency of the series from a padded periodogram."""
    dt = float(np.median(np.diff(t)))
    n = len(t)
    spectrum = np.abs(np.fft.rfft(y - y.mean(), 4 * n))
    freqs = np.fft.rfftfreq(4 * n, dt)
    return float(freqs[1 + int(np.argmax(spectrum[1:]))])


def _profile_sse(t: np.ndarray, y: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Least-squares sum of squares of offset + a*cos + b*sin at each frequency.

    The offset is projected out by centering; the sine column is then
    orthogonalized against the cosine column (Gram-Schmidt), so a column
    that vanishes (f -> 0) or aliases onto the other (Nyquist) drops out
    instead of dividing by zero.  The sum is taken over the residual
    vector itself, not as a difference of sums, so it stays accurate down
    to a noiseless fit.
    """
    yc = y - y.mean()
    arg = 2.0 * np.pi * np.outer(freqs, t)
    c = np.cos(arg)
    c -= c.mean(axis=1, keepdims=True)
    s = np.sin(arg)
    s -= s.mean(axis=1, keepdims=True)
    tol = _RANK_TOL * t.size

    def along(dots, basis):
        norm2 = np.einsum("ij,ij->i", basis, basis)
        coef = np.divide(dots, norm2, out=np.zeros_like(norm2), where=norm2 > tol)
        return coef[:, None] * basis

    s -= along(np.einsum("ij,ij->i", c, s), c)
    r = yc - along(c @ yc, c) - along(s @ yc, s)
    return np.einsum("ij,ij->i", r, r)


def _golden_minimum(t: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Frequency of the profile minimum inside [lo, hi], by golden section."""
    def sse(f):
        return float(_profile_sse(t, y, np.array([f]))[0])

    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = sse(c), sse(d)
    while b - a > _FREQ_RTOL * b:
        if fc <= fd:                          # ties keep the lower frequency
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = sse(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = sse(d)
    return c if fc <= fd else d


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
        On too few points, non-finite values, durations that are not
        strictly increasing, a span below one fitted period, or no
        credible oscillation (fitted amplitude below 3x the residual rms).
    """
    t = np.asarray(durations, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ShapeError("durations and values must be equal-length 1-d sequences")
    if t.size < _MIN_POINTS:
        raise FitFailureError(f"need at least {_MIN_POINTS} points, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise FitFailureError("durations and values must be finite")
    if np.any(np.diff(t) <= 0):
        raise FitFailureError("durations must be strictly increasing "
                              "and span nonzero time")

    f_dom = _dominant_frequency(t, y)
    if f_dom <= 0:
        raise FitFailureError("no dominant oscillation frequency found")

    span = t[-1] - t[0]
    f_lo = _FREQ_GRID_SPAN[0] * f_dom
    f_hi = min(_FREQ_GRID_SPAN[1] * f_dom, 0.5 / float(np.median(np.diff(t))))
    n_grid = int(np.ceil((f_hi - f_lo) * _GRID_STEPS_PER_BASIN * span)) + 1
    grid = np.linspace(f_lo, f_hi, n_grid)
    blocks = np.array_split(grid, max(1, grid.size * t.size // _GRID_BLOCK))
    k = int(np.argmin(np.concatenate([_profile_sse(t, y, b) for b in blocks])))
    f = _golden_minimum(t, y, grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])

    arg = 2.0 * np.pi * f * t
    design = np.column_stack([np.ones_like(t), np.cos(arg), np.sin(arg)])
    (offset, a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
    r = design @ (offset, a, b) - y
    amplitude = float(np.hypot(a, b))
    phase = float(np.arctan2(-b, a) % (2.0 * np.pi))
    rms = float(np.sqrt(r @ r / t.size))

    span_periods = span * f
    if span_periods < 1.0:
        raise FitFailureError(
            f"data span covers {span_periods:.3f} fitted periods; need >= 1")
    if amplitude < _AMPLITUDE_SNR * rms:
        raise FitFailureError(
            f"no credible oscillation: amplitude {amplitude:.4g} < "
            f"{_AMPLITUDE_SNR} * residual rms {rms:.4g}")
    return SinusoidFit(float(offset), amplitude, float(f), phase, rms)


def _targets(t: np.ndarray, fit: SinusoidFit) -> np.ndarray:
    """Targets at durations ``t``, as :func:`assign_targets` describes."""
    q = np.clip(fit.normalized(t), 0.0, 1.0)
    for kind, value in (("peak", 1.0), ("trough", 0.0)):
        for te in fit.extremum_times(float(t[0]), float(t[-1]), kind):
            q[int(np.argmin(np.abs(t - te)))] = value
    return q


def assign_targets(dataset: RabiDataset, fit: SinusoidFit) -> list[TrainingExample]:
    """Per-point regression targets from a fitted oscillation.

    Every target is the fitted curve rescaled to [0, 1] (extrema map to
    1 and 0) and clipped; the dataset point nearest each fitted peak gets
    exactly 1 and nearest each fitted trough exactly 0.
    """
    return [TrainingExample(trace, float(qk))
            for (_, trace), qk in zip(dataset.points, _targets(dataset.durations, fit))]


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

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
    if points < 2:
        raise ParameterError("points must be >= 2")
    for name, value in (("period_ns", period_ns), ("span_ns", span_ns)):
        if not (np.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and positive, got {value!r}")
    durations = np.linspace(0.0, span_ns, points)
    truth = 0.5 + 0.5 * np.cos(2.0 * np.pi * durations / period_ns)
    counts = [simulate_trace(mix_profile(float(p), profile0, profile1),
                             repetitions, seed + k).counts
              for k, p in enumerate(truth)]
    dataset = RabiDataset(durations, counts, int(repetitions), profile0.bin_width_ns)
    return dataset, truth

"""Photon time traces and the Poisson trace simulator.

A *trace* is the histogram of photon arrival times accumulated over many
repeated measurements of the same prepared state, binned on a fixed grid
(2 ns by default).  An *emission profile* is the corresponding noiseless
quantity: expected photons per bin for a single measurement.

Profiles for the two reference states are generated from a small
phenomenological model

    rate_bright(t) = steady * (1 + bright_boost * exp(-t / tau_bright))
    rate_dark(t)   = steady * (1 - dark_dip * s(t) * exp(-t / tau_isc))

where ``s(t) = 1 - exp(-t / tau_onset)`` describes how quickly the
shelving-induced fluorescence deficit of the dark state develops
(``tau_onset = 0`` switches the factor off and both transients start at
t = 0).  The bright state fluoresces more in the first few hundred
nanoseconds and both profiles converge to the same steady level.  Bin
rates use the midpoint rule: rate(t_center) * bin_width.

Counts are Poisson: with R repetitions, bin i of a simulated trace is an
independent draw from Poisson(R * rate_i).  Simulation uses the
counter-based Philox generator keyed by an explicit seed, so batches of
traces with distinct seeds are reproducible in any execution order.  Row k
of a scan is the stream keyed by seed + k (mod 2^64): one generator per
scan is re-keyed before each row to the state a new ``Philox(key=seed + k)``
starts in, so it draws what a new generator per row would.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError

__all__ = [
    "TimeTrace",
    "EmissionProfile",
    "PhotodynamicsParams",
    "paper_like_params",
    "make_profiles",
    "mix_profile",
    "simulate_trace",
    "expected_trace",
    "differential",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _owned(a, dtype) -> np.ndarray:
    """A read-only ``dtype`` array that no array a caller can write shares.

    That is ``a`` itself when it is a read-only ``dtype`` ndarray whose
    ``base`` is None or a read-only ndarray: code that makes a fresh array
    seals it, so that it is handed over uncopied.  Any other ``a`` becomes a
    read-only ``dtype`` copy.
    """
    if not (type(a) is np.ndarray and a.dtype == dtype and not a.flags.writeable
            and (a.base is None or (type(a.base) is np.ndarray
                                    and not a.base.flags.writeable))):
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


def _check_positive(value, name: str) -> None:
    """Reject ``value`` unless it is a finite number above 0."""
    if not (0 < value < np.inf):
        raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def _repetition_count(repetitions) -> int:
    """``repetitions`` as an int, if it is an integer (Python or numpy) >= 1."""
    if not (isinstance(repetitions, (int, np.integer)) and repetitions >= 1):
        raise ParameterError("repetitions must be an integer >= 1")
    return int(repetitions)


def _checked_floats(values, name: str) -> np.ndarray:
    """Read-only float64 array of non-empty, 1-d, finite, nonnegative values,
    through :func:`_owned`; the error for a bad value names its first row."""
    a = _owned(values, np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ParameterError(f"{name} must be a non-empty 1-d sequence")
    bad = ~np.isfinite(a) | (a < 0)
    if bad.any():
        k = int(np.argmax(bad))
        rule = "nonnegative" if np.isfinite(a[k]) else "finite"
        raise ParameterError(f"{name} must be {rule}", row=k)
    return a


def _checked_counts(counts, ndim: int, bin_width_ns) -> np.ndarray:
    """Read-only int64 array of non-empty, nonnegative integer counts, taken at
    a finite positive bin width.  The input's own dtype must be an integer one,
    or a float one holding whole numbers; only then does it become int64
    through :func:`_owned`, which keeps a sealed int64 array (the simulator's
    draws, a reader's parsed rows) and copies any other."""
    raw = np.asarray(counts)
    if raw.ndim != ndim or raw.size < 1:
        raise ParameterError(f"counts must be a non-empty {ndim}-d array")
    if raw.dtype.kind not in "iu" and not (
            raw.dtype.kind == "f" and np.all(raw == np.floor(raw))):
        raise ParameterError("counts must be integers")
    counts = _owned(raw, np.int64)
    if counts.min() < 0:
        k = int(np.argmax(counts.reshape(len(counts), -1).min(axis=1) < 0))
        raise ParameterError(f"counts {counts[k].min()} is negative", row=k)
    _check_positive(bin_width_ns, "bin_width_ns")
    return counts


def _check_header_text(text, name: str) -> None:
    """Reject ``text`` unless it is one line without leading or trailing
    whitespace: a table file's header value, which reads back stripped."""
    if not (isinstance(text, str) and text == text.strip() and len(text.splitlines()) <= 1):
        raise ParameterError(f"{name} must be one line of text without leading or "
                             "trailing whitespace")


def _check_pair(a, b) -> None:
    """Reject two traces or profiles that differ in length or bin width."""
    if len(a) != len(b) or a.bin_width_ns != b.bin_width_ns:
        raise ParameterError(f"pair differs in length ({len(a)} vs {len(b)} bins) or "
                             f"bin width ({a.bin_width_ns} vs {b.bin_width_ns} ns)")


@dataclass(frozen=True, eq=False)
class TimeTrace:
    """Binned photon counts for one experimental condition.

    ``counts[i]`` is the number of photons registered in bin i summed over
    all ``repetitions`` measurements.
    """

    counts: np.ndarray              # nonnegative integers, length >= 1
    repetitions: int
    bin_width_ns: float = 2.0
    label: str | None = None
    seed: int | None = None         # RNG seed when simulated, for provenance

    def __post_init__(self):
        object.__setattr__(self, "counts", _checked_counts(self.counts, 1, self.bin_width_ns))
        object.__setattr__(self, "repetitions", _repetition_count(self.repetitions))
        if self.label is not None:
            _check_header_text(self.label, "label")

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def rates(self) -> np.ndarray:
        """Counts per bin per single measurement."""
        return self.counts / self.repetitions


@dataclass(frozen=True, eq=False)
class EmissionProfile:
    """Expected photons per bin for a single measurement of a pure state."""

    rates: np.ndarray               # nonnegative reals
    bin_width_ns: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "rates", _checked_floats(self.rates, "rates"))
        _check_positive(self.bin_width_ns, "bin_width_ns")

    def __len__(self) -> int:
        return int(self.rates.size)

    @property
    def photons_per_measurement(self) -> float:
        return float(self.rates.sum())


@dataclass(frozen=True)
class PhotodynamicsParams:
    """Parameters of the phenomenological two-state emission model."""

    steady_rate: float              # photons/ns per measurement, steady state
    bright_boost: float             # initial fractional excess of the bright state
    dark_dip: float                 # fractional deficit of the dark state, in [0, 1)
    tau_bright_ns: float            # decay constant of the bright transient
    tau_isc_ns: float = 250.0       # recovery constant of the dark transient
    tau_onset_ns: float = 0.0       # development time of the dark deficit; 0 = instant
    trace_length_ns: float = 1000.0
    bin_width_ns: float = 2.0

    def __post_init__(self):
        for field in fields(self):
            if not np.isfinite(getattr(self, field.name)):
                raise ParameterError(f"{field.name} must be finite")
        positive = ("steady_rate", "tau_bright_ns", "tau_isc_ns",
                    "trace_length_ns", "bin_width_ns")
        for name in positive:
            if not (getattr(self, name) > 0):
                raise ParameterError(f"{name} must be positive")
        if not (0.0 <= self.dark_dip < 1.0):
            raise ParameterError("dark_dip must be in [0, 1)")
        if self.bright_boost < 0:
            raise ParameterError("bright_boost must be nonnegative")
        if self.tau_onset_ns < 0:
            raise ParameterError("tau_onset_ns must be nonnegative")
        if self.bin_width_ns > self.trace_length_ns:
            raise ParameterError("bin_width_ns must not exceed trace_length_ns")
        if not (self.trace_length_ns / self.bin_width_ns <= np.iinfo(np.intp).max):
            raise ParameterError("trace_length_ns / bin_width_ns exceeds numpy's index range")

    @property
    def n_bins(self) -> int:
        return int(round(self.trace_length_ns / self.bin_width_ns))


def paper_like_params() -> PhotodynamicsParams:
    """Default calibration of the simulator.

    Constants were tuned by ``scripts/calibrate_preset.py`` so that on the
    noiseless profiles
      * mean photons per measurement (average of both states) is 0.020,
      * the gated contrast at its best window is 0.30 (window ~184 ns),
      * the swept contrast and total variance have interior optima with the
        contrast optimum at a shorter window than the variance optimum
        (184 ns vs 460 ns),
      * total variance at the max-contrast window is ~1.62x its minimum.
    """
    return PhotodynamicsParams(
        steady_rate=2.1215e-05,
        bright_boost=0.37,
        dark_dip=0.90,
        tau_bright_ns=50.0,
        tau_isc_ns=250.0,
        tau_onset_ns=160.0,
        trace_length_ns=1000.0,
        bin_width_ns=2.0,
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def make_profiles(params: PhotodynamicsParams) -> tuple[EmissionProfile, EmissionProfile]:
    """Build the (bright, dark) emission profiles for the model parameters.

    Returns
    -------
    (profile_bright, profile_dark)
        Per-bin expected photons per measurement.  ``profile_bright`` bin
        rates are >= ``profile_dark`` rates everywhere, and both converge
        to ``steady_rate * bin_width`` at late times.
    """
    t = (np.arange(params.n_bins) + 0.5) * params.bin_width_ns  # bin centers
    bright = 1.0 + params.bright_boost * np.exp(-t / params.tau_bright_ns)
    if params.tau_onset_ns > 0:
        onset = 1.0 - np.exp(-t / params.tau_onset_ns)
    else:
        onset = 1.0
    dark = 1.0 - params.dark_dip * onset * np.exp(-t / params.tau_isc_ns)
    scale = params.steady_rate * params.bin_width_ns
    return (
        EmissionProfile(scale * bright, params.bin_width_ns),
        EmissionProfile(scale * dark, params.bin_width_ns),
    )


def mix_profile(population: float, profile0: EmissionProfile,
                profile1: EmissionProfile) -> EmissionProfile:
    """Profile of a superposition: population * bright + (1 - population) * dark."""
    if not (0.0 <= population <= 1.0):
        raise ParameterError(f"population must be in [0, 1], got {population}")
    _check_pair(profile0, profile1)
    rates = population * profile0.rates + (1.0 - population) * profile1.rates
    return EmissionProfile(rates, profile0.bin_width_ns)


def _check_repetitions(repetitions, profile: EmissionProfile,
                       name: str = "repetitions") -> None:
    # at most 2^53 expected photons per trace keeps counts and their sums exact
    if not (1 <= repetitions and repetitions * float(profile.rates.sum()) <= 2.0**53
            and repetitions % 1 == 0):
        raise ParameterError(f"{name} must be a whole number >= 1 and draw at most "
                             f"2^53 expected photons per trace, got {repetitions!r}")


def _draw(rows, shape, repetitions, seed: int) -> np.ndarray:
    """Read-only int64 Poisson counts of ``shape``, filled one row of
    ``shape[-1]`` bins at a time: row k has means ``repetitions * rates`` for
    the k-th ``rates`` of the iterable ``rows``, drawn from the Philox stream
    keyed by ``seed + k`` (mod 2^64).  The caller has checked the repetitions.

    Philox is counter-based: its stream is a function of its key, read from
    counter 0.  One generator is made and, before each row, set to the
    state a fresh ``Philox(key=seed + k)`` starts in (counter 0, no buffered
    output); each row is the draw of that fresh generator, without the
    per-row construction (which also seeds an unused ``SeedSequence``).
    """
    bits = np.random.Philox(key=0)
    fresh = bits.state              # counter 0, empty buffer; the key is set per row
    rng = np.random.Generator(bits)
    counts = np.empty(shape, dtype=np.int64)
    for key, (row, rates) in enumerate(zip(counts.reshape(-1, shape[-1]), rows), int(seed)):
        fresh["state"]["key"][0] = key & (2**64 - 1)
        bits.state = fresh
        row[:] = rng.poisson(repetitions * rates)
    counts.setflags(write=False)
    return counts


def simulate_trace(profile: EmissionProfile, repetitions: int, seed: int,
                   label: str | None = None) -> TimeTrace:
    """Draw one Poisson trace from a profile.

    Bin i is an independent Poisson draw with mean
    ``repetitions * profile.rates[i]``.  The Philox counter-based generator
    keyed by ``seed`` makes the draw a pure function of
    (profile, repetitions, seed).
    """
    _check_repetitions(repetitions, profile)
    counts = _draw([profile.rates], (len(profile),), repetitions, seed)
    return TimeTrace(counts, repetitions=int(repetitions),
                     bin_width_ns=profile.bin_width_ns, label=label, seed=int(seed))


def expected_trace(profile: EmissionProfile, repetitions: int,
                   label: str | None = None) -> TimeTrace:
    """Noiseless counterpart of :func:`simulate_trace`: counts = round(R * rate)."""
    _check_repetitions(repetitions, profile)
    counts = np.rint(repetitions * profile.rates).astype(np.int64)
    counts.setflags(write=False)
    return TimeTrace(counts, repetitions=int(repetitions),
                     bin_width_ns=profile.bin_width_ns, label=label)


def differential(trace0: TimeTrace, trace1: TimeTrace) -> np.ndarray:
    """Per-measurement differential signal (trace0 - trace1) / repetitions.

    Both traces must share length and bin width.  Traces taken with
    different repetition counts are compared per measurement.
    """
    _check_pair(trace0, trace1)
    return trace0.counts / trace0.repetitions - trace1.counts / trace1.repetitions

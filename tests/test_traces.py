"""Trace types, profile model and Poisson simulator."""

from dataclasses import fields

import numpy as np
import pytest

from nvreadout import (EmissionProfile, ParameterError, PhotodynamicsParams,
                       RabiDataset, ReadoutModel, SweepResult, TimeTrace,
                       expected_trace, make_profiles, mix_profile, paper_like_params,
                       simulate_rabi_dataset, simulate_trace)
from nvreadout import io as nvio
from nvreadout.traces import _draw


def flat_params(**overrides):
    base = dict(steady_rate=2e-5, bright_boost=0.0, dark_dip=0.0,
                tau_bright_ns=50.0, tau_isc_ns=250.0, tau_onset_ns=0.0,
                trace_length_ns=1000.0, bin_width_ns=2.0)
    base.update(overrides)
    return PhotodynamicsParams(**base)


class TestTypes:
    def test_trace_validation(self):
        with pytest.raises(ParameterError):
            TimeTrace(np.array([]), repetitions=1)
        with pytest.raises(ParameterError):
            TimeTrace(np.array([1, -2]), repetitions=1)
        with pytest.raises(ParameterError):
            TimeTrace(np.array([1.5]), repetitions=1)
        with pytest.raises(ParameterError):
            TimeTrace(np.array([1]), repetitions=0)
        with pytest.raises(ParameterError, match="repetitions must be an integer >= 1"):
            TimeTrace(np.array([1]), repetitions=True)
        with pytest.raises(ParameterError):
            TimeTrace(np.array([1]), repetitions=1, bin_width_ns=0)

    def test_negative_count_names_its_first_row(self):
        with pytest.raises(ParameterError, match=r"^counts -3 is negative$") as err:
            TimeTrace(np.array([4, 0, -3, 5, -7]), repetitions=10)
        assert err.value.row == 2

    @pytest.mark.parametrize("label", ["a\nb", "a\r\nb", "a\u2028b", " padded ", "end\n"],
                             ids=["line-feed", "crlf", "line-separator", "padded",
                                  "trailing-newline"])
    def test_label_must_read_back_as_written(self, label):
        # a label is one header line of a trace file, and the reader strips it
        with pytest.raises(ParameterError, match="label"):
            TimeTrace(np.array([1]), repetitions=1, label=label)
        assert TimeTrace(np.array([1]), repetitions=1, label="bright 1").label == "bright 1"

    def test_trace_immutable(self):
        tr = TimeTrace(np.array([1, 2]), repetitions=3)
        with pytest.raises(ValueError):
            tr.counts[0] = 5

    @pytest.mark.parametrize("shared", ["writable", "read-only-view-of-writable"])
    def test_counts_a_caller_can_write_are_copied(self, shared):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
        given = counts
        if shared == "read-only-view-of-writable":
            given = counts[:]
            given.setflags(write=False)
        trace = TimeTrace(given[0], repetitions=3)
        dataset = RabiDataset([0.0, 1.0], given, repetitions=3)
        counts[0, 0] = 99                   # the caller can still write here
        assert trace.counts[0] == 1 and dataset.counts[0, 0] == 1

    def test_read_only_counts_no_writable_array_shares_are_kept(self):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
        counts.setflags(write=False)
        row = counts[1]                     # a read-only view of a read-only array
        assert RabiDataset([0.0, 1.0], counts, repetitions=3).counts is counts
        assert TimeTrace(row, repetitions=3).counts is row

    @pytest.mark.parametrize("make", ["simulate_trace", "expected_trace",
                                      "simulate_rabi_dataset", "read_rabi_csv"])
    def test_counts_are_read_only(self, make, tmp_path):
        p0, p1 = make_profiles(paper_like_params())
        if make == "simulate_trace":
            counts = simulate_trace(p0, 10**5, seed=41).counts
        elif make == "expected_trace":
            counts = expected_trace(p0, 10**5).counts
        else:
            dataset, _ = simulate_rabi_dataset(p0, p1, 10**5, seed=41, points=8)
            if make == "read_rabi_csv":
                nvio.write_rabi_csv(tmp_path / "rabi.csv", dataset)
                dataset = nvio.read_rabi_csv(tmp_path / "rabi.csv")
            counts = dataset.counts
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 5
        # nor can any array that shares the counts be written
        assert counts.base is None or not counts.base.flags.writeable

    def test_profile_rates_a_caller_can_write_are_copied(self):
        # the counts' rule: a caller's float64 array is neither frozen nor shared
        rates, base = np.ones(5), np.ones(5)
        profile, of_view = EmissionProfile(rates), EmissionProfile(base[:])
        rates[0] = 2.0                      # the caller can still write here
        base[0] = 7.0
        assert profile.rates[0] == 1.0 and of_view.rates[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            profile.rates[0] = 3.0
        sealed = np.ones(5)
        sealed.setflags(write=False)        # no writable array shares it: kept
        assert EmissionProfile(sealed).rates is sealed

    def test_profile_validation(self):
        with pytest.raises(ParameterError):
            EmissionProfile(np.array([-1.0]))
        with pytest.raises(ParameterError):
            EmissionProfile(np.array([np.nan]))

    @pytest.mark.parametrize("rate, match", [(-1.0, "nonnegative"), (np.nan, "finite"),
                                             (np.inf, "finite")])
    def test_bad_profile_rate_names_its_first_row(self, rate, match):
        # the weights' rule, from the same check
        with pytest.raises(ParameterError, match=f"^rates must be {match}$") as err:
            EmissionProfile(np.array([0.5, 0.0, rate, rate]))
        assert err.value.row == 2

    @pytest.mark.parametrize("width", [0.0, -2.0, np.inf, np.nan],
                             ids=["zero", "negative", "inf", "nan"])
    @pytest.mark.parametrize("make", [
        lambda w: TimeTrace(np.array([1, 2]), repetitions=3, bin_width_ns=w),
        lambda w: RabiDataset([0.0, 1.0], np.array([[1, 2], [3, 4]]), 3, w),
        lambda w: EmissionProfile(np.array([0.5, 0.25]), w),
        lambda w: ReadoutModel(np.ones(2), 0.0, w),
        lambda w: SweepResult(w, 3, [5.0, 9.0], [1.0, 2.0]),
    ], ids=["TimeTrace", "RabiDataset", "EmissionProfile", "ReadoutModel", "SweepResult"])
    def test_bin_width_must_be_finite_and_positive(self, make, width):
        # an inf width was once kept, and written to a file its reader rejects
        with pytest.raises(ParameterError,
                           match=rf"bin_width_ns must be finite and positive, got {width!r}$"):
            make(width)

    def test_params_validation_names_field(self):
        with pytest.raises(ParameterError, match="dark_dip"):
            flat_params(dark_dip=1.0)
        with pytest.raises(ParameterError, match="steady_rate"):
            flat_params(steady_rate=0.0)
        with pytest.raises(ParameterError, match="bright_boost"):
            flat_params(bright_boost=-0.1)
        with pytest.raises(ParameterError, match="tau_bright_ns"):
            flat_params(tau_bright_ns=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [f.name for f in fields(PhotodynamicsParams)])
    def test_params_must_be_finite(self, field, value):
        # nan passes every comparison-based check as False; inf passes "> 0"
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            flat_params(**{field: value})

    def test_bin_count_must_be_indexable(self):
        # rejected before make_profiles would allocate; no value that would
        # allocate is tried
        with pytest.raises(ParameterError, match="numpy's index range"):
            flat_params(trace_length_ns=1e300)
        with pytest.raises(ParameterError, match="numpy's index range"):
            flat_params(trace_length_ns=1e300, bin_width_ns=1e-300)  # the ratio is inf


class TestMakeProfiles:
    def test_no_transients_gives_flat_identical_profiles(self):
        p0, p1 = make_profiles(flat_params())
        expected = 2e-5 * 2.0
        assert np.allclose(p0.rates, expected, rtol=0, atol=1e-18)
        assert np.array_equal(p0.rates, p1.rates)

    def test_bright_never_below_dark(self):
        p0, p1 = make_profiles(paper_like_params())
        assert np.all(p0.rates >= p1.rates)

    def test_profiles_converge_at_late_times(self):
        # exponential tails: ratio -> 1 once both transients have decayed
        params = flat_params(bright_boost=0.37, dark_dip=0.9, tau_onset_ns=160.0,
                             trace_length_ns=4000.0)
        p0, p1 = make_profiles(params)
        t = (np.arange(len(p0)) + 0.5) * 2.0
        tail = t > 14 * max(params.tau_bright_ns, params.tau_isc_ns)
        assert tail.any()
        ratio = p0.rates[tail] / p1.rates[tail]
        assert np.all(np.abs(ratio - 1) < 1e-6)

    def test_default_calibration_anchors(self):
        # the targets the preset was tuned to, on the noiseless cumulative
        # rates: T1 0.020 photons per measurement; T2 C = 0.30 at the max-C
        # gate; T3 interior optima, max-C at 184 ns before min-V at 460 ns;
        # T4 V(max-C) / V(min-V) = 1.62
        params = paper_like_params()
        p0, p1 = make_profiles(params)
        mean = 0.5 * (p0.photons_per_measurement + p1.photons_per_measurement)
        assert mean == pytest.approx(0.020, abs=2e-4)
        sweep = SweepResult(params.bin_width_ns, 1, np.cumsum(p0.rates), np.cumsum(p1.rates))
        max_c, min_v = sweep.max_contrast, sweep.min_variance
        assert max_c.contrast == pytest.approx(0.30, abs=0.02)
        assert 1 < max_c.window < min_v.window < p0.rates.size
        two_bins = 2 * params.bin_width_ns
        assert max_c.window * params.bin_width_ns == pytest.approx(184.0, abs=two_bins)
        assert min_v.window * params.bin_width_ns == pytest.approx(460.0, abs=two_bins)
        assert 1.4 < max_c.total_variance / min_v.total_variance < 2.0

    def test_differential_positive_and_decaying(self):
        p0, p1 = make_profiles(paper_like_params())
        d = p0.rates - p1.rates
        assert np.all(d > 0)
        peak = int(np.argmax(d))
        assert np.all(np.diff(d[peak:]) <= 0)
        assert d[-1] < 0.05 * d[peak]


class TestMixProfile:
    def test_boundaries(self):
        p0, p1 = make_profiles(paper_like_params())
        assert np.array_equal(mix_profile(1.0, p0, p1).rates, p0.rates)
        assert np.array_equal(mix_profile(0.0, p0, p1).rates, p1.rates)

    def test_midpoint(self):
        p0, p1 = make_profiles(paper_like_params())
        mid = mix_profile(0.5, p0, p1)
        assert np.array_equal(mid.rates, 0.5 * p0.rates + 0.5 * p1.rates)

    def test_linearity_identity(self):
        # mix(p) + mix(1-p) == p0 + p1; bitwise at p = 0.5 (scaling by 0.5
        # commutes with rounding), within 1 ulp for other populations
        p0, p1 = make_profiles(paper_like_params())
        total = p0.rates + p1.rates
        lhs = mix_profile(0.5, p0, p1).rates + mix_profile(0.5, p0, p1).rates
        assert np.array_equal(lhs, total)
        for p in (0.25, 0.7):
            lhs = mix_profile(p, p0, p1).rates + mix_profile(1 - p, p0, p1).rates
            assert np.all(np.abs(lhs - total) <= np.spacing(total))

    def test_domain_and_shape_errors(self):
        p0, p1 = make_profiles(paper_like_params())
        with pytest.raises(ParameterError, match=r"population must be in \[0, 1\], got 1.5"):
            mix_profile(1.5, p0, p1)
        short = EmissionProfile(p0.rates[:10], p0.bin_width_ns)
        with pytest.raises(ParameterError, match=r"pair differs in length \(10 vs 500 bins\)"):
            mix_profile(0.5, short, p1)


class TestSimulateTrace:
    def test_zero_rates_give_zero_counts(self):
        profile = EmissionProfile(np.zeros(100))
        tr = simulate_trace(profile, 10**6, seed=3)
        assert tr.counts.sum() == 0

    def test_determinism(self):
        p0, _ = make_profiles(paper_like_params())
        a = simulate_trace(p0, 10**5, seed=42)
        b = simulate_trace(p0, 10**5, seed=42)
        c = simulate_trace(p0, 10**5, seed=43)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, 2**64 - 2],
                             ids=["0", "2^63", "2^64-1", "wraps-past-2^64"])
    def test_rows_are_fresh_philox_draws(self, seed):
        # one generator re-keyed per row draws what Philox(key=seed + k) draws from
        # new; rows of few and of many photons use different numbers of raw outputs,
        # so a counter or buffer left over from the row before would show.  A numpy
        # change to the bit generator's state layout fails here, not in a file's bytes
        rates = [np.full(40, 1e-6), np.linspace(0.0, 1e-3, 40), np.full(40, 2e-4),
                 np.linspace(1e-3, 0.0, 40)]
        counts = _draw(rates, (4, 40), 10**5, seed)
        for k, r in enumerate(rates):
            fresh = np.random.Generator(np.random.Philox(key=(seed + k) % 2**64))
            assert np.array_equal(counts[k], fresh.poisson(10**5 * r))
        profile = EmissionProfile(rates[1])
        fresh = np.random.Generator(np.random.Philox(key=seed % 2**64))
        assert np.array_equal(simulate_trace(profile, 10**5, seed).counts,
                              fresh.poisson(10**5 * rates[1]))

    def test_poisson_moments(self):
        # flat profile at rate 4e-5/bin, 1e6 repetitions: mean 40/bin
        profile = EmissionProfile(np.full(500, 4e-5))
        tr = simulate_trace(profile, 10**6, seed=11)
        mean = tr.counts.mean()
        se = np.sqrt(40.0 / 500)
        assert abs(mean - 40.0) < 5 * se
        dispersion = tr.counts.var() / mean
        assert 0.9 < dispersion < 1.1

    def test_expected_trace_matches_rates(self):
        p0, _ = make_profiles(paper_like_params())
        tr = expected_trace(p0, 10**9)
        assert np.array_equal(tr.counts, np.rint(10**9 * p0.rates).astype(int))

    @pytest.mark.parametrize("draw", [
        lambda p, reps: simulate_trace(p, reps, seed=3),
        lambda p, reps: expected_trace(p, reps),
        lambda p, reps: simulate_rabi_dataset(p, p, reps, seed=3, points=2)[0],
    ], ids=["simulate_trace", "expected_trace", "simulate_rabi_dataset"])
    def test_repetitions_must_be_whole(self, draw):
        profile = EmissionProfile(np.full(10, 1e-3))
        assert draw(profile, 1e7).repetitions == 10**7     # an integral float is fine
        for reps in (2.5, 1e7 + 0.5):
            with pytest.raises(ParameterError, match="whole number"):
                draw(profile, reps)

"""Sinusoid fitting, target assignment, oscillation-set training."""

import re
from dataclasses import replace

import numpy as np
import pytest

from nvreadout import (FitFailureError, ParameterError, RabiDataset,
                       SinusoidFit, assign_targets, fit_rabi,
                       make_profiles, mix_profile, paper_like_params,
                       simulate_rabi_dataset, simulate_trace, train_rabi)


def sample(offset, amplitude, frequency, phase, t):
    return offset + amplitude * np.cos(2 * np.pi * frequency * t + phase)


class TestFitRabi:
    def test_noiseless_round_trip(self):
        t = np.linspace(0, 600, 60)
        y = sample(0.5, 0.5, 1 / 200.0, 0.0, t)
        fit = fit_rabi(t, y)
        assert fit.offset == pytest.approx(0.5, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.5, rel=1e-6)
        assert fit.frequency == pytest.approx(1 / 200.0, rel=1e-6)
        assert min(fit.phase, 2 * np.pi - fit.phase) < 1e-6

    def test_random_round_trips(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            offset = rng.uniform(-2, 2)
            amplitude = rng.uniform(0.2, 3)
            frequency = rng.uniform(1 / 400, 1 / 60)
            phase = rng.uniform(0, 2 * np.pi)
            t = np.linspace(0, 600, 48)
            fit = fit_rabi(t, sample(offset, amplitude, frequency, phase, t))
            assert fit.offset == pytest.approx(offset, rel=1e-6, abs=1e-9)
            assert fit.amplitude == pytest.approx(amplitude, rel=1e-6)
            assert fit.frequency == pytest.approx(frequency, rel=1e-6)
            dphi = (fit.phase - phase) % (2 * np.pi)
            assert min(dphi, 2 * np.pi - dphi) < 1e-5

    def test_constant_series_fails(self):
        t = np.linspace(0, 600, 30)
        with pytest.raises(FitFailureError):
            fit_rabi(t, np.full(30, 0.4))

    def test_too_few_points(self):
        t = np.linspace(0, 600, 5)
        with pytest.raises(FitFailureError, match="at least 8"):
            fit_rabi(t, np.cos(t))

    def test_short_span_fails(self):
        t = np.linspace(0, 50, 20)  # a quarter period of a 200 ns oscillation
        y = sample(0.5, 0.5, 1 / 200.0, 0.0, t) + \
            np.random.default_rng(0).normal(0, 1e-4, 20)
        with pytest.raises(FitFailureError):
            fit_rabi(t, y)

    def test_noisy_frequency_recovery(self):
        # 1% frequency accuracy at noise sigma = 0.02 across 100 seeds
        t = np.linspace(0, 600, 60)
        truth = 1 / 200.0
        clean = sample(0.5, 0.5, truth, 0.7, t)
        for seed in range(100):
            noisy = clean + np.random.default_rng(seed).normal(0, 0.02, t.size)
            fit = fit_rabi(t, noisy)
            assert fit.frequency == pytest.approx(truth, rel=0.01)

    @pytest.mark.parametrize("t, y", [
        (np.linspace(0, 600, 30), np.where(np.arange(30) == 7, np.nan, 0.5)),
        (np.where(np.arange(30) == 3, np.inf, np.linspace(0, 600, 30)),
         np.cos(np.linspace(0, 600, 30) / 30)),
    ], ids=["nan-value", "inf-duration"])
    def test_non_finite_input_fails(self, t, y):
        with pytest.raises(FitFailureError, match="finite"):
            fit_rabi(t, y)

    @pytest.mark.parametrize("t", [
        np.full(30, 100.0),
        np.linspace(600, 0, 30),
        np.r_[np.linspace(0, 300, 15), np.linspace(300, 600, 15)],
    ], ids=["zero-span", "decreasing", "repeated"])
    def test_non_increasing_durations_fail(self, t):
        y = sample(0.5, 0.5, 1 / 200.0, 0.0, np.linspace(0, 600, 30))
        with pytest.raises(FitFailureError, match="strictly increasing"):
            fit_rabi(t, y)

    @pytest.mark.parametrize("last, ratio", [(1e4, "16.67"), (1e8, "1.667e+05"),
                                             (1e308, "1.667e+305")])
    def test_span_of_many_median_steps_fails_naming_the_ratio(self, last, ratio):
        # the frequency grid grows with the span over (points - 1) median steps:
        # one outlying duration must not make the fit's work unbounded
        t = np.linspace(0, 600, 60)
        y = sample(0.5, 0.5, 1 / 200.0, 0.0, t)
        t[-1] = last
        message = f"durations span {ratio} times (points - 1) median steps; need <= 16"
        with pytest.raises(FitFailureError, match=f"^{re.escape(message)}$"):
            fit_rabi(t, y)
        t[-1] = 9590.0                      # span / (59 median steps) just below 16
        assert fit_rabi(t, sample(0.5, 0.5, 1 / 200.0, 0.0, t)).frequency == \
            pytest.approx(1 / 200.0, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_fail_the_fit_without_warnings(self):
        # durations and values are fitted at scales where no sum overflows (once,
        # durations up to 1e307 overflowed the profile's slope sum), but durations
        # of 2^-1070 steps give a frequency past float64's range: it fails as an
        # overflow, not as inf
        y = np.cos(2 * np.pi * np.arange(2400) / 20)
        t = np.ldexp(np.arange(2400.0), -1070)
        with pytest.raises(FitFailureError,
                           match="^fit out of floating-point range: overflow encountered in ldexp$"):
            fit_rabi(t, y)
        # steps of 2^-1027 give a finite frequency whose 2 pi f overflows: its
        # curve would be nan at every duration
        with pytest.raises(FitFailureError, match=r"^fit out of floating-point range: "
                                                  r"frequency 7\.191e\+307/ns times 2 pi overflows$"):
            fit_rabi(np.ldexp(np.arange(2400.0), -1027), y)

    @pytest.mark.filterwarnings("error")
    def test_fit_is_bit_exactly_scale_equivariant(self):
        # a series scaled by 2^k fits as the series' fit scaled by 2^k: offset,
        # amplitude and rms scaled, frequency and phase the same; once, squares
        # that underflowed (or overflowed) gave a wrong fit (or a failure)
        t = np.linspace(0, 600, 60)
        y = sample(0.5, 0.4, 1 / 200.0, 0.3, t) + \
            np.random.default_rng(3601).normal(0, 0.05, t.size)
        base = fit_rabi(t, y)
        for k in range(-1000, 1001):
            scaled = np.ldexp(y, k)
            assert np.array_equal(np.ldexp(scaled, -k), y)      # representable
            fit = fit_rabi(t, scaled)
            assert (fit.offset, fit.amplitude, fit.frequency, fit.phase, fit.residual_rms) == \
                (np.ldexp(base.offset, k), np.ldexp(base.amplitude, k), base.frequency,
                 base.phase, np.ldexp(base.residual_rms, k)), k
        # durations scaled by 2^k: the frequency scaled by 2^-k, the rest the same;
        # once, spans from about 5e305 gave a wrong fit or a failure
        (_, low), (_, high) = np.frexp(t[1]), np.frexp(t[-1])  # t[0] is 0
        scales = range(-1021 - low, 1025 - high)        # each k where t * 2^k is normal
        assert (scales[0], scales[-1]) == (-1025, 1014)
        for k in scales:
            fit = fit_rabi(np.ldexp(t, k), y)
            assert (fit.offset, fit.amplitude, fit.frequency, fit.phase, fit.residual_rms) == \
                (base.offset, base.amplitude, np.ldexp(base.frequency, -k), base.phase,
                 base.residual_rms), k
        # centred durations whose span, 600 * 2^1015, overflows: once rejected as
        # spanning inf median steps, with numpy's RuntimeWarning
        centred = fit_rabi(t - 300, y)
        fit = fit_rabi(np.ldexp(t - 300, 1015), y)
        assert (fit.amplitude, fit.frequency, fit.phase) == \
            (centred.amplitude, np.ldexp(centred.frequency, -1015), centred.phase)

    def test_tiny_noisy_cosine_fits_its_frequency(self):
        # 2,400 points of a noisy cosine (period 200 ns) times 2^-600: its
        # squares once flushed to 0, and the fit returned 0.00125/ns
        t = np.linspace(0, 2400, 2400, endpoint=False)
        y = np.cos(2 * np.pi * t / 200.0) + np.random.default_rng(3602).normal(0, 0.1, t.size)
        base, tiny = fit_rabi(t, y), fit_rabi(t, np.ldexp(y, -600))
        assert base.frequency == pytest.approx(0.005, rel=1e-3)
        assert (tiny.frequency, tiny.amplitude) == (base.frequency, np.ldexp(base.amplitude, -600))

    @pytest.mark.parametrize("value", [0.0, 0.1, 0.5, -3e300])
    def test_constant_series_is_named(self, value):
        # the flat model's series: once a fitted period longer than the span
        with pytest.raises(FitFailureError, match="^values are constant: no oscillation to fit$"):
            fit_rabi(np.linspace(0, 600, 61), np.full(61, value))

    def test_frequency_never_above_nyquist(self):
        # aliases above the sampling Nyquist frequency fit exactly as well;
        # the fit must return the one below it or fail
        rng = np.random.default_rng(17)
        t = np.linspace(0, 600, 48)
        nyquist = 0.5 / np.median(np.diff(t))
        fitted = 0
        for _ in range(40):
            frequency = rng.uniform(0.5, 2.0) * nyquist
            y = sample(0.5, 0.5, frequency, rng.uniform(0, 2 * np.pi), t) + \
                rng.normal(0, 0.01, t.size)
            try:
                fit = fit_rabi(t, y)
            except FitFailureError:
                continue
            fitted += 1
            assert fit.frequency <= nyquist
        assert fitted >= 20

    def test_determinism(self):
        t = np.linspace(0, 600, 60)
        y = sample(0.5, 0.5, 1 / 200.0, 0.3, t) + \
            np.random.default_rng(3).normal(0, 0.05, t.size)
        a, b = fit_rabi(t, y), fit_rabi(t, y)
        assert (a.offset, a.amplitude, a.frequency, a.phase) == \
            (b.offset, b.amplitude, b.frequency, b.phase)


@pytest.mark.parametrize("frequency", [0.05, 1e-12, 0.0123],
                         ids=["nyquist", "near-zero", "generic"])
def test_profile_survives_rank_deficient_columns(frequency):
    # at the Nyquist frequency of a grid not starting at 0 the sine column
    # is a multiple of the cosine column; near f = 0 both fall onto the
    # offset.  The profile must then match a rank-revealing solve, as it
    # must where the centred columns are independent but not orthogonal.
    from nvreadout.rabi import _profile_sse
    t = 5.0 + 10.0 * np.arange(40)
    y = np.random.default_rng(4).normal(size=t.size)
    arg = 2 * np.pi * frequency * t
    design = np.column_stack([np.ones_like(t), np.cos(arg), np.sin(arg)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=1e-8)
    expected = float(np.sum((design @ coef - y) ** 2))
    assert _profile_sse(t, y, np.array([frequency]))[0] == \
        pytest.approx(expected, rel=1e-9)


def _multistart_lm_fit(t, y):
    """The former fit: 25 Levenberg-Marquardt starts (scipy), kept as oracle.

    Returns (frequency, sse) or None where the former fit raised
    FitFailureError.
    """
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    dt = float(np.median(np.diff(t)))
    spectrum = np.abs(np.fft.rfft(y - y.mean(), 4 * t.size))
    f_dom = float(np.fft.rfftfreq(4 * t.size, dt)[1 + int(np.argmax(spectrum[1:]))])
    best_sse, best = np.inf, None
    for f0 in np.geomspace(0.25 * f_dom, 4.0 * f_dom, 25):
        arg = 2.0 * np.pi * f0 * t
        design = np.column_stack([np.ones_like(t), np.cos(arg), np.sin(arg)])
        (c0, c1, c2), *_ = np.linalg.lstsq(design, y, rcond=None)

        def model_residuals(theta):
            offset, a, b, f = theta
            arg = 2.0 * np.pi * f * t
            return offset + a * np.cos(arg) + b * np.sin(arg) - y

        sol = least_squares(model_residuals, [c0, c1, c2, f0],
                            method="lm", max_nfev=400)
        sse = float(sol.fun @ sol.fun)
        if sse < best_sse * (1.0 - 1e-12):
            best_sse, best = sse, sol.x
    _, a, b, f = best
    f = abs(f)
    if (t[-1] - t[0]) * f < 1.0 or \
            np.hypot(a, b) < 3.0 * np.sqrt(best_sse / t.size):
        return None
    return f, best_sse


def _oracle_series():
    """Seeded count-sum series of simulated scans, at two layouts and two
    repetition counts so that both fit outcomes occur."""
    p0, p1 = make_profiles(paper_like_params())
    for seed in range(12):
        for points, span in ((60, 600.0), (240, 2400.0)):
            reps = 10**5 if seed % 3 else 3 * 10**4
            dataset, _ = simulate_rabi_dataset(p0, p1, reps, 1000 * seed + 3,
                                               points=points, span_ns=span)
            yield dataset.durations, dataset.counts.sum(axis=1) / dataset.repetitions


def _assert_matches(oracle, f_rel, sse_rel):
    """fit_rabi agrees with ``oracle`` on every oracle series: same pass/fail,
    frequency and sum of squares within the given relative tolerances."""
    outcomes = []
    for t, y in _oracle_series():
        expected = oracle(t, y)
        try:
            fit = fit_rabi(t, y)
        except FitFailureError:
            fit = None
        assert (fit is None) == (expected is None)
        outcomes.append(fit is None)
        if fit is not None:
            f_ref, sse_ref = expected
            sse = float(np.sum((fit.value(t) - y) ** 2))
            assert sse == pytest.approx(sse_ref, rel=sse_rel)
            assert fit.frequency == pytest.approx(f_ref, rel=f_rel)
    assert any(outcomes) and not all(outcomes)


def test_matches_multistart_lm_oracle():
    _assert_matches(_multistart_lm_fit, f_rel=1e-6, sse_rel=1e-8)


def _grid_golden_fit(t, y):
    """The former refine, kept as oracle: the same frequency grid profiled
    through the residual vector itself, then a golden-section search on the
    sum of squares between the best grid point's neighbours.

    Returns (frequency, sse) or None where fit_rabi's failure rules apply.
    """
    def profile_sse(freqs):
        yc = y - y.mean()
        arg = 2.0 * np.pi * np.outer(freqs, t)
        c = np.cos(arg)
        c -= c.mean(axis=1, keepdims=True)
        s = np.sin(arg)
        s -= s.mean(axis=1, keepdims=True)

        def along(dots, basis):
            norm2 = np.einsum("ij,ij->i", basis, basis)
            coef = np.divide(dots, norm2, out=np.zeros_like(norm2),
                             where=norm2 > 1e-10 * t.size)
            return coef[:, None] * basis

        s -= along(np.einsum("ij,ij->i", c, s), c)
        r = yc - along(c @ yc, c) - along(s @ yc, s)
        return np.einsum("ij,ij->i", r, r)

    dt = float(np.median(np.diff(t)))
    spectrum = np.abs(np.fft.rfft(y - y.mean(), 4 * t.size))
    f_dom = float(np.fft.rfftfreq(4 * t.size, dt)[1 + int(np.argmax(spectrum[1:]))])
    span = t[-1] - t[0]
    f_lo, f_hi = 0.25 * f_dom, min(4.0 * f_dom, 0.5 / dt)
    grid = np.linspace(f_lo, f_hi, int(np.ceil((f_hi - f_lo) * 8 * span)) + 1)
    k = int(np.argmin(profile_sse(grid)))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = profile_sse([c])[0], profile_sse([d])[0]
    while b - a > 1e-12 * b:
        if fc <= fd:                          # ties keep the lower frequency
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = profile_sse([c])[0]
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = profile_sse([d])[0]
    f = c if fc <= fd else d
    arg = 2.0 * np.pi * f * t
    design = np.column_stack([np.ones_like(t), np.cos(arg), np.sin(arg)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    sse = float(np.sum((design @ coef - y) ** 2))
    if span * f < 1.0 or np.hypot(coef[1], coef[2]) < 3.0 * np.sqrt(sse / t.size):
        return None
    return f, sse


def test_matches_grid_golden_oracle():
    # the slope-root refine lands on the minimum the golden-section search
    # brackets, to within that search's own rounding-level stop
    _assert_matches(_grid_golden_fit, f_rel=1e-8, sse_rel=1e-10)


def test_one_ulp_input_change_moves_fit_at_rounding_level():
    # the slope is well conditioned at the minimum, where the sum of squares
    # is flat: a 1-ulp change of five inputs moves the fit at rounding level
    p0, p1 = make_profiles(paper_like_params())
    for seed in range(700003, 708003, 1000):
        rng = np.random.default_rng(seed)
        dataset, _ = simulate_rabi_dataset(p0, p1, 10**5, seed, points=240, span_ns=2400.0)
        t = dataset.durations
        y = dataset.counts.sum(axis=1) / dataset.repetitions
        fit = fit_rabi(t, y)
        for _ in range(10):
            moved = y.copy()
            k = rng.choice(t.size, 5, replace=False)
            moved[k] = np.nextafter(moved[k], np.where(rng.random(5) < 0.5, np.inf, -np.inf))
            other = fit_rabi(t, moved)
            assert abs(other.frequency - fit.frequency) <= 1e-13 * fit.frequency
            assert np.max(np.abs(other.value(t) - fit.value(t))) <= 1e-12 * fit.amplitude


@pytest.mark.parametrize("parity", [0, 1], ids=["even-steps", "odd-steps"])
def test_median_step_is_np_median_bit_for_bit(parity):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from nvreadout.rabi import _median_step

    # strictly increasing durations, as fit_rabi takes them; repeated steps
    # make ties in the middle
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(start=st.floats(-1e6, 1e6),
                      steps=st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.5]),
                                               st.floats(1e-6, 1e6)),
                                     min_size=2, max_size=41))
    def check(start, steps):
        steps = steps[:len(steps) - (len(steps) - parity) % 2]
        t = start + np.concatenate([[0.0], np.cumsum(steps)])
        assert np.all(np.diff(t) > 0) and (t.size - 1) % 2 == parity
        assert _median_step(t).hex() == float(np.median(np.diff(t))).hex()

    check()


@pytest.fixture(scope="module")
def simulated_dataset():
    p0, p1 = make_profiles(paper_like_params())
    return simulate_rabi_dataset(p0, p1, repetitions=10**6, seed=50)


class TestAssignTargets:
    def test_targets_are_the_normalized_fit(self, simulated_dataset):
        dataset, _ = simulated_dataset
        fit = fit_rabi(dataset.durations, dataset.counts.sum(axis=1) / dataset.repetitions)
        q = np.array([ex.target for ex in assign_targets(dataset, fit)])
        assert q.tobytes() == fit.normalized(dataset.durations).tobytes()
        assert np.all((q >= 0) & (q <= 1))

    def test_point_at_fitted_peak_gets_one(self):
        fit = SinusoidFit(offset=0.5, amplitude=0.4, frequency=1 / 200.0,
                          phase=0.0, residual_rms=0.01)
        t = np.arange(9) * 50.0  # peaks at 0, 200, 400; troughs at 100, 300
        q = fit.normalized(t)
        assert q[[0, 4, 8]] == pytest.approx(1.0, abs=1e-12)
        assert q[[2, 6]] == pytest.approx(0.0, abs=1e-12)
        # node points sit exactly between: normalized value 0.5
        assert q[1] == pytest.approx(0.5, abs=1e-12)
        # rounding lands this peak at 1 + 2^-52 before the clip to [0, 1]
        fit = replace(fit, offset=1.1, amplitude=0.3)
        assert fit.rescaled(fit.value(0.0)) > 1.0
        assert fit.normalized([0.0, 100.0]).tolist() == [1.0, 0.0]

    def test_rescaled_flat_fit_fails(self):
        fit = SinusoidFit(offset=0.5, amplitude=0.0, frequency=1 / 200.0,
                          phase=0.0, residual_rms=0.0)
        with pytest.raises(FitFailureError, match="flat fit"):
            fit.rescaled([0.5])
        with pytest.raises(FitFailureError, match="flat fit"):
            fit.normalized([0.0])

    def test_targets_independent_of_series_scale(self, simulated_dataset):
        # affine-processed series produce identical targets
        dataset, _ = simulated_dataset
        sums = np.array([tr.counts.sum() / tr.repetitions for _, tr in dataset.points])
        fit_a = fit_rabi(dataset.durations, sums)
        fit_b = fit_rabi(dataset.durations, 3.5 * sums - 1.25)
        qa = [ex.target for ex in assign_targets(dataset, fit_a)]
        qb = [ex.target for ex in assign_targets(dataset, fit_b)]
        # identical up to the optimizer's own convergence tolerance
        assert qa == pytest.approx(qb, abs=1e-5)


class TestResiduals:
    def test_noiseless_residuals_vanish(self):
        t = np.linspace(0, 600, 40)
        y = sample(0.2, 0.7, 1 / 150.0, 1.1, t)
        fit = fit_rabi(t, y)
        assert np.all(np.abs(y - fit.value(t)) < 1e-9)

    def test_residuals_sum_near_zero_for_own_fit(self):
        # least-squares with a free offset: residuals orthogonal to constants
        t = np.linspace(0, 600, 60)
        y = sample(0.5, 0.5, 1 / 200.0, 0.4, t) + \
            np.random.default_rng(9).normal(0, 0.05, t.size)
        fit = fit_rabi(t, y)
        r = y - fit.value(t)
        assert abs(r.sum()) < t.size * 1e-9
        assert np.sqrt(np.mean(r * r)) == pytest.approx(fit.residual_rms, rel=1e-9)


class TestTrainRabi:
    def test_two_point_set_reduces_to_boundary_training(self):
        # a peak/trough-only dataset behaves like boundary training; two
        # points are too few to fit, so its hand targets go to train()
        from nvreadout import train, train_boundary
        import nvreadout
        p0, p1 = make_profiles(paper_like_params())
        peak = nvreadout.simulate_trace(p0, 10**6, seed=81)
        trough = nvreadout.simulate_trace(p1, 10**6, seed=82)
        dataset = RabiDataset([0.0, 100.0], np.stack([peak.counts, trough.counts]), 10**6)
        a = train(dataset.counts, dataset.repetitions, [1.0, 0.0], dataset.bin_width_ns)
        b = train_boundary(peak, trough)
        assert np.allclose(a.weights, b.weights, rtol=0, atol=0)
        assert a.intercept == b.intercept
        with pytest.raises(FitFailureError, match="at least 8 points"):
            train_rabi(dataset)

    def test_targets_are_the_assign_targets_of_the_count_sum_fit(self, simulated_dataset):
        from nvreadout import train
        dataset, _ = simulated_dataset
        fit = fit_rabi(dataset.durations, dataset.counts.sum(axis=1) / dataset.repetitions)
        targets = [ex.target for ex in assign_targets(dataset, fit)]
        a = train_rabi(dataset)
        b = train(dataset.counts, dataset.repetitions, targets, dataset.bin_width_ns,
                  provenance=f"oscillation set, 60 points, repetitions={10**6}")
        assert a.weights.tobytes() == b.weights.tobytes()
        assert (a.intercept, a.trained_on, a.training_loss) == \
            (b.intercept, b.trained_on, b.training_loss)

    def test_targets_cannot_be_passed(self, simulated_dataset):
        # a call written for an old signature (targets, or a step cap) fails
        # loudly; the dataset is the only argument
        dataset, _ = simulated_dataset
        with pytest.raises(TypeError):
            train_rabi(dataset, [0.5] * len(dataset))
        with pytest.raises(TypeError):
            train_rabi(dataset, 100)

    def test_variance_stays_close_to_gated_baseline(self):
        # oscillation-trained model on a held-out higher-repetition set:
        # formula variance within a few percent of the min-V gated baseline
        # (the shipped simulator's noise regime does not reproduce the small
        # improvement seen in the source experiment, but repair quality does
        # improve; see the acceptance suite)
        from conftest import gates
        from nvreadout import evaluate
        from nvreadout.evaluation import METHOD_MIN_V, METHOD_ML
        p0, p1 = make_profiles(paper_like_params())
        train_set, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5,
                                             seed=10, points=60)
        test_set, _ = simulate_rabi_dataset(p0, p1, repetitions=5 * 10**5,
                                            seed=10010, points=60)
        sums = train_set.counts.sum(axis=1) / train_set.repetitions
        fit = fit_rabi(train_set.durations, sums)
        targets = [ex.target for ex in assign_targets(train_set, fit)]
        model = train_rabi(train_set)
        bright = train_set.points[int(np.argmax(targets))][1]
        dark = train_set.points[int(np.argmin(targets))][1]
        report = evaluate(test_set, *gates(bright, dark), model)
        assert report.method(METHOD_ML).avg_formula_variance <= \
            1.05 * report.method(METHOD_MIN_V).avg_formula_variance

    @pytest.mark.parametrize("durations, counts, match", [
        ([10.0, 5.0], [[1, 2], [3, 4]], "durations must be finite and strictly increasing"),
        ([0.0, 0.0], [[1, 2], [3, 4]], "durations must be finite and strictly increasing"),
        ([0.0, np.nan], [[1, 2], [3, 4]], "duration_ns nan is not finite"),
        ([0.0, np.inf], [[1, 2], [3, 4]], "duration_ns inf is not finite"),
        ([0.0, 1.0], [[1, -2], [3, 4]], "counts -2 is negative"),
        ([0.0, 1.0], [[1, 2.5], [3, 4]], "counts must be integers"),
        ([0.0, 1.0], [[2**70, 2], [3, 4]], "counts must be integers"),
        ([0.0, 1.0], [1, 2], "counts must be a non-empty 2-d array"),
        ([0.0, 1.0, 2.0], [[1, 2], [3, 4]], "2 count rows for 3 durations"),
        ([0.0], [[1, 2], [3, 4]], "2 count rows for 1 durations"),
    ], ids=["decreasing", "repeated", "nan-duration", "inf-duration",
            "negative-count", "non-integer-count", "count-beyond-int64",
            "1-d-counts", "fewer-rows", "more-rows"])
    def test_dataset_invariants(self, durations, counts, match):
        with pytest.raises(ParameterError, match=f"^{match}$"):
            RabiDataset(durations, np.array(counts), repetitions=10)

    @pytest.mark.parametrize("durations, counts, match", [
        ([0.0, 1.0, 2.0, 3.0], [[1, 2], [3, 4], [5, -6], [-7, 8]], "counts -6 is negative"),
        ([0.0, 1.0, np.nan, 3.0], [[1, 2]] * 4, "duration_ns nan is not finite"),
        ([0.0, 1.0, -np.inf, 3.0], [[1, 2]] * 4, "duration_ns -inf is not finite"),
        ([0.0, 2.0, 1.0, 0.5], [[1, 2]] * 4,
         "durations must be finite and strictly increasing"),
        ([0.0, 2.0, 2.0, 3.0], [[1, -2]] * 4,
         "durations must be finite and strictly increasing"),
    ], ids=["negative-count", "nan-duration", "minus-inf-duration", "decreasing",
            "durations-before-counts"])
    def test_bad_row_is_named(self, durations, counts, match):
        # the first offending row; a duration rule is checked before the counts
        with pytest.raises(ParameterError, match=rf"^{match}$") as err:
            RabiDataset(durations, np.array(counts), repetitions=10)
        assert err.value.row == 2

    def test_simulated_rows_are_per_point_trace_draws(self):
        # the former path, kept as reference: one mixed profile and one trace
        # per point, drawn with seed + k
        p0, p1 = make_profiles(paper_like_params())
        dataset, truth = simulate_rabi_dataset(p0, p1, 10**5, 31, points=12)
        for k, (row, p) in enumerate(zip(dataset.counts, truth)):
            expected = simulate_trace(mix_profile(float(p), p0, p1), 10**5, 31 + k)
            assert np.array_equal(row, expected.counts)
        short = make_profiles(replace(paper_like_params(), trace_length_ns=500.0))[1]
        with pytest.raises(ParameterError, match=r"pair differs in length \(500 vs 250 bins\)"):
            simulate_rabi_dataset(p0, short, 10**5, 31)
        with pytest.raises(ParameterError, match="2\\^53"):
            simulate_rabi_dataset(p0, p1, 10**18, 31)

    @pytest.mark.parametrize("seed", [31, 2**64 - 5], ids=["31", "wraps-past-2^64"])
    def test_simulated_rows_are_fresh_philox_draws(self, seed):
        # the reference without the package's generator: one new Philox keyed by
        # seed + k (mod 2^64) per point
        p0, p1 = make_profiles(paper_like_params())
        dataset, truth = simulate_rabi_dataset(p0, p1, 10**7, seed, points=12)
        for k, (row, p) in enumerate(zip(dataset.counts, truth)):
            fresh = np.random.Generator(np.random.Philox(key=(seed + k) % 2**64))
            assert np.array_equal(row, fresh.poisson(10**7 * mix_profile(float(p), p0, p1).rates))

    @pytest.mark.parametrize("kwargs, match", [
        ({"points": 1}, "points must be >= 2, got 1"),
        ({"period_ns": float("nan")}, "period_ns must be finite and positive, got nan"),
        ({"span_ns": -1.0}, "span_ns must be finite and positive, got -1.0"),
        # finite and positive, but the truth's phase 2 pi span / period would overflow
        ({"span_ns": 1e308}, r"2 pi span_ns / period_ns overflows, got 1e\+308 / 200.0"),
        ({"period_ns": np.float64(1e-320)}, "2 pi span_ns / period_ns overflows"),
        ({"points": 3, "span_ns": 5e-324}, r"span_ns / \(points - 1\) underflows to 0"),
        ({"points": 4, "span_ns": 1e-323},
         r"span_ns / \(points - 1\) rounds to a step that repeats a duration, got 1e-323 / 3"),
        ({"points": 10**400}, "points times 500 bins exceeds numpy's index range")],
        ids=["points-1", "period-nan", "span-negative", "span-1e308", "period-1e-320",
             "span-5e-324-points-3", "span-1e-323-points-4", "points-10^400"])
    @pytest.mark.filterwarnings("error")
    def test_bad_scan_shape_names_the_value(self, kwargs, match):
        p0, p1 = make_profiles(paper_like_params())
        with pytest.raises(ParameterError, match=match):
            simulate_rabi_dataset(p0, p1, 10**5, 31, **kwargs)

    def test_dataset_is_read_only_matrix(self):
        counts = np.array([[1, 2], [3, 4]])
        dataset = RabiDataset([0.0, 1.0], counts, repetitions=10)
        counts[0, 0] = 99                   # the dataset keeps its own copy
        assert dataset.counts.dtype == np.int64 and dataset.counts[0, 0] == 1
        with pytest.raises(ValueError):
            dataset.counts[0, 0] = 5
        (d, trace), _ = dataset.points
        assert d == 0.0 and trace.repetitions == 10
        assert np.array_equal(trace.counts, [1, 2])

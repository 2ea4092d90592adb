"""Gated estimator, figures of merit, gate-width sweep."""

import itertools

import numpy as np
import pytest

from nvreadout import (ParameterError, SweepResult, TimeTrace, expected_trace, gate_sum,
                       gated_equivalent_model, make_profiles, paper_like_params, predict,
                       prediction_variance, simulate_trace, sweep_gate)


def trace_of(counts, reps=1):
    return TimeTrace(np.asarray(counts), repetitions=reps)


def gated(gate_counts, bright_total, dark_total):
    """Estimate and variance of the one-bin gate of boundaries ``bright_total`` and
    ``dark_total`` on a one-bin trace of ``gate_counts``, all at one repetition."""
    model = gated_equivalent_model(trace_of([bright_total]), trace_of([dark_total]), 1)
    trace = trace_of([gate_counts])
    return predict(model, trace), prediction_variance(model, trace)


def figures(bright_total, dark_total):
    """Contrast and total variance of one width with these gated sums."""
    sweep = SweepResult(2.0, 1, [bright_total], [dark_total])
    return sweep.contrast[0], sweep.total_variance[0]


class TestGateSum:
    def test_full_window_is_total(self):
        tr = trace_of([1, 2, 3, 4])
        assert gate_sum(tr, 4) == 10
        assert gate_sum(tr, np.int64(4)) == 10

    def test_single_bin(self):
        tr = trace_of([1, 2, 3, 4])
        assert gate_sum(tr, 1) == 1

    def test_zero_trace(self):
        assert gate_sum(trace_of([0, 0]), 2) == 0

    def test_overrun_raises(self):
        with pytest.raises(ParameterError, match="gate width 3 overruns trace of 2 bins"):
            gate_sum(trace_of([1, 2]), 3)

    def test_sums_past_int64_do_not_wrap(self):
        # four bins of 2^62 sum to 2^64, which an int64 sum wraps to exactly 0;
        # every partial sum here is a multiple of 4096 below 2^65, so float64
        # holds the exact sums
        bright = trace_of([2**62] * 4 + [4096] * 16, reps=10**6)
        dark = trace_of([1000] * 20, reps=10**6)
        exact = [float(s) for s in itertools.accumulate(int(c) for c in bright.counts)]
        assert [gate_sum(bright, w) for w in range(1, 21)] == exact
        sweep = sweep_gate(bright, dark)
        assert sweep.bright_total.tolist() == exact     # no width degenerate


class TestGatedPopulation:
    """The gated estimator p = (g - D) / (B - D), v = g / (B - D)^2 in model form."""

    def test_boundary_conditions_exact(self):
        # a span of 32 keeps the weight, the intercept and every product exact
        assert gated(132, 132, 100)[0] == 1.0
        assert gated(100, 132, 100)[0] == 0.0

    def test_hand_arithmetic(self):
        p, sigma2 = gated(115, 130, 100)
        assert p == pytest.approx(0.5, rel=1e-15)
        assert sigma2 == pytest.approx(115.0 / 900.0, rel=1e-15)

    def test_not_clipped(self):
        p, _ = gated(150, 130, 100)
        assert p > 1.0

    def test_joint_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dark = int(rng.integers(1, 100))
            bright = dark + int(rng.integers(1, 100))
            x = int(rng.integers(0, 1.5 * bright))
            s = int(rng.integers(2, 100))
            p1, _ = gated(x, bright, dark)
            p2, _ = gated(x * s, bright * s, dark * s)
            assert p2 == pytest.approx(p1, rel=1e-12, abs=1e-12)

    def test_degenerate_raises(self):
        # a dark window brighter than the bright one: sums 2.0 and 4.0
        with pytest.raises(ParameterError,
                           match=r"^bright_total must exceed dark_total, got 2\.0 <= 4\.0$"):
            gated_equivalent_model(trace_of([1, 1, 1]), trace_of([2, 2, 2]), 2)


@pytest.mark.parametrize("degenerate", [
    lambda: gated_equivalent_model(trace_of([1, 1, 1]), trace_of([1, 1, 1]), 2),
], ids=["gated_equivalent_model"])
def test_bright_must_exceed_dark_in_one_message(degenerate):
    # the gate's one boundary rule; the model form's window sums are 2.0 and 2.0
    with pytest.raises(ParameterError,
                       match=r"^bright_total must exceed dark_total, got 2\.0 <= 2\.0$"):
        degenerate()


class TestContrast:
    def test_hand_arithmetic(self):
        assert figures(130.0, 91.0)[0] == pytest.approx(0.30, rel=1e-15)


class TestTotalVariance:
    def test_hand_arithmetic(self):
        assert figures(3.0, 1.0)[1] == pytest.approx(0.5, rel=1e-15)

    def test_against_numeric_integral(self):
        # independent oracle: integrate the per-population variance
        # (p*B + (1-p)*D) / (B-D)^2 over p in [0, 1] on a fine grid
        rng = np.random.default_rng(17)
        grid = np.linspace(0.0, 1.0, 100_001)
        for _ in range(100):
            dark = rng.uniform(0.1, 1e6)
            bright = dark + rng.uniform(1e-3, 1e6)
            integrand = (grid * bright + (1 - grid) * dark) / (bright - dark) ** 2
            oracle = np.trapezoid(integrand, grid)
            assert figures(bright, dark)[1] == pytest.approx(oracle, rel=1e-9)

    def test_inverse_scaling(self):
        v = figures(130.0, 100.0)[1]
        assert figures(1300.0, 1000.0)[1] == pytest.approx(v / 10.0, rel=1e-12)


@pytest.fixture(scope="module")
def noiseless_sweep():
    p0, p1 = make_profiles(paper_like_params())
    t0 = expected_trace(p0, 10**9)
    t1 = expected_trace(p1, 10**9)
    return sweep_gate(t0, t1)


class TestSweep:
    def test_covers_every_width(self, noiseless_sweep):
        curves = (noiseless_sweep.bright_total, noiseless_sweep.dark_total,
                  noiseless_sweep.contrast, noiseless_sweep.total_variance)
        assert all(curve.shape == (500,) for curve in curves)
        assert np.isfinite(curves).all()

    def test_interior_unique_optima_and_order(self, noiseless_sweep):
        c, v = noiseless_sweep.contrast, noiseless_sweep.total_variance
        i_c, i_v = int(np.argmax(c)), int(np.argmin(v))
        assert 0 < i_c < len(c) - 1 and 0 < i_v < len(v) - 1
        assert np.all(np.diff(c[:i_c + 1]) > 0) and np.all(np.diff(c[i_c:]) < 0)
        assert np.all(np.diff(v[:i_v + 1]) < 0) and np.all(np.diff(v[i_v:]) > 0)
        assert noiseless_sweep.max_contrast.window < noiseless_sweep.min_variance.window

    def test_matches_direct_formulas(self, noiseless_sweep):
        m = noiseless_sweep.at(42)
        assert m.bright_total == noiseless_sweep.bright_total[41]
        with pytest.raises(ParameterError, match="gate width 501 overruns trace of 500 bins"):
            noiseless_sweep.at(501)
        b, d = m.bright_total, m.dark_total
        assert m.contrast == pytest.approx((b - d) / b, rel=1e-14)
        assert m.total_variance == pytest.approx((b + d) / (2 * (b - d) ** 2), rel=1e-14)

    def test_flat_identical_profiles_all_degenerate(self):
        tr = expected_trace(
            make_profiles(paper_like_params())[0], 10**6)
        sweep = sweep_gate(tr, tr)
        assert sweep.contrast.shape == (500,)
        assert np.isnan([sweep.bright_total, sweep.dark_total, sweep.contrast,
                         sweep.total_variance]).all()
        assert sweep.max_contrast is None and sweep.min_variance is None

    def test_noisy_degenerate_widths_flagged(self):
        # dark outcounts bright in the first bin: width 1 must be flagged
        t0 = trace_of([1, 50, 50, 50], reps=10)
        t1 = trace_of([5, 10, 10, 10], reps=10)
        sweep = sweep_gate(t0, t1)
        assert np.isnan(sweep.contrast).tolist() == [True, False, False, False]
        assert np.isnan(sweep.bright_total[0]) and np.isnan(sweep.total_variance[0])
        assert sweep.max_contrast is not None
        with pytest.raises(ParameterError, match="gate width 1 is degenerate"):
            sweep.at(1)

    def test_at_names_a_degenerate_width(self):
        # dark outcounts bright over the first two bins only
        sweep = sweep_gate(trace_of([5, 0, 50]), trace_of([1, 10, 10]))
        assert np.isnan(sweep.contrast).tolist() == [False, True, False]
        assert sweep.at(3).window == 3
        assert type(sweep.at(np.int64(3)).window) is int
        with pytest.raises(ParameterError, match="gate width 2 is degenerate"):
            sweep.at(2)

    def test_hand_built_sweep_is_sweep_gates(self):
        # 100 repetitions: the first widths of the noisy pair are degenerate
        p0, p1 = make_profiles(paper_like_params())
        t0, t1 = simulate_trace(p0, 100, 5), simulate_trace(p1, 100, 6)
        swept = sweep_gate(t0, t1)
        hand = SweepResult(2.0, 100, np.cumsum(t0.counts), np.cumsum(t1.counts))
        names = ("bright_total", "dark_total", "contrast", "total_variance")
        for name in names:
            assert getattr(hand, name).tobytes() == getattr(swept, name).tobytes()
        assert hand.max_contrast == swept.max_contrast
        assert hand.min_variance == swept.min_variance
        assert np.isnan(swept.contrast).any() and not np.isnan(swept.contrast).all()

    WIDTH_CALLS = ("gate_sum", "at", "gated_equivalent_model")

    @pytest.mark.parametrize("call, value", [
        *(("SweepResult", reps) for reps in (0, -3, 2.5, 10.0, True)),
        *((call, width) for call in WIDTH_CALLS for width in (0, 2.5, "3", True))],
        ids=["zero", "negative", "fraction", "float", "bool",
             *(f"{call}-width-{w}" for call in WIDTH_CALLS
               for w in ("0", "2.5", "str-3", "bool"))])
    def test_hand_built_sweep_checks_repetitions(self, call, value):
        # the traces' rule, an integer >= 1 and not a bool, checks repetitions and
        # every gate width
        pair = trace_of([5, 4]), trace_of([1, 2])
        calls = {"SweepResult": lambda reps: SweepResult(2.0, reps, [5.0, 9.0], [1.0, 2.0]),
                 "gate_sum": lambda width: gate_sum(pair[0], width),
                 "at": lambda width: sweep_gate(*pair).at(width),
                 "gated_equivalent_model": lambda width: gated_equivalent_model(*pair, width)}
        name = "repetitions" if call == "SweepResult" else "width"
        with pytest.raises(ParameterError, match=f"^{name} must be an integer >= 1$"):
            calls[call](value)

    @pytest.mark.parametrize("bright, dark", [([1.0, 2.0, 3.0], [1.0, 2.0]),
                                              ([[4.0, 5.0]], [1.0, 2.0])],
                             ids=["lengths-differ", "bright-is-2d"])
    def test_hand_built_sweep_checks_curve_shapes(self, bright, dark):
        with pytest.raises(ParameterError, match="1-d and of one length"):
            SweepResult(2.0, 1, bright, dark)

    def test_hand_built_sweep_checks_the_widest_gate_in_ns(self):
        # N x bin_width_ns is the last row's width_ns cell of a sweep file
        with pytest.raises(ParameterError, match="bin_width_ns times 2 widths overflows"):
            SweepResult(1e308, 10, [5.0, 9.0], [1.0, 2.0])
        assert SweepResult(1e308, 10, [5.0], [1.0]).at(1).window == 1

    def test_requires_equal_repetitions(self):
        a = trace_of([5, 5], reps=10)
        b = trace_of([1, 1], reps=5)
        with pytest.raises(ParameterError, match="boundary traces must share a repetition count"):
            sweep_gate(a, b)

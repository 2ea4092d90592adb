"""Weighted readout model: prediction, loss, gradient, training."""

import numpy as np
import pytest

from nvreadout import (ConvergenceError, DegenerateTrainingError, DomainError,
                       GateWindow, ParameterError, ReadoutError, ReadoutModel,
                       ShapeError, TimeTrace, TrainingExample, expected_trace, gate_sum,
                       gated_equivalent_model, gated_population, loss,
                       loss_gradient, make_profiles, mix_profile,
                       paper_like_params, predict, prediction_variance,
                       simulate_trace, sweep_gate, train, train_boundary)
from nvreadout.regression import LAMBDA, WEIGHT_FACTOR, _gated_init, _solve


def as_arrays(examples):
    """Counts matrix, per-row repetitions and targets of a list of examples."""
    return (np.stack([ex.trace.counts for ex in examples]),
            np.array([ex.trace.repetitions for ex in examples]),
            np.array([ex.target for ex in examples]))


def random_examples(rng, m=4, n=30, reps_range=(10, 1000)):
    examples = []
    for _ in range(m):
        reps = int(rng.integers(*reps_range))
        counts = rng.integers(0, 50, size=n)
        examples.append(TrainingExample(
            TimeTrace(counts, repetitions=reps, bin_width_ns=2.0),
            float(rng.uniform(0, 1))))
    return examples


def random_model(rng, n=30):
    return ReadoutModel(weights=rng.uniform(0, 2.0, size=n),
                        intercept=float(rng.normal()),
                        reference_bin_width_ns=2.0)


@pytest.fixture(scope="module")
def preset_traces():
    p0, p1 = make_profiles(paper_like_params())
    return p0, p1, expected_trace(p0, 10**7), expected_trace(p1, 10**7)


class TestPredict:
    @pytest.mark.parametrize("field, bad", [
        ("intercept", np.nan), ("rate_scale", np.inf),
        ("reference_bin_width_ns", np.inf)])
    def test_non_finite_model_field_rejected(self, field, bad):
        fields = dict(weights=np.zeros(4), intercept=0.0, reference_bin_width_ns=2.0)
        with pytest.raises(ParameterError, match=field):
            ReadoutModel(**{**fields, field: bad})

    def test_zero_weights_give_intercept(self):
        model = ReadoutModel(np.zeros(4), intercept=0.37,
                             reference_bin_width_ns=2.0)
        tr = TimeTrace(np.array([5, 6, 7, 8]), repetitions=3)
        assert predict(model, tr) == 0.37

    def test_gated_equivalent_reproduces_gated_estimator(self, preset_traces):
        p0, p1, t0, t1 = preset_traces
        window = GateWindow(0, 230)
        model = gated_equivalent_model(t0, t1, window)
        rng = np.random.default_rng(2)
        bright = gate_sum(t0, window)
        dark = gate_sum(t1, window)
        for _ in range(50):
            pop = rng.uniform(0, 1)
            tr = simulate_trace(mix_profile(pop, p0, p1), 10**5,
                                seed=int(rng.integers(1 << 30)))
            # rescale boundary sums into the trace's repetition frame
            scale = tr.repetitions / t0.repetitions
            p_ref, v_ref = gated_population(gate_sum(tr, window),
                                            bright * scale, dark * scale)
            assert predict(model, tr) == pytest.approx(p_ref, rel=1e-12, abs=1e-12)
            assert prediction_variance(model, tr) == pytest.approx(v_ref, rel=1e-12)

    def test_dimension_mismatch(self):
        model = ReadoutModel(np.zeros(4), 0.0, 2.0)
        with pytest.raises(ShapeError):
            predict(model, TimeTrace(np.array([1, 2]), repetitions=1))


class TestPredictionVariance:
    def test_zero_trace(self):
        model = ReadoutModel(np.ones(3), 0.1, 2.0)
        tr = TimeTrace(np.zeros(3, dtype=int), repetitions=5)
        assert prediction_variance(model, tr) == 0.0

    def test_scales_inversely_with_repetitions(self, preset_traces):
        p0, p1, t0, t1 = preset_traces
        model = gated_equivalent_model(t0, t1, GateWindow(0, 230))
        profile = mix_profile(0.5, p0, p1)
        v = {}
        for reps in (10**5, 10**6, 10**7):
            v[reps] = prediction_variance(model, expected_trace(profile, reps))
        assert v[10**5] / v[10**6] == pytest.approx(10.0, rel=0.1)
        assert v[10**6] / v[10**7] == pytest.approx(10.0, rel=0.1)


class TestLoss:
    def test_perfect_constant_model(self):
        tr = TimeTrace(np.zeros(5, dtype=int), repetitions=1)
        model = ReadoutModel(np.zeros(5), intercept=0.5, reference_bin_width_ns=2.0)
        breakdown = loss(model, [TrainingExample(tr, 0.5)], 1e4)
        assert breakdown.prediction_term == 0.0
        assert breakdown.variance_term == 0.0
        assert breakdown.total == 0.0

    def test_gated_equivalent_has_zero_prediction_term(self, preset_traces):
        _, _, t0, t1 = preset_traces
        model = gated_equivalent_model(t0, t1, GateWindow(0, 150))
        examples = [TrainingExample(t0, 1.0), TrainingExample(t1, 0.0)]
        breakdown = loss(model, examples, 1e4)
        assert breakdown.prediction_term < 1e-24

    def test_against_straightforward_reimplementation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            examples = random_examples(rng)
            model = random_model(rng)
            w = float(rng.uniform(1, 1e5))
            breakdown = loss(model, examples, w)
            pred = sum((float(model.weights @ (ex.trace.counts / ex.trace.repetitions))
                        + model.intercept - ex.target) ** 2 for ex in examples)
            var = sum(float(((model.weights / ex.trace.repetitions) ** 2
                             * ex.trace.counts).sum()) for ex in examples)
            assert breakdown.prediction_term == pytest.approx(pred, rel=1e-12)
            assert breakdown.variance_term == pytest.approx(var, rel=1e-12)
            assert breakdown.total == w * breakdown.prediction_term + breakdown.variance_term

    def test_empty_examples_rejected(self):
        model = random_model(np.random.default_rng(0))
        with pytest.raises(DomainError):
            loss(model, [], 10.0)


class TestLossGradient:
    def test_matches_central_finite_differences(self):
        # the loss is quadratic, so central differences are exact up to rounding
        rng = np.random.default_rng(11)
        for _ in range(100):
            examples = random_examples(rng, m=3, n=20)
            model = random_model(rng, n=20)
            w = float(rng.uniform(1, 1e4))
            grad_w, grad_b = loss_gradient(model, examples, w)
            coords = rng.choice(20, size=5, replace=False)
            for k in coords:
                h = 1e-6 * max(1.0, abs(model.weights[k]))
                wp = model.weights.copy(); wp[k] += h
                wm = model.weights.copy(); wm[k] -= h
                up = loss(ReadoutModel(wp, model.intercept, 2.0), examples, w).total
                dn = loss(ReadoutModel(wm, model.intercept, 2.0), examples, w).total
                fd = (up - dn) / (2 * h)
                assert grad_w[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            h = 1e-6 * max(1.0, abs(model.intercept))
            up = loss(ReadoutModel(model.weights, model.intercept + h, 2.0), examples, w).total
            dn = loss(ReadoutModel(model.weights, model.intercept - h, 2.0), examples, w).total
            assert grad_b == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-7)

    def test_zero_at_perfect_fit_with_zero_weights(self):
        tr = TimeTrace(np.zeros(4, dtype=int), repetitions=1)
        model = ReadoutModel(np.zeros(4), intercept=0.25, reference_bin_width_ns=2.0)
        grad_w, grad_b = loss_gradient(model, [TrainingExample(tr, 0.25)], 1e4)
        assert np.all(grad_w == 0) and grad_b == 0


class TestTrain:
    def test_boundary_training_noiseless(self, preset_traces):
        _, _, t0, t1 = preset_traces
        model = train_boundary(t0, t1)
        assert abs(predict(model, t0) - 1.0) < 1e-3
        assert abs(predict(model, t1)) < 1e-3
        assert model.weights.min() >= 0.0
        # at least as good as the best gated-equivalent construction
        sweep = sweep_gate(t0, t1)
        best_gated = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        examples = [TrainingExample(t0, 1.0), TrainingExample(t1, 0.0)]
        assert model.training_loss.total <= \
            loss(best_gated, examples, 1e4).total * (1 + 1e-12)
        assert model.training_loss.variance_term <= \
            loss(best_gated, examples, 1e4).variance_term * (1 + 1e-12)

    def test_boundary_fidelity_bound(self, preset_traces):
        _, _, t0, t1 = preset_traces
        model = train_boundary(t0, t1)
        assert abs(predict(model, t0) - 1.0) + abs(predict(model, t1)) < 5e-3

    def test_identical_traces_rejected(self, preset_traces):
        _, _, t0, _ = preset_traces
        with pytest.raises(DegenerateTrainingError):
            train_boundary(t0, t0)

    def test_identical_targets_rejected(self, preset_traces):
        _, _, t0, t1 = preset_traces
        with pytest.raises(DegenerateTrainingError):
            train(np.stack([t0.counts, t1.counts]), [t0.repetitions, t1.repetitions],
                  [0.5, 0.5], t0.bin_width_ns)

    @pytest.mark.parametrize("counts, reps, targets, error", [
        ([[1, 2], [3, 4]], 10, [1.0, -0.1], DomainError),
        ([[1, 2], [3, 4]], 10, [1.5, 0.0], DomainError),
        ([[1, 2], [3, 4]], 10, [1.0, float("nan")], DomainError),
        ([[1, 2], [3, 4]], 10, [1.0, 0.5, 0.0], ShapeError),
        ([[1, 2], [3, 4]], [10, 10, 10], [1.0, 0.0], ShapeError),
        ([[1, 2], [3, 4]], 0, [1.0, 0.0], ParameterError),
        ([[1, 2], [3, 4]], 2.5, [1.0, 0.0], ParameterError),
        ([[1, 2]], 10, [1.0], DegenerateTrainingError),
        ([[1, 2], [3, 4]], 10, [0.5, 0.5], DegenerateTrainingError),
        ([[1, -2], [3, 4]], 10, [1.0, 0.0], ParameterError),
        ([[1, 2.5], [3, 4]], 10, [1.0, 0.0], ParameterError),
    ], ids=["target-below-0", "target-above-1", "target-nan", "target-count",
            "repetition-count", "zero-repetitions", "non-integer-repetitions",
            "single-row", "identical-targets", "negative-count", "non-integer-count"])
    def test_bad_training_arrays_rejected(self, counts, reps, targets, error):
        with pytest.raises(error):
            train(np.array(counts), reps, targets, 2.0)

    def test_scalar_and_per_row_repetitions_agree(self):
        counts, _, targets = as_arrays(random_examples(np.random.default_rng(5)))
        a = train(counts, 100, targets, 2.0)
        b = train(counts, np.full(len(counts), 100), targets, 2.0)
        assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept
        assert a.training_loss == b.training_loss

    def test_boundary_traces_of_unequal_bin_width_rejected(self, preset_traces):
        _, _, t0, t1 = preset_traces
        with pytest.raises(ShapeError):
            train_boundary(t0, TimeTrace(t1.counts, t1.repetitions, bin_width_ns=4.0))

    def test_swapped_labels_still_train(self, preset_traces):
        # dark trace labeled 1: no increasing nonnegative model exists, the
        # trainer falls back to a flat compromise instead of failing
        _, _, t0, t1 = preset_traces
        model = train_boundary(t1, t0)
        assert predict(model, t0) == pytest.approx(predict(model, t1), abs=0.2)

    def test_training_is_deterministic(self, preset_traces):
        _, _, t0, t1 = preset_traces
        a = train_boundary(t0, t1)
        b = train_boundary(t0, t1)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_noisy_training_matches_clean_training_variance(self, preset_traces):
        # models trained on 1e6- and 1e9-repetition boundaries give test
        # variances within 5% of each other
        p0, p1, *_ = preset_traces
        from nvreadout import simulate_rabi_dataset
        test, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5, seed=900,
                                        points=24)
        variances = {}
        for reps, seed in ((10**6, 701), (10**9, 703)):
            model = train_boundary(simulate_trace(p0, reps, seed),
                                   simulate_trace(p1, reps, seed + 1))
            variances[reps] = np.mean([prediction_variance(model, tr)
                                       for _, tr in test.points])
        assert variances[10**6] == pytest.approx(variances[10**9], rel=0.05)

    def test_variance_law_monte_carlo(self, preset_traces):
        p0, p1, t0, t1 = preset_traces
        model = train_boundary(t0, t1)
        profile = mix_profile(0.5, p0, p1)
        rng = np.random.default_rng(23)
        means = {}
        for reps in (10**5, 10**6, 10**7):
            vs = [prediction_variance(
                model, simulate_trace(profile, reps, seed=int(rng.integers(1 << 30))))
                for _ in range(20)]
            means[reps] = np.mean(vs)
        assert means[10**5] / means[10**6] == pytest.approx(10.0, rel=0.1)
        assert means[10**6] / means[10**7] == pytest.approx(10.0, rel=0.1)


def stated_objective_parts(data):
    """Normalized design of the trainer's stated objective, built from scratch."""
    counts, reps, targets = data
    rates = np.stack([row / r for row, r in zip(counts, reps)])
    scale = rates.max()
    z = rates / scale
    c = (z / reps[:, None]).sum(axis=0) / scale
    v_g = _gated_init(counts, reps, targets, 2.0) * scale
    return z, targets, c, v_g, scale


def solve(data, w):
    """The trainer's solve at prediction-term weight ``w``, from its own anchor:
    weights, intercept, Newton steps and KKT residual."""
    counts, reps, targets = data
    return _solve(counts / reps[:, None], reps, targets,
                  _gated_init(counts, reps, targets, 2.0), 100, w=w)


def nnls_oracle(data, weight_factor):
    """Minimize the stated objective as one stacked NNLS problem (b = b+ - b-)."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    z, t, c, v_g, scale = stated_objective_parts(data)
    m, n = z.shape
    a = np.vstack([np.hstack([z, np.ones((m, 1)), -np.ones((m, 1))]),
                   np.hstack([np.diag(np.sqrt(c / weight_factor)), np.zeros((n, 2))]),
                   np.hstack([np.sqrt(LAMBDA * m) * np.eye(n), np.zeros((n, 2))])])
    y = np.concatenate([t, np.zeros(n), np.sqrt(LAMBDA * m) * v_g])
    x, _ = nnls(a, y, maxiter=50 * n)
    return x[:n] / scale, x[n] - x[n + 1]


def kkt_residual(model, data, weight_factor):
    """Projected-gradient norm of the stated objective over (v >= 0, b)."""
    z, t, c, v_g, scale = stated_objective_parts(data)
    m = z.shape[0]
    v = model.weights * scale
    r = z @ v + model.intercept - t
    grad_v = (2 / m) * z.T @ r + 2 / (weight_factor * m) * c * v + 2 * LAMBDA * (v - v_g)
    grad_v = np.where(v > 0, grad_v, np.minimum(grad_v, 0.0))
    return float(np.sqrt(grad_v @ grad_v + (2 / m * r.sum()) ** 2))


@pytest.fixture(scope="module")
def solver_cases():
    """c05's boundary pair, c07's 60-point training set, small random sets.

    Each case is the examples and the prediction-term weight at which the
    solve is checked; ``train`` itself always solves at WEIGHT_FACTOR (1e4).
    """
    from conftest import SEED_BOUNDARY_CLEAN, SEED_RABI_TRAINING
    from nvreadout import assign_targets, fit_rabi, simulate_rabi_dataset
    p0, p1 = make_profiles(paper_like_params())
    cases = {"c05-boundary": ([
        TrainingExample(simulate_trace(p0, 10**7, SEED_BOUNDARY_CLEAN), 1.0),
        TrainingExample(simulate_trace(p1, 10**7, SEED_BOUNDARY_CLEAN + 1), 0.0)], 1e4)}
    train_set, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5,
                                         seed=SEED_RABI_TRAINING, points=60)
    sums = [tr.counts.sum() / tr.repetitions for _, tr in train_set.points]
    cases["c07-oscillation"] = (
        assign_targets(train_set, fit_rabi(train_set.durations, sums)), 1e4)
    # seed 1 holds a set (random-2) whose large-lambda solve stalls in
    # rounding unless a step that keeps the active set is accepted
    rng = np.random.default_rng(1)
    for k in range(10):
        cases[f"random-{k}"] = (random_examples(rng, m=int(rng.integers(2, 7))),
                                float(rng.uniform(1, 1e5)))
    # at weight_factor 1e6 one of these stalls just above an absolute dual
    # tolerance of 1e-13: the stopping rule must scale with |Z_c| v
    rng = np.random.default_rng(14)
    for k in range(20):
        cases[f"random-w1e6-{k}"] = (random_examples(rng, m=int(rng.integers(2, 10))), 1e6)
    return cases


class TestExactSolve:
    def test_matches_nnls_oracle(self, solver_cases):
        for name, (examples, w) in solver_cases.items():
            data = as_arrays(examples)
            found_w, found_b, _, _ = solve(data, w)
            weights, intercept = nnls_oracle(data, w)
            err_w = (np.abs(found_w - weights).max()
                     / max(np.abs(weights).max(), np.finfo(float).tiny))
            err_b = abs(found_b - intercept) / max(1.0, abs(intercept))
            assert err_w <= 1e-9 and err_b <= 1e-9, (name, err_w, err_b)

    def test_kkt_residual_at_returned_model(self, solver_cases):
        for name, (examples, w) in solver_cases.items():
            data = as_arrays(examples)
            weights, intercept, steps, kkt = solve(data, w)
            assert kkt_residual(ReadoutModel(weights, intercept, 2.0), data, w) <= 1e-9, name
            assert steps <= 100 and kkt <= 1e-9, name

    def test_train_is_the_solve_at_weight_factor(self, solver_cases):
        # bit for bit, so the two tests above hold for train at every case
        # whose weight is WEIGHT_FACTOR
        for name, (examples, _) in solver_cases.items():
            data = as_arrays(examples)
            model = train(*data, 2.0)
            weights, intercept, steps, kkt = solve(data, WEIGHT_FACTOR)
            assert np.array_equal(model.weights, weights), name
            assert model.intercept == intercept, name
            # the array loss recorded on the model is the loss of the examples
            assert model.training_loss == loss(model, examples, WEIGHT_FACTOR), name
            assert model.training_loss.weight_factor == WEIGHT_FACTOR
            recorded = dict(f.split("=") for f in model.trained_on.split(", ")[-4:])
            assert recorded == {"solver": "dual-newton", "lambda": repr(LAMBDA),
                                "iterations": str(steps), "kkt_residual": f"{kkt:.3e}"}, name

    def test_infinite_lambda_returns_gated_anchor(self, solver_cases):
        for name, (examples, w) in solver_cases.items():
            counts, reps, targets = as_arrays(examples)
            rates = counts / reps[:, None]
            anchor = _gated_init(counts, reps, targets, 2.0)
            weights, intercept, _, _ = _solve(rates, reps, targets, anchor,
                                              max_steps=100, lam=1e12, w=w)
            # relative to the anchor, or to 1 in normalized units for a zero anchor
            tol = 1e-9 * max(anchor.max(), 1.0 / rates.max())
            assert np.abs(weights - anchor).max() <= tol, name
            if name == "c05-boundary":
                # the anchor is the gated estimator over its own window
                gated = gated_equivalent_model(
                    examples[0].trace, examples[1].trace,
                    GateWindow(0, int(np.count_nonzero(anchor))))
                assert np.array_equal(anchor, gated.weights)
                assert intercept == pytest.approx(gated.intercept, rel=1e-9, abs=1e-12)

    def test_step_cap_raises(self, solver_cases):
        examples, _ = solver_cases["c05-boundary"]
        with pytest.raises(ConvergenceError, match="1 Newton steps"):
            train(*as_arrays(examples), 2.0, max_iterations=1)
        assert issubclass(ConvergenceError, ReadoutError)

    @pytest.mark.parametrize("bad", [0, 2.5, float("nan")],
                             ids=lambda bad: f"max_iterations-{bad}")
    def test_config_rejects_bad_values(self, solver_cases, bad):
        examples, _ = solver_cases["random-0"]
        with pytest.raises(ParameterError, match="max_iterations must be an integer >= 1"):
            train(*as_arrays(examples), 2.0, max_iterations=bad)


class TestGatedEquivalentModel:
    def test_exact_boundary_mapping(self, preset_traces):
        _, _, t0, t1 = preset_traces
        model = gated_equivalent_model(t0, t1, GateWindow(0, 100))
        assert predict(model, t0) == pytest.approx(1.0, abs=1e-12)
        assert predict(model, t1) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_window_rejected(self, preset_traces):
        _, _, t0, t1 = preset_traces
        with pytest.raises(Exception):
            gated_equivalent_model(t1, t1, GateWindow(0, 100))

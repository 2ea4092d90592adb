"""Weighted readout model: prediction, loss, gradient, closed-form training."""

import numpy as np
import pytest

from nvreadout import (ParameterError, ReadoutModel, TimeTrace, TrainingExample,
                       expected_trace, gate_sum, gated_equivalent_model, gated_population,
                       loss, loss_gradient, make_profiles, mix_profile, paper_like_params,
                       predict, prediction_variance, simulate_trace, sweep_gate, train,
                       train_boundary)
from nvreadout.regression import GROUPS, WEIGHT_FACTOR

from conftest import noise_per_contrast


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


# 1e6- and 1e9-repetition boundary seeds; each draws seed and seed + 1
NOISE_SEED_PAIRS = ((9101, 9201), (9103, 9203), (9105, 9205), (9107, 9207), (9109, 9209))



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

    @pytest.mark.parametrize("weight, match", [
        (-1.0, "nonnegative"), (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite")])
    def test_bad_weight_names_its_first_row(self, weight, match):
        with pytest.raises(ParameterError, match=f"^weights must be {match}$") as err:
            ReadoutModel(np.array([0.5, 0.0, weight, weight, 1.0]), intercept=0.0,
                         reference_bin_width_ns=2.0)
        assert err.value.row == 2

    def test_weights_a_caller_can_write_are_copied(self):
        # the counts' rule: a caller's float64 array is neither frozen nor shared
        weights, base = np.ones(5), np.ones(5)
        model = ReadoutModel(weights, 0.0, 2.0)
        of_view = ReadoutModel(base[:], 0.0, 2.0)
        weights[0] = 2.0                    # the caller can still write here
        base[0] = 7.0
        assert model.weights[0] == 1.0 and of_view.weights[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.weights[0] = 3.0
        sealed = np.ones(5)
        sealed.setflags(write=False)        # no writable array shares it: kept
        assert ReadoutModel(sealed, 0.0, 2.0).weights is sealed

    def test_zero_weights_give_intercept(self):
        model = ReadoutModel(np.zeros(4), intercept=0.37,
                             reference_bin_width_ns=2.0)
        tr = TimeTrace(np.array([5, 6, 7, 8]), repetitions=3)
        assert predict(model, tr) == 0.37

    def test_gated_equivalent_reproduces_gated_estimator(self, preset_traces):
        p0, p1, t0, t1 = preset_traces
        window = 230
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
        with pytest.raises(ParameterError, match="data have 2 bins, model expects 4"):
            predict(model, TimeTrace(np.array([1, 2]), repetitions=1))


class TestPredictionVariance:
    def test_zero_trace(self):
        model = ReadoutModel(np.ones(3), 0.1, 2.0)
        tr = TimeTrace(np.zeros(3, dtype=int), repetitions=5)
        assert prediction_variance(model, tr) == 0.0

    def test_scales_inversely_with_repetitions(self, preset_traces):
        p0, p1, t0, t1 = preset_traces
        model = gated_equivalent_model(t0, t1, 230)
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
        model = gated_equivalent_model(t0, t1, 150)
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
        with pytest.raises(ParameterError, match="need at least one training example"):
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
        with pytest.raises(ParameterError, match="boundary traces are identical"):
            train_boundary(t0, t0)

    def test_identical_targets_rejected(self, preset_traces):
        _, _, t0, t1 = preset_traces
        with pytest.raises(ParameterError, match="targets need at least two distinct values"):
            train(np.stack([t0.counts, t1.counts]), [t0.repetitions, t1.repetitions],
                  [0.5, 0.5], t0.bin_width_ns)

    @pytest.mark.parametrize("counts, reps, targets, match", [
        ([[1, 2], [3, 4]], 10, [1.0, -0.1], r"targets must be in \[0, 1\]"),
        ([[1, 2], [3, 4]], 10, [1.5, 0.0], r"targets must be in \[0, 1\]"),
        ([[1, 2], [3, 4]], 10, [1.0, float("nan")], r"targets must be in \[0, 1\]"),
        ([[1, 2], [3, 4]], 10, [1.0, 0.5, 0.0], "need one repetition count and one target"),
        ([[1, 2], [3, 4]], [10, 10, 10], [1.0, 0.0], "need one repetition count and one target"),
        ([[1, 2], [3, 4]], 0, [1.0, 0.0], "repetitions must be an integer >= 1"),
        ([[1, 2], [3, 4]], 2.5, [1.0, 0.0], "repetitions must be an integer >= 1"),
        ([[1, 2]], 10, [1.0], "targets need at least two distinct values"),
        ([[1, 2], [3, 4]], 10, [0.5, 0.5], "targets need at least two distinct values"),
        ([[1, -2], [3, 4]], 10, [1.0, 0.0], "counts -2 is negative"),
        ([[1, 2.5], [3, 4]], 10, [1.0, 0.0], "counts must be integers"),
    ], ids=["target-below-0", "target-above-1", "target-nan", "target-count",
            "repetition-count", "zero-repetitions", "non-integer-repetitions",
            "single-row", "identical-targets", "negative-count", "non-integer-count"])
    def test_bad_training_arrays_rejected(self, counts, reps, targets, match):
        with pytest.raises(ParameterError, match=match):
            train(np.array(counts), reps, targets, 2.0)

    def test_scalar_and_per_row_repetitions_agree(self):
        counts, _, targets = as_arrays(random_examples(np.random.default_rng(5)))
        a = train(counts, 100, targets, 2.0)
        b = train(counts, np.full(len(counts), 100), targets, 2.0)
        assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept
        assert a.training_loss == b.training_loss

    def test_boundary_traces_of_unequal_bin_width_rejected(self, preset_traces):
        _, _, t0, t1 = preset_traces
        with pytest.raises(ParameterError, match=r"bin width \(2.0 vs 4.0 ns\)"):
            train_boundary(t0, TimeTrace(t1.counts, t1.repetitions, bin_width_ns=4.0))

    def test_swapped_labels_still_train(self, preset_traces):
        # dark trace labeled 1: no bin group has a positive slope, so the
        # trainer returns the flat model at the mean target instead of failing
        _, _, t0, t1 = preset_traces
        model = train_boundary(t1, t0)
        assert np.all(model.weights == 0.0) and model.intercept == 0.5
        assert predict(model, t0) == predict(model, t1) == 0.5
        counts = np.stack([t1.counts, t0.counts, t0.counts])
        model = train(counts, t0.repetitions, [0.9, 0.2, 0.1], t0.bin_width_ns)
        assert np.all(model.weights == 0.0) and model.intercept == pytest.approx(0.4)

    def test_training_is_deterministic(self, preset_traces):
        _, _, t0, t1 = preset_traces
        a = train_boundary(t0, t1)
        b = train_boundary(t0, t1)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_noisy_training_noise_matches_clean_training(self, preset_traces):
        # the noise per unit contrast squared, N = sum w^2 m / (w . delta)^2 on
        # the true profiles, is calibration-free: for every seed pair, training
        # on 1e6 boundaries costs at most 10% over 1e9 and still beats the
        # min-V gate of the same 1e6 boundaries
        p0, p1, *_ = preset_traces
        for noisy_seed, clean_seed in NOISE_SEED_PAIRS:
            noisy0 = simulate_trace(p0, 10**6, noisy_seed)
            noisy1 = simulate_trace(p1, 10**6, noisy_seed + 1)
            clean = train_boundary(simulate_trace(p0, 10**9, clean_seed),
                                   simulate_trace(p1, 10**9, clean_seed + 1))
            noisy = train_boundary(noisy0, noisy1)
            gate = gated_equivalent_model(
                noisy0, noisy1, sweep_gate(noisy0, noisy1).min_variance.window)
            n_noisy = noise_per_contrast(noisy, p0, p1)
            assert n_noisy <= 1.10 * noise_per_contrast(clean, p0, p1), noisy_seed
            assert n_noisy < noise_per_contrast(gate, p0, p1), noisy_seed

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


def group_sums(data):
    """Per-bin least-squares slope and rate at target 1/2, summed over the
    trainer's bin groups; built with lstsq, independently of the trainer."""
    counts, reps, targets = data
    rates = counts / reps[:, None]
    design = np.column_stack([np.ones_like(targets), targets])
    (intercept, slope), *_ = np.linalg.lstsq(design, rates, rcond=None)
    n = rates.shape[1]
    edges = sorted({0, *np.round(np.geomspace(1, n, GROUPS + 1)).astype(int)})
    mid = intercept + slope / 2
    return (np.array([slope[a:b].sum() for a, b in zip(edges, edges[1:])]),
            np.array([mid[a:b].sum() for a, b in zip(edges, edges[1:])]), edges)


@pytest.fixture(scope="module")
def training_sets():
    """c05's boundary pair, a 1e5 boundary pair, c07's 60-point training set
    and small random sets, as (counts, repetitions, targets) arrays."""
    from conftest import SEED_BOUNDARY_CLEAN, SEED_BOUNDARY_NOISY, SEED_RABI_TRAINING
    from nvreadout import assign_targets, fit_rabi, simulate_rabi_dataset
    p0, p1 = make_profiles(paper_like_params())
    sets = {f"boundary-{reps:.0e}": as_arrays([
        TrainingExample(simulate_trace(p0, reps, seed), 1.0),
        TrainingExample(simulate_trace(p1, reps, seed + 1), 0.0)])
        for reps, seed in ((10**7, SEED_BOUNDARY_CLEAN), (10**5, SEED_BOUNDARY_NOISY))}
    train_set, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5,
                                         seed=SEED_RABI_TRAINING, points=60)
    fit = fit_rabi(train_set.durations, train_set.counts.sum(axis=1) / train_set.repetitions)
    sets["c07-oscillation"] = as_arrays(assign_targets(train_set, fit))
    rng = np.random.default_rng(3)
    for k in range(5):
        sets[f"random-{k}"] = as_arrays(random_examples(rng, m=int(rng.integers(2, 7))))
    return sets


class TestClosedForm:
    @pytest.mark.parametrize("name", ["boundary-1e+07", "boundary-1e+05"])
    def test_boundary_pair_maps_to_exactly_one_and_zero(self, training_sets, name):
        counts, reps, _ = training_sets[name]
        model = train_boundary(TimeTrace(counts[0], reps[0]), TimeTrace(counts[1], reps[1]))
        assert predict(model, TimeTrace(counts[0], reps[0])) == pytest.approx(1.0, abs=1e-12)
        assert predict(model, TimeTrace(counts[1], reps[1])) == pytest.approx(0.0, abs=1e-12)

    def test_group_weights_match_scipy_oracle(self, training_sets):
        # over group-constant w >= 0, maximize (w . delta)^2 / sum w^2 m, which
        # is minimizing sum w^2 m at w . delta = 1: in x = w sqrt(m) one NNLS
        # problem with the constraint as a heavily weighted row
        nnls = pytest.importorskip("scipy.optimize").nnls
        for name, data in training_sets.items():
            delta, mid, edges = group_sums(data)
            assert np.all(mid > 0), name
            a = delta / np.sqrt(mid)
            x, _ = nnls(np.vstack([1e4 * a, np.eye(len(a))]),
                        np.r_[1e4, np.zeros(len(a))])
            oracle = x / np.sqrt(mid)
            weights = train(*data, 2.0).weights
            assert np.all(weights == np.repeat(weights[edges[:-1]], np.diff(edges))), name
            found = weights[edges[:-1]]
            if not np.any(delta > 0):           # nothing to weight: the flat model
                assert np.all(found == 0) and np.all(oracle == 0), name
                continue
            assert np.abs(found / found.sum() - oracle / oracle.sum()).max() <= 1e-9, name
            if name == "boundary-1e+05":    # the positive part matters here
                assert np.any(delta < 0) and np.any(found == 0)

    def test_trained_on_and_loss_record_the_recipe(self, training_sets):
        for name, data in training_sets.items():
            model = train(*data, 2.0)
            examples = [TrainingExample(TimeTrace(c, r), t) for c, r, t in zip(*data)]
            assert model.training_loss == loss(model, examples, WEIGHT_FACTOR), name
            assert model.training_loss.weight_factor == WEIGHT_FACTOR
            recorded = dict(f.split("=") for f in model.trained_on.split(", ")[-3:])
            assert recorded == {"solver": "closed-form", "groups": str(GROUPS),
                                "iterations": "0"}, name

    def test_calibration_is_the_least_squares_fit_of_the_targets(self, training_sets):
        counts, reps, targets = training_sets["c07-oscillation"]
        model = train(counts, reps, targets, 2.0)
        p = np.array([predict(model, TimeTrace(c, r)) for c, r in zip(counts, reps)])
        # residuals of a least-squares line sum to zero and are uncorrelated
        # with its fitted values
        assert abs((p - targets).sum()) <= 1e-12 * len(p)
        assert abs((p - targets) @ (p - p.mean())) <= 1e-12 * len(p)

    def test_group_with_no_positive_mean_rate_gets_no_weight(self):
        # targets 1 and 0.6 put target 1/2 outside the data: bin 0's fitted
        # rate there is 10 - 25 * 0.5 = -2.5, so only bin 1 is weighted
        model = train([[10, 5], [0, 4]], 1, [1.0, 0.6], 2.0)
        assert model.weights[0] == 0.0 and model.weights[1] > 0.0
        assert predict(model, TimeTrace([10, 5], 1)) == pytest.approx(1.0, abs=1e-12)
        assert predict(model, TimeTrace([0, 4], 1)) == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("value", [0, 2.5, float("nan")],
                             ids=lambda value: f"max_iterations-{value}")
    def test_max_iterations_is_not_a_parameter(self, training_sets, value):
        # the step cap went with the iteration: any value is a TypeError
        with pytest.raises(TypeError, match="max_iterations"):
            train(*training_sets["boundary-1e+05"], 2.0, max_iterations=value)


class TestGatedEquivalentModel:
    def test_exact_boundary_mapping(self, preset_traces):
        _, _, t0, t1 = preset_traces
        model = gated_equivalent_model(t0, t1, 100)
        assert predict(model, t0) == pytest.approx(1.0, abs=1e-12)
        assert predict(model, t1) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_window_rejected(self, preset_traces):
        _, _, t0, t1 = preset_traces
        with pytest.raises(Exception):
            gated_equivalent_model(t1, t1, 100)

    def test_overrunning_window_rejected(self, preset_traces):
        _, _, t0, t1 = preset_traces
        with pytest.raises(ParameterError, match="gate width 501 overruns trace of 500 bins"):
            gated_equivalent_model(t0, t1, len(t0) + 1)

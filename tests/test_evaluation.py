"""Method comparison and repair."""

from dataclasses import fields

import numpy as np
import pytest

from conftest import gated_estimate, gates
from nvreadout import (EmissionProfile, ParameterError, ReadoutModel, SweepResult, TimeTrace,
                       evaluate, expected_trace, fit_rabi, gate_sum, gated_equivalent_model,
                       make_profiles, mix_profile, paper_like_params, repair,
                       simulate_rabi_dataset, simulate_trace, sweep_gate, train_boundary)
from nvreadout.evaluation import METHOD_MAX_C, METHOD_MIN_V, METHOD_ML
from nvreadout.rabi import RabiDataset


@pytest.fixture(scope="module")
def setup():
    p0, p1 = make_profiles(paper_like_params())
    t0 = simulate_trace(p0, 10**7, seed=201, label="bright")
    t1 = simulate_trace(p1, 10**7, seed=202, label="dark")
    sweep = sweep_gate(t0, t1)
    test, truth = simulate_rabi_dataset(p0, p1, repetitions=10**5, seed=300)
    return p0, p1, t0, t1, sweep, test, truth


@pytest.fixture(scope="module")
def gate_models(setup):
    return gates(setup[2], setup[3])


class TestEvaluate:
    def test_gated_equivalent_model_row_matches_gate_row(self, setup, gate_models):
        _, _, t0, t1, sweep, test, truth = setup
        model = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        report = evaluate(test, *gate_models, model, truth)
        ml = report.method(METHOD_ML)
        gate = report.method(METHOD_MIN_V)
        assert ml.avg_formula_variance == pytest.approx(
            gate.avg_formula_variance, rel=1e-12)
        assert ml.empirical_mse == pytest.approx(gate.empirical_mse, rel=1e-12)
        assert abs(report.reductions[(METHOD_ML, METHOD_MIN_V)]) < 1e-12

    def test_gate_rows_match_gate_sum_oracle(self, setup, gate_models):
        # the gated rows are the gate_sum/gated_estimate estimator with
        # the 1e7-repetition boundary sums rescaled to the 1e5-repetition
        # test set, applied trace by trace
        _, _, t0, t1, sweep, test, truth = setup
        w_c, w_v = sweep.max_contrast.window, sweep.min_variance.window
        model = gated_equivalent_model(t0, t1, w_v)
        report = evaluate(test, *gate_models, model, truth)
        repaired = repair(test, gate_models[1], model)
        reps = test.repetitions
        for name, window in ((METHOD_MAX_C, w_c), (METHOD_MIN_V, w_v)):
            bright = gate_sum(t0, window) * reps / t0.repetitions
            dark = gate_sum(t1, window) * reps / t1.repetitions
            p, v = np.array([gated_estimate(gate_sum(trace, window), bright, dark)
                             for _, trace in test.points]).T
            row = report.method(name)
            assert row.avg_formula_variance == pytest.approx(v.mean(), rel=1e-12)
            assert row.empirical_mse == pytest.approx(np.mean((p - truth) ** 2),
                                                      rel=1e-12)
            # the sinusoid fit turns last-bit differences of its input into
            # ~1e-9 relative ones, so the contrast is held to 1e-8
            assert row.contrast_measured == pytest.approx(
                2.0 * fit_rabi(test.durations, p).amplitude, rel=1e-8)
        # the last window is min-V: repair's original series is its oracle
        assert repaired.p_original == pytest.approx(p, rel=0, abs=1e-12)

    def test_reductions_recompute_from_averages(self, setup, gate_models):
        _, _, t0, t1, sweep, test, truth = setup
        model = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        report = evaluate(test, *gate_models, model, truth)
        v = {m.method: m.avg_formula_variance for m in report.methods}
        for (a, b), r in report.reductions.items():
            assert r == pytest.approx(1.0 - v[a] / v[b], abs=1e-12)

    def test_truth_vs_fit_reference(self, setup, gate_models):
        _, _, t0, t1, sweep, test, truth = setup
        model = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        with_truth = evaluate(test, *gate_models, model, truth)
        without = evaluate(test, *gate_models, model)
        assert with_truth.truth_based and not without.truth_based
        # same variances either way; only the error reference changes
        for m_t, m_f in zip(with_truth.methods, without.methods):
            assert m_t.avg_formula_variance == m_f.avg_formula_variance

    def test_min_v_beats_max_c_on_truth_mse(self, setup, gate_models):
        _, _, t0, t1, sweep, test, truth = setup
        model = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        report = evaluate(test, *gate_models, model, truth)
        assert report.method(METHOD_ML).empirical_mse <= \
            report.method(METHOD_MAX_C).empirical_mse

    @pytest.mark.parametrize("edit, match, row", [
        (lambda t: t[:-1], "truth length differs from test set", None),
        (lambda t: np.full_like(t, np.nan), r"truth must be in \[0, 1\], got nan", 0),
        (lambda t: 5 * t, r"truth must be in \[0, 1\], got 5.0", 0)],
        ids=["short", "all-nan", "times-5"])
    def test_truth_is_one_population_per_point(self, setup, gate_models, edit, match, row):
        # an all-nan truth once gave a nan MSE for every method, 5 x truth MSEs of ~6
        _, _, t0, t1, sweep, test, truth = setup
        model = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        with pytest.raises(ParameterError, match=match) as err:
            evaluate(test, *gate_models, model, edit(truth))
        assert err.value.row == row

    def test_deterministic(self, setup, gate_models):
        _, _, t0, t1, sweep, test, truth = setup
        model = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        a = evaluate(test, *gate_models, model, truth)
        b = evaluate(test, *gate_models, model, truth)
        assert a == b


class TestRepair:
    def test_noiseless_repaired_matches_original(self, setup, gate_models):
        p0, p1, t0, t1, sweep, *_ = setup
        window = sweep.min_variance.window
        model = gated_equivalent_model(t0, t1, window)
        durations = np.linspace(0, 600, 30)
        counts = [expected_trace(mix_profile(0.5 + 0.5 * np.cos(2 * np.pi * d / 200.0),
                                             p0, p1), 10**7).counts
                  for d in durations]
        noiseless = RabiDataset(durations, np.stack(counts), 10**7)
        result = repair(noiseless, gate_models[1], model)
        assert result.p_repaired == pytest.approx(result.p_original, abs=5e-3)

    def test_variance_ranking_proxy(self, setup, gate_models):
        # with ground truth available the formula variance ranks methods the
        # same way as the empirical error in the vast majority of replications
        p0, p1, t0, t1, sweep, _, _ = setup
        model = gated_equivalent_model(t0, t1, sweep.min_variance.window)
        agree = 0
        runs = 20
        for k in range(runs):
            test, truth = simulate_rabi_dataset(p0, p1, repetitions=10**5,
                                                seed=1000 + 100 * k)
            report = evaluate(test, *gate_models, model, truth)
            by_var = min(report.methods, key=lambda m: m.avg_formula_variance)
            by_mse = min(report.methods, key=lambda m: m.empirical_mse)
            # the ML row here is the min-V gate in model form: identical
            # variances, so compare the gate rows only
            gates = [m for m in report.methods if m.method != METHOD_ML]
            by_var = min(gates, key=lambda m: m.avg_formula_variance)
            by_mse = min(gates, key=lambda m: m.empirical_mse)
            agree += by_var.method == by_mse.method
        assert agree >= 0.95 * runs


class TestReadOnly:
    @pytest.mark.parametrize("kind", ["TimeTrace", "EmissionProfile", "RabiDataset",
                                      "ReadoutModel", "SweepResult", "RepairResult"])
    def test_every_array_field_rejects_a_write(self, setup, gate_models, kind):
        # as the package makes them, and as made by hand from arrays a caller can
        # write: a write into a sweep curve would move its optima
        p0, _, t0, t1, sweep, test, _ = setup
        trained = train_boundary(t0, t1)
        made = {
            "TimeTrace": [t0, TimeTrace(np.arange(4), 3)],
            "EmissionProfile": [p0, EmissionProfile(np.ones(4))],
            "RabiDataset": [test, RabiDataset(np.arange(3.0), np.ones((3, 4), int), 3)],
            "ReadoutModel": [gate_models[1], trained, ReadoutModel(np.ones(4), 0.0, 2.0)],
            "SweepResult": [sweep, SweepResult(2.0, 3, np.arange(2.0, 6.0), np.ones(4))],
            "RepairResult": [repair(test, gate_models[1], trained)],
        }[kind]
        for obj in made:
            arrays = {f.name: getattr(obj, f.name) for f in fields(obj)
                      if isinstance(getattr(obj, f.name), np.ndarray)}
            assert len(arrays) == {"SweepResult": 4, "RepairResult": 4,
                                   "RabiDataset": 2}.get(kind, 1)
            for name, a in arrays.items():
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 1

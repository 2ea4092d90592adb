"""Acceptance suite: one test per shipping criterion, each printing a
[PASS]/[FAIL] line with its measured numbers.

Every scenario is fully seeded and deterministic; stated runtime budgets
are asserted alongside the numeric tolerances.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import (SEED_BOUNDARY_NOISY, SEED_RABI_TRAINING, gated_estimate, gates,
                      noise_per_contrast)
import nvreadout
from nvreadout import (ReadoutModel, SweepResult, TimeTrace,
                       TrainingExample, assign_targets,
                       evaluate, fit_rabi, gated_equivalent_model,
                       gate_sum, loss, loss_gradient,
                       make_profiles, mix_profile, paper_like_params, predict,
                       prediction_variance, repair, simulate_rabi_dataset,
                       simulate_trace, sweep_gate,
                       train_boundary, train_rabi, expected_trace)
from nvreadout import io as nvio
from nvreadout.evaluation import METHOD_MAX_C, METHOD_MIN_V, METHOD_ML


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_c01_total_variance_closed_form():
    """Closed form vs numeric integration, 100 random pairs, <1e-9 rel."""
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 1.0, 200_001)
    with Timer() as t:
        worst = 0.0
        for _ in range(100):
            dark = rng.uniform(0.1, 1e6)
            bright = dark + rng.uniform(1e-3, 1e6)
            integrand = (grid * bright + (1.0 - grid) * dark) / (bright - dark) ** 2
            oracle = float(np.trapezoid(integrand, grid))
            err = abs(SweepResult(2.0, 1, [bright], [dark]).total_variance[0] - oracle) / oracle
            worst = max(worst, err)
    ok = worst < 1e-9 and t.elapsed < 1.0
    report("criterion 1 (closed-form total variance)", ok,
           f"worst relative error {worst:.3e}, runtime {t.elapsed:.2f}s")


def test_c02_gradient_check():
    """Analytic gradient vs central differences, 100 instances, <1e-5 rel."""
    rng = np.random.default_rng(77)
    worst = 0.0
    with Timer() as t:
        for _ in range(100):
            n = int(rng.integers(10, 40))
            examples = []
            for _ in range(int(rng.integers(2, 6))):
                reps = int(rng.integers(10, 2000))
                counts = rng.integers(0, 60, size=n)
                examples.append(TrainingExample(
                    TimeTrace(counts, repetitions=reps), float(rng.uniform(0, 1))))
            model = ReadoutModel(rng.uniform(0, 2, size=n), float(rng.normal()), 2.0)
            w = float(rng.uniform(1, 1e4))
            grad_w, grad_b = loss_gradient(model, examples, w)
            for k in rng.choice(n, size=min(20, n), replace=False):
                h = 1e-6 * max(1.0, abs(model.weights[k]))
                wp = model.weights.copy(); wp[k] += h
                wm = model.weights.copy(); wm[k] -= h
                fd = (loss(ReadoutModel(wp, model.intercept, 2.0), examples, w).total
                      - loss(ReadoutModel(wm, model.intercept, 2.0), examples, w).total
                      ) / (2 * h)
                scale = max(abs(fd), abs(grad_w[k]), 1e-9)
                worst = max(worst, abs(grad_w[k] - fd) / scale)
            h = 1e-6 * max(1.0, abs(model.intercept))
            fd = (loss(ReadoutModel(model.weights, model.intercept + h, 2.0),
                       examples, w).total
                  - loss(ReadoutModel(model.weights, model.intercept - h, 2.0),
                         examples, w).total) / (2 * h)
            worst = max(worst, abs(grad_b - fd) / max(abs(fd), abs(grad_b), 1e-9))
    ok = worst < 1e-5 and t.elapsed < 10.0
    report("criterion 2 (gradient vs finite differences)", ok,
           f"worst relative error {worst:.3e}, runtime {t.elapsed:.2f}s")


def test_c03_gated_equivalence_oracle():
    """Gated-equivalent model == gated estimator on 1000 traces, <1e-12."""
    params = paper_like_params()
    profile0, profile1 = make_profiles(params)
    trace0 = expected_trace(profile0, 10**7)
    trace1 = expected_trace(profile1, 10**7)
    window = 230
    model = gated_equivalent_model(trace0, trace1, window)
    bright = gate_sum(trace0, window)
    dark = gate_sum(trace1, window)
    rng = np.random.default_rng(12)
    worst_p = worst_v = 0.0
    with Timer() as t:
        for _ in range(1000):
            pop = float(rng.uniform(0, 1))
            trace = simulate_trace(mix_profile(pop, profile0, profile1),
                                   10**5, seed=int(rng.integers(1 << 62)))
            scale = trace.repetitions / trace0.repetitions
            p_ref, v_ref = gated_estimate(gate_sum(trace, window),
                                          bright * scale, dark * scale)
            worst_p = max(worst_p, abs(predict(model, trace) - p_ref) /
                          max(abs(p_ref), 1.0))
            worst_v = max(worst_v, abs(prediction_variance(model, trace) - v_ref) /
                          v_ref)
    ok = worst_p < 1e-12 and worst_v < 1e-12 and t.elapsed < 10.0
    report("criterion 3 (gated-equivalent oracle)", ok,
           f"worst population error {worst_p:.2e}, worst variance error "
           f"{worst_v:.2e}, runtime {t.elapsed:.2f}s")


def test_c04_sweep_shape():
    """Noiseless sweep: unique interior optima, contrast one before variance."""
    params = paper_like_params()
    profile0, profile1 = make_profiles(params)
    with Timer() as t:
        sweep = sweep_gate(expected_trace(profile0, 10**9),
                           expected_trace(profile1, 10**9))
        c, v = sweep.contrast, sweep.total_variance
        i_c, i_v = int(np.argmax(c)), int(np.argmin(v))
        interior = 0 < i_c < len(c) - 1 and 0 < i_v < len(v) - 1
        unimodal = (np.all(np.diff(c[:i_c + 1]) > 0) and np.all(np.diff(c[i_c:]) < 0)
                    and np.all(np.diff(v[:i_v + 1]) < 0) and np.all(np.diff(v[i_v:]) > 0))
        ordered = sweep.max_contrast.window < sweep.min_variance.window
    ok = interior and unimodal and ordered and t.elapsed < 5.0
    report("criterion 4 (sweep shape)", ok,
           f"max-C at {sweep.max_contrast.window * 2} ns "
           f"(C={sweep.max_contrast.contrast:.4f}), min-V at "
           f"{sweep.min_variance.window * 2} ns; interior={interior} "
           f"unimodal={unimodal} ordered={ordered}, runtime {t.elapsed:.2f}s")


def test_c05_boundary_training_reduction(clean_boundary_setup, test_set_1e5):
    """1e7-boundary-trained model: >=30% below max-C, <=1.02x min-V."""
    s = clean_boundary_setup
    test, truth = test_set_1e5
    with Timer() as t:
        rep = evaluate(test, *gates(s.trace0, s.trace1), s.model, truth)
        fid = abs(predict(s.model, s.trace0) - 1.0) + abs(predict(s.model, s.trace1))
    v = {m.method: m.avg_formula_variance for m in rep.methods}
    reduction = rep.reductions[(METHOD_ML, METHOD_MAX_C)]
    ratio = v[METHOD_ML] / v[METHOD_MIN_V]
    ok = reduction >= 0.30 and ratio <= 1.02 and fid < 5e-3 and t.elapsed < 120
    report("criterion 5 (boundary-training reduction)", ok,
           f"ML {100 * reduction:.1f}% below max-C, ML/min-V = {ratio:.6f}, "
           f"boundary fidelity {fid:.2e}, eval runtime {t.elapsed:.1f}s")


def test_c06_training_size_robustness(test_set_1e5):
    """Training on noisy 1e5 boundaries stays within 1.05x of min-V."""
    params = paper_like_params()
    profile0, profile1 = make_profiles(params)
    test, truth = test_set_1e5
    with Timer() as t:
        trace0 = simulate_trace(profile0, 10**5, SEED_BOUNDARY_NOISY)
        trace1 = simulate_trace(profile1, 10**5, SEED_BOUNDARY_NOISY + 1)
        model = train_boundary(trace0, trace1)
        rep = evaluate(test, *gates(trace0, trace1), model, truth)
    v = {m.method: m.avg_formula_variance for m in rep.methods}
    ratio = v[METHOD_ML] / v[METHOD_MIN_V]
    ok = ratio <= 1.05 and t.elapsed < 120
    report("criterion 6 (training-size robustness)", ok,
           f"ML/min-V = {ratio:.6f} with 1e5-repetition training, "
           f"runtime {t.elapsed:.1f}s")


def test_c07_rabi_training_repair():
    """Oscillation-trained repair: rms vs truth not worse, contrast kept.

    At 1e5 repetitions the per-bin shot noise of the 60 training traces is
    strong; the trainer pools every row into one slope per bin and sums
    slopes and rates over log-spaced bin groups, so its weights do not
    follow that noise.
    """
    params = paper_like_params()
    profile0, profile1 = make_profiles(params)
    with Timer() as t:
        train_set, _ = simulate_rabi_dataset(
            profile0, profile1, repetitions=10**5, seed=SEED_RABI_TRAINING,
            points=60)
        test_set, truth = simulate_rabi_dataset(
            profile0, profile1, repetitions=5 * 10**5,
            seed=SEED_RABI_TRAINING + 10_000, points=60)
        sums = [tr.counts.sum() / tr.repetitions for _, tr in train_set.points]
        fit = fit_rabi(train_set.durations, sums)
        targets = [ex.target for ex in assign_targets(train_set, fit)]
        model = train_rabi(train_set)

        # the only boundary information in this scenario is the oscillation
        # set itself: its extremal-target traces calibrate the original
        boundary0 = train_set.points[int(np.argmax(targets))][1]
        boundary1 = train_set.points[int(np.argmin(targets))][1]
        result = repair(test_set, gates(boundary0, boundary1)[1], model)

        rms_orig = float(np.sqrt(np.mean((result.p_original - truth) ** 2)))
        rms_rep = float(np.sqrt(np.mean((result.p_repaired - truth) ** 2)))
        c_orig = 2.0 * result.fit_original.amplitude
        c_rep = 2.0 * result.fit_repaired.amplitude
    ok = rms_rep <= rms_orig and c_rep >= c_orig - 1e-3 and t.elapsed < 180
    report("criterion 7 (oscillation-training repair)", ok,
           f"rms vs truth: repaired {rms_rep:.4f} <= original {rms_orig:.4f}; "
           f"contrast: repaired {c_rep:.4f} >= original {c_orig:.4f} - 1e-3, "
           f"runtime {t.elapsed:.1f}s")


def test_c08_poisson_moments():
    """Simulator moments at 1e6 repetitions: means within 5 SE, dispersion in [0.9, 1.1]."""
    params = paper_like_params()
    profile0, _ = make_profiles(params)
    mu = 10**6 * profile0.rates
    replicates = 40
    with Timer() as t:
        draws = np.stack([
            simulate_trace(profile0, 10**6, seed=3000 + k).counts
            for k in range(replicates)])
        mean_dev = np.abs(draws.mean(axis=0) - mu) / np.sqrt(mu / replicates)
        pooled_dispersion = float(np.mean((draws - mu) ** 2 / mu))
    ok = (mean_dev.max() < 5.0 and 0.9 < pooled_dispersion < 1.1
          and t.elapsed < 30)
    report("criterion 8 (Poisson simulator moments)", ok,
           f"worst mean deviation {mean_dev.max():.2f} SE over "
           f"{replicates}x{len(mu)} bins, dispersion {pooled_dispersion:.4f}, "
           f"runtime {t.elapsed:.1f}s")


def test_c09_weight_shape_correlation(clean_boundary_setup):
    """Boundary-trained weights track the measured differential signal."""
    s = clean_boundary_setup
    with Timer() as t:
        d = s.trace0.rates - s.trace1.rates
        r = float(np.corrcoef(s.model.weights, d)[0, 1])
    ok = r > 0.5 and t.elapsed < 1.0
    report("criterion 9 (weight-shape correlation)", ok,
           f"Pearson r = {r:.3f} vs measured differential, runtime {t.elapsed:.2f}s")


def _readme_pipeline(root):
    """The README pipeline at 1e6 boundary repetitions, then three scans.

    ``scan240`` is a benchmark-size scan (240 points x 500 bins), fitted,
    evaluated and repaired.  ``scan240-1e7`` is that scan at 1e7 repetitions:
    its counts pass the 500-bin row width, so the scan writer takes its
    template path, not its table path.  ``scan2400`` is large enough that a
    product of the scan with stacked models would sum in an order that
    follows the BLAS thread count.
    """
    data, scan, big = root / "data", root / "scan240", root / "scan2400"
    pair = ["--trace0", str(data / "boundary0.csv"), "--trace1", str(data / "boundary1.csv")]

    def simulate_scan(out, points, span_ns, reps):
        return ["simulate", "--preset", "paper-like", "--seed", "7", "--out-dir", str(out),
                "--what", "rabi", "--rabi-points", points, "--rabi-span-ns", span_ns,
                "--rabi-reps", reps]

    def evaluate_and_repair(scan_dir, model, out_dir, suffix, summary=True):
        rabi, model = str(scan_dir / "rabi.csv"), str(root / f"{model}.txt")
        return [["evaluate", "--rabi", rabi, "--model", model, *pair,
                 "--truth", str(scan_dir / "rabi_truth.csv"),
                 "--out", str(out_dir / f"report{suffix}.csv"),
                 *(["--summary", str(out_dir / f"summary{suffix}.txt")] if summary else [])],
                ["repair", "--rabi", rabi, "--model", model, *pair,
                 "--out", str(out_dir / f"repaired{suffix}.csv")]]

    return [
        ["simulate", "--preset", "paper-like", "--reps", "1e6", "--seed", "7",
         "--out-dir", str(data), "--what", "both", "--rabi-reps", "1e5"],
        ["sweep", *pair, "--out", str(root / "sweep.csv")],
        ["train", "--mode", "boundary", *pair, "--out", str(root / "model.txt")],
        ["train", "--mode", "rabi", "--rabi", str(data / "rabi.csv"),
         "--out", str(root / "rabi_model.txt")],
        ["fit-rabi", "--rabi", str(data / "rabi.csv"), "--out", str(root / "fit.csv")],
        *evaluate_and_repair(data, "model", root, ""),
        *evaluate_and_repair(data, "rabi_model", root, "_rabi"),
        simulate_scan(scan, "240", "2400", "1e5"),
        ["fit-rabi", "--rabi", str(scan / "rabi.csv"), "--out", str(scan / "fit.csv")],
        *evaluate_and_repair(scan, "model", scan, "", summary=False),
        simulate_scan(root / "scan240-1e7", "240", "2400", "1e7"),
        simulate_scan(big, "2400", "24000", "1e5"),
        *evaluate_and_repair(big, "model", big, "_model"),
        *evaluate_and_repair(big, "rabi_model", big, "_rabi_model"),
    ]


# one interpreter per run: the BLAS thread count is read when numpy loads
_RUN_PIPELINE = ("import json, sys\n"
                 "from nvreadout.cli import main\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    if main(argv) != 0:\n"
                 "        sys.exit(f'exit status != 0: {argv}')\n")

# reader and writer of each schema that round-trips, named by a file's first line
_ROUND_TRIPS = {
    "trace-csv": (nvio.read_trace_csv, nvio.write_trace_csv),
    "rabi-csv": (nvio.read_rabi_csv, nvio.write_rabi_csv),
    "truth-csv": (nvio.read_truth_csv, lambda path, truth: nvio.write_truth_csv(path, *truth)),
    "sweep-csv": (nvio.read_sweep_csv, nvio.write_sweep_csv),
    "readout-model": (nvio.read_model, nvio.write_model),
    "eval-report": (nvio.read_report_csv, nvio.write_report_csv),
}


def test_c10_cli_determinism(tmp_path):
    """The README pipeline and its scans write the same bytes under one and
    under two BLAS threads, and every file of a schema that round-trips reads
    back and re-writes byte-identically."""
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file()}

    src = str(Path(nvreadout.__file__).parents[1])
    with Timer() as t:
        procs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            argv = json.dumps(_readme_pipeline(tmp_path / threads))
            procs[threads] = subprocess.Popen([sys.executable, "-c", _RUN_PIPELINE, argv],
                                              env=env, stdout=subprocess.DEVNULL,
                                              stderr=subprocess.PIPE, text=True)
        errors = {threads: proc.communicate()[1] for threads, proc in procs.items()}
        assert all(proc.returncode == 0 for proc in procs.values()), errors
        a, b = files(tmp_path / "1"), files(tmp_path / "2")
        differ = sorted(str(k) for k in set(a) | set(b) if a.get(k) != b.get(k))

        rewritten, changed = {}, []
        for name, content in a.items():
            schema = content.split(maxsplit=2)[1].decode()
            if schema in _ROUND_TRIPS:
                read, write = _ROUND_TRIPS[schema]
                again = tmp_path / "rewritten" / name
                again.parent.mkdir(parents=True, exist_ok=True)
                write(again, read(tmp_path / "1" / name))
                rewritten[name] = schema
                if again.read_bytes() != content:
                    changed.append(str(name))
    ok = not differ and not changed and set(rewritten.values()) == set(_ROUND_TRIPS)
    report("criterion 10 (CLI determinism)", ok,
           f"{len(a)} output files under 1 and 2 BLAS threads, differing: {differ}; "
           f"{len(rewritten)} re-written through their reader and writer, changed: "
           f"{changed}; runtime {t.elapsed:.2f}s")


# criterion 11: fixed before its first run, disjoint from earlier probe seeds
C11_BOUNDARY_SEEDS = (9301, 9303, 9305, 9307, 9309)     # each draws seed and seed + 1
C11_MSE_BOUNDARY_SEED = 9311
C11_MSE_SCAN_SEEDS = tuple(800_000 + 1000 * k for k in range(30))



def test_c11_weighting_beats_the_best_gate():
    """Trained weights beat the min-V gate: N <= 0.95x on 1e7 boundaries for
    every seed and profile, and MSE vs truth <= 0.95x pooled over 30 scans."""
    preset = paper_like_params()
    params = {"preset": preset,
              "tau_bright=150ns": replace(preset, tau_bright_ns=150.0),
              "boost=0.1,dip=0.5": replace(preset, bright_boost=0.1, dark_dip=0.5),
              "1ns-bins,3us": replace(preset, bin_width_ns=1.0, trace_length_ns=3000.0)}
    worst = {}
    with Timer() as t:
        for name, par in params.items():
            profile0, profile1 = make_profiles(par)
            ratios = []
            for seed in C11_BOUNDARY_SEEDS:
                trace0 = simulate_trace(profile0, 10**7, seed)
                trace1 = simulate_trace(profile1, 10**7, seed + 1)
                min_v = gates(trace0, trace1)[1]
                ratios.append(noise_per_contrast(train_boundary(trace0, trace1),
                                                 profile0, profile1)
                              / noise_per_contrast(min_v, profile0, profile1))
            worst[name] = max(ratios)

        profile0, profile1 = make_profiles(preset)
        trace0 = simulate_trace(profile0, 10**7, C11_MSE_BOUNDARY_SEED)
        trace1 = simulate_trace(profile1, 10**7, C11_MSE_BOUNDARY_SEED + 1)
        max_c, min_v = gates(trace0, trace1)
        model = train_boundary(trace0, trace1)
        sse = {METHOD_ML: 0.0, METHOD_MIN_V: 0.0}
        for seed in C11_MSE_SCAN_SEEDS:
            test, truth = simulate_rabi_dataset(profile0, profile1, 10**5, seed)
            rep = evaluate(test, max_c, min_v, model, truth)
            for method in sse:
                sse[method] += rep.method(method).empirical_mse
    mse_ratio = sse[METHOD_ML] / sse[METHOD_MIN_V]
    ok = max(worst.values()) <= 0.95 and mse_ratio <= 0.95 and t.elapsed < 60
    report("criterion 11 (weighting beats the best gate)", ok,
           "worst N ML/min-V over 5 seeds at 1e7: "
           + ", ".join(f"{k} {v:.3f}" for k, v in worst.items())
           + f"; pooled MSE ML/min-V over {len(C11_MSE_SCAN_SEEDS)} scans "
           f"{mse_ratio:.3f}, runtime {t.elapsed:.1f}s")

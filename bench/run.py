"""Pipeline benchmark for the ``nvreadout`` command line.

Usage (from the repository root)::

    python3 bench/run.py --workload boundary-calibration --seed 1 --seconds 25 --trace 0

Each CLI command runs as its own ``python -m nvreadout.cli`` subprocess on
the checked-out ``src/``, one at a time: a closed loop with one client.
After set-up, jobs (one pass through the workload's command sequence) run
back to back for ``--seconds``; then every job's outputs are re-read with
the package's readers and checked.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs each job untraced and then through
``bench/launch.py``, checks that both leave byte-identical files, and
reports per-layer metrics from the traced spans.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record goes to
``.bench_work/<workload>-s<seed>-t<trace>.json``.

See ``bench/README.md`` for the workloads, metric definitions and the
layer-to-end-to-end predictions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCH = BENCH / "launch.py"

COMMAND_TIMEOUT_S = 120
SETUP_REPEATS = 3
CHILD_BLAS_THREADS = 1

# every metric is printed; the JSON result line carries the ones that
# BENCHMARK.json lists (see README.md for why job_p50_s and jobs_per_s
# are printed but not gated)
E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
    "ml_var_ratio": "ratio", "ml_mse_ratio": "ratio",
    "ml_contrast_ratio": "ratio", "repair_rms_ratio": "ratio",
}
LAYER_UNITS = {
    "cli.import_s": "s", "cli.invocations": "count", "cli.self_s": "s",
    "io.read_s": "s", "io.read_calls": "count", "io.read_bytes": "bytes",
    "io.write_s": "s", "io.write_calls": "count", "io.write_bytes": "bytes",
    "traces.simulate_s": "s", "traces.bins_drawn": "count",
    "gating.sweep_s": "s", "gating.sweep_calls": "count",
    "regression.train_s": "s", "regression.iterations": "count",
    "regression.loss_total": "1", "regression.kkt_residual": "ratio",
    "regression.apply_s": "s",
    "rabi.fit_s": "s", "rabi.fit_calls": "count", "rabi.fit_fail_ratio": "ratio",
    "evaluation.self_s": "s", "evaluation.calls": "count",
    "trace.overhead_s": "s",
}
# span name -> (self-time metric, call-count metric, {span counter: metric})
SPAN_METRICS = {
    "cli.main": ("cli.self_s", "cli.invocations", {}),
    "io.read": ("io.read_s", "io.read_calls", {"bytes": "io.read_bytes"}),
    "io.write": ("io.write_s", "io.write_calls", {"bytes": "io.write_bytes"}),
    "traces.simulate": ("traces.simulate_s", None, {"bins": "traces.bins_drawn"}),
    "gating.sweep": ("gating.sweep_s", "gating.sweep_calls", {}),
    "regression.train": ("regression.train_s", None, {}),
    "regression.apply": ("regression.apply_s", None, {}),
    "rabi.fit": ("rabi.fit_s", "rabi.fit_calls", {"failed": "rabi.fit_failures"}),
    "evaluation": ("evaluation.self_s", "evaluation.calls", {}),
}

SUMMED = {"cli.import_s"} | {metric for t, c, counters in SPAN_METRICS.values()
                             for metric in (t, c, *counters.values()) if metric}


class SetupFailed(Exception):
    pass


@dataclass
class Job:
    unit: int
    directory: Path
    latency_s: float = 0.0
    error: str | None = None
    quality: dict = field(default_factory=dict)

    @property
    def out(self) -> Path:
        return self.directory / "out"


class Runner:
    """Runs CLI commands as subprocesses on the checked-out ``src/``."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(CHILD_BLAS_THREADS)

    def cli(self, argv, log: Path, spans: Path | None = None, job: str = "") -> int:
        if spans is None:
            cmd = [sys.executable, "-m", "nvreadout.cli", *argv]
        else:
            cmd = [sys.executable, str(LAUNCH), str(spans), job, *argv]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("$ " + " ".join(cmd) + "\n")
            fh.flush()
            try:
                return subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=fh,
                                      stderr=subprocess.STDOUT,
                                      timeout=COMMAND_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fh.write(f"timed out after {COMMAND_TIMEOUT_S} s\n")
                return -1

    def probe(self) -> str:
        """Where the child interpreter finds the package."""
        out = subprocess.run(
            [sys.executable, "-c",
             "import importlib.util as u; print(u.find_spec('nvreadout').origin)"],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S)
        return out.stdout.strip()


def run_job(workload, runner: Runner, run_seed: int, unit: int, directory: Path,
            traced: bool) -> Job:
    job = Job(unit, directory)
    job.out.mkdir(parents=True)
    spans = directory / "spans"
    if traced:
        spans.mkdir()
    start = time.perf_counter()
    for i, argv in enumerate(workload.commands(job.out, run_seed, unit)):
        code = runner.cli(argv, directory / "log.txt",
                          spans / f"{i}.json" if traced else None, directory.name)
        if code != 0:
            job.error = f"`{argv[0]}` exited with status {code}"
            break
    job.latency_s = time.perf_counter() - start
    return job


def same_files(a: Path, b: Path) -> bool:
    def tree(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}
    return tree(a) == tree(b)


def check_job(workload, job: Job) -> None:
    """Record the job's quality ratios, or why its outputs were rejected."""
    if job.error is not None:
        return
    try:
        job.quality = workload.check(job.out, job.unit)
    except Exception as exc:  # any rejection counts as a failed job
        job.error = f"{type(exc).__name__}: {exc}"


def keep_going(start: float, seconds: float, latencies, minimum: int) -> bool:
    """Closed loop: start another job while a typical one would end nearer
    to ``seconds`` than the run already is, so runs last ``seconds`` on average."""
    if len(latencies) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(latencies) / 2 <= seconds


def tail(latencies) -> float:
    """90th-percentile job latency (inclusive linear interpolation).

    A run holds at most a few dozen jobs, so a percentile with 10 jobs
    beyond it would lie at or below the median; p90 is the fixed tail,
    reported with the job count.
    """
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Spans and solver diagnostics (traced runs)
# ---------------------------------------------------------------------------

def layer_totals(span_files) -> dict[str, float]:
    """Per-layer self time, calls and counters summed over span files."""
    totals: dict[str, float] = defaultdict(float)
    for path in span_files:
        spans = json.loads(path.read_text())
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s, child in zip(spans, covered):
            duration = s["end"] - s["start"]
            if s["name"] == "cli.import":
                totals["cli.import_s"] += duration
                continue
            time_metric, call_metric, counters = SPAN_METRICS[s["name"]]
            totals[time_metric] += duration - child
            if call_metric:
                totals[call_metric] += 1
            for key, metric in counters.items():
                totals[metric] += s["counts"].get(key, 0)
    return totals


def solver_diagnostics(model_path: Path, mode: str, inputs: dict) -> dict[str, float]:
    """Iterations and final loss from the model file; KKT residual via loss_gradient.

    The residual is the norm of the projected gradient (weights >= 0,
    intercept free) at the trained model divided by the same norm at the
    min-V gated-equivalent model of the same training data.  Gradients
    are taken in the trainer's own coordinates, weights times the
    model's ``rate_scale``; in raw rate units the intercept term would
    swamp the weights by the rate scale (~1e-4).
    """
    import numpy as np
    from nvreadout import (TrainingExample, assign_targets, fit_rabi,
                           gated_equivalent_model, loss_gradient, sweep_gate)
    from nvreadout import io as nvio

    model = nvio.read_model(model_path)
    found = re.search(r"iterations=(\d+)", model.trained_on)
    weight_factor = model.training_loss.weight_factor
    if mode == "boundary":
        trace0 = nvio.read_trace_csv(inputs["trace0"])
        trace1 = nvio.read_trace_csv(inputs["trace1"])
        examples = [TrainingExample(trace0, 1.0), TrainingExample(trace1, 0.0)]
    else:
        # rebuild the targets exactly as `train --mode rabi` does
        dataset = nvio.read_rabi_csv(inputs["rabi"])
        sums = [trace.counts.sum() / trace.repetitions for _, trace in dataset.points]
        examples = assign_targets(dataset, fit_rabi(dataset.durations, sums))
    targets = [ex.target for ex in examples]
    bright = examples[int(np.argmax(targets))].trace
    dark = examples[int(np.argmin(targets))].trace
    gated = gated_equivalent_model(bright, dark, sweep_gate(bright, dark).min_variance.window)

    def projected_norm(m) -> float:
        grad_w, grad_b = loss_gradient(m, examples, weight_factor)
        grad_w = np.where(m.weights > 0, grad_w, np.minimum(grad_w, 0.0)) / model.rate_scale
        return float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))

    return {"regression.iterations": float(found.group(1)) if found else None,
            "regression.loss_total": model.training_loss.total,
            "regression.kkt_residual": projected_norm(model) / projected_norm(gated)}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def set_up(workload, runner, run_dir: Path, seed: int, repeats: int, trace: bool):
    """Warm-up plus the workload's own preparation; (median seconds, spans dir).

    An untraced run sets up ``repeats`` times and reports the median.  A
    traced run sets up once, with the workload's own set-up commands (not
    the warm-up) run through the launcher; their spans count towards the
    per-layer figures.
    """
    setup_dir = run_dir / "setup"
    setup_dir.mkdir(parents=True)
    log = run_dir / "setup.log"

    def run_cli(spans):
        calls = []

        def run(argv):
            path = spans / f"{len(calls)}.json" if spans else None
            calls.append(argv)
            if runner.cli(argv, log, path, "setup") != 0:
                raise SetupFailed(f"set-up command `{' '.join(argv)}` failed; see {log}")
        return run

    def once(spans=None) -> float:
        start = time.perf_counter()
        run_cli(None)(["--version"])        # interpreter start and package import
        workload.setup(run_cli(spans), setup_dir, seed)
        return time.perf_counter() - start

    if trace:
        spans = run_dir / "setup-spans"
        spans.mkdir()
        once(spans)
        return None, spans
    return statistics.median(once() for _ in range(repeats)), None


def untraced_run(workload, runner, run_dir, seed, seconds):
    jobs: list[Job] = []
    start = time.perf_counter()
    # job 0 and job 1 share unit 1: the rerun must leave byte-identical files
    while keep_going(start, seconds, [j.latency_s for j in jobs], 2):
        unit = max(1, len(jobs))
        jobs.append(run_job(workload, runner, seed, unit,
                            run_dir / f"job{len(jobs):03d}", traced=False))
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for job in jobs:
        check_job(workload, job)
    first, rerun = jobs[0], jobs[1]
    if first.error is None and rerun.error is None and not same_files(first.out, rerun.out):
        rerun.error = "rerun with the same seed left different files"

    latencies = [j.latency_s for j in jobs]
    ok = [j for j in jobs if j.error is None]
    distinct = [j for j in ok if j is not rerun]
    metrics = {
        "jobs_per_s": len(ok) / elapsed,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail(latencies),
        "ok_ratio": len(ok) / len(jobs),
        "peak_rss_mb": peak_rss_mb,
    }
    for name in ("ml_var_ratio", "ml_mse_ratio", "ml_contrast_ratio", "repair_rms_ratio"):
        metrics[name] = median_or_none(j.quality.get(name) for j in distinct)
    notes = {"jobs": len(jobs), "timed_phase_s": elapsed}
    return jobs, metrics, notes


def traced_run(workload, runner, run_dir, seed, seconds, setup_spans):
    jobs: list[Job] = []
    pairs: list[tuple[Job, Job]] = []
    start = time.perf_counter()
    while keep_going(start, seconds,
                     [a.latency_s + b.latency_s for a, b in pairs], 1):
        unit = len(pairs) + 1
        plain = run_job(workload, runner, seed, unit, run_dir / f"job{unit:03d}-plain", False)
        traced = run_job(workload, runner, seed, unit, run_dir / f"job{unit:03d}-traced", True)
        pairs.append((plain, traced))
        jobs += [plain, traced]
    for plain, traced in pairs:
        check_job(workload, plain)
        check_job(workload, traced)
        if plain.error is None and traced.error is None \
                and not same_files(plain.out, traced.out):
            traced.error = "traced run left different files than the untraced run"

    ok = [t for _, t in pairs if t.error is None]
    setup = layer_totals(sorted(setup_spans.glob("*.json")))
    per_job = [layer_totals(sorted((j.directory / "spans").glob("*.json"))) for j in ok]
    # summed metrics: the set-up's once plus a typical (median) job's
    metrics = {name: setup.get(name, 0.0) + (median_or_none(t.get(name, 0.0) for t in per_job) or 0.0)
               for name in LAYER_UNITS if name in SUMMED}
    calls = setup.get("rabi.fit_calls", 0) + sum(t.get("rabi.fit_calls", 0) for t in per_job)
    fails = setup.get("rabi.fit_failures", 0) + sum(t.get("rabi.fit_failures", 0) for t in per_job)
    metrics["rabi.fit_fail_ratio"] = fails / calls if calls else None

    models = list(workload.setup_models())
    for job in ok:
        models += workload.models(job.out)
    diagnostics = [solver_diagnostics(*m) for m in models]
    for name in ("regression.iterations", "regression.loss_total", "regression.kkt_residual"):
        metrics[name] = median_or_none(d[name] for d in diagnostics)
    metrics["trace.overhead_s"] = median_or_none(
        t.latency_s - p.latency_s for p, t in pairs
        if p.error is None and t.error is None)
    notes = {"pairs": len(pairs), "models": len(models),
             "diagnostics": diagnostics}
    return jobs, metrics, notes


def environment(runner: Runner) -> dict:
    import numpy
    origin = runner.probe()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "child_blas_threads": CHILD_BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "package_origin": os.path.relpath(origin, ROOT) if origin else None,
        "runs_checked_out_src": bool(origin) and Path(origin).is_relative_to(SRC),
        "clients": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, not for measurement")
    args = parser.parse_args(argv)

    if not (SRC / "nvreadout" / "cli.py").is_file():
        print(f"bench: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    tiny = args.size == "tiny"
    workload = workloads.make(args.workload, tiny)
    runner = Runner()
    env = environment(runner)
    if not env["runs_checked_out_src"]:
        print(f"bench: child interpreter imports nvreadout from {env['package_origin']}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = WORK / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_s, setup_spans = set_up(workload, runner, run_dir, args.seed,
                                      1 if tiny else SETUP_REPEATS, bool(args.trace))
        if args.trace:
            jobs, metrics, notes = traced_run(workload, runner, run_dir, args.seed,
                                              args.seconds, setup_spans)
            units = LAYER_UNITS
        else:
            jobs, metrics, notes = untraced_run(workload, runner, run_dir,
                                                args.seed, args.seconds)
            metrics["setup_s"] = setup_s
            units = E2E_UNITS
    except SetupFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failed = [j for j in jobs if j.error is not None]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env, "notes": notes,
        "jobs": [{"name": j.directory.name, "unit": j.unit, "latency_s": j.latency_s,
                  "error": j.error, "quality": j.quality} for j in jobs],
        "metrics": metrics,
    }
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if not failed:
        shutil.rmtree(run_dir)          # keep the logs of a run that failed

    print(f"workload {args.workload}: seed {args.seed}, {len(jobs)} jobs, "
          f"{len(failed)} failed; environment {json.dumps(env)}")
    for job in failed:
        print(f"  FAILED {job.directory.name}: {job.error}")
    print(f"  failed_ratio = {len(failed) / len(jobs)} ratio")
    for key, value in notes.items():
        if key != "diagnostics":
            print(f"  {key} = {value}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

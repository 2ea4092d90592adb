"""The three benchmark workloads: their command sequences, outputs and checks.

A *job* is one pass through a workload's command sequence.  Every job
gets its own seed block derived from the run seed (see :func:`unit_seed`);
the program only ever receives the files these commands generate.

Sizes follow the README pipeline.  ``tiny`` keeps every command and file
but caps training at 300 iterations and shrinks the scan pool, so the
smoke test exercises the harness in seconds; it is not a performance size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nvreadout import io as nvio
from nvreadout import make_profiles, paper_like_params, simulate_rabi_dataset

# `simulate --seed s` draws with s, s+1 and s+1000+k for oscillation point k,
# so each simulate call gets a block of STREAM_STRIDE seeds, each job (unit)
# a block of UNIT_STRIDE, and each run seed a block of RUN_STRIDE.
STREAM_STRIDE = 2_000
UNIT_STRIDE = 100_000
RUN_STRIDE = 100_000_000
MAX_STREAMS = UNIT_STRIDE // STREAM_STRIDE
MAX_UNITS = RUN_STRIDE // UNIT_STRIDE        # unit 0 is the set-up

SCAN_POINTS, SCAN_SPAN_NS = 240, 2400.0      # scan-repair test scans at 1e5 reps
TINY_SCAN_POINTS, TINY_SCAN_SPAN_NS = 60, 600.0


def unit_seed(run_seed: int, unit: int, stream: int = 0) -> int:
    """Seed of simulate call ``stream`` in unit ``unit`` (0 = set-up) of a run."""
    if not (0 <= unit < MAX_UNITS and 0 <= stream < MAX_STREAMS):
        raise ValueError(f"unit {unit} / stream {stream} outside its seed block")
    return run_seed * RUN_STRIDE + unit * UNIT_STRIDE + stream * STREAM_STRIDE


class CheckFailed(Exception):
    """An output file was rejected by its reader or a quality value is not finite."""


# reader for every file a job may leave in its output directory
READERS = {
    "boundary0.csv": nvio.read_trace_csv,
    "boundary1.csv": nvio.read_trace_csv,
    "rabi.csv": nvio.read_rabi_csv,
    "rabi_truth.csv": nvio.read_truth_csv,
    "sweep.csv": nvio.read_sweep_csv,
    "model.txt": nvio.read_model,
    "fit.csv": nvio.read_fit_csv,
    "report.csv": nvio.read_report_csv,
    "repair.csv": nvio.read_repair_csv,
    "summary.txt": None,                     # human-readable, no reader
}


@dataclass
class Workload:
    name: str
    tiny: bool = False

    def train_flags(self) -> list[str]:
        return ["--max-iterations", "300"] if self.tiny else []

    # -- set-up ------------------------------------------------------------
    def setup(self, run_cli, setup_dir: Path, run_seed: int) -> None:
        """Prepare the timed phase; ``run_cli(argv)`` runs one CLI command."""

    # -- jobs --------------------------------------------------------------
    def commands(self, out: Path, run_seed: int, unit: int) -> list[list[str]]:
        raise NotImplementedError

    def truth_file(self, out: Path, unit: int) -> Path:
        raise NotImplementedError

    def models(self, out: Path) -> list[tuple[Path, str, dict]]:
        """(model file, train mode, training inputs) for models a job trains."""
        return []

    def setup_models(self) -> list[tuple[Path, str, dict]]:
        """Like :meth:`models`, for models trained in set-up."""
        return []

    def check(self, out: Path, unit: int) -> dict[str, float]:
        """Re-read every output and return the job's quality ratios."""
        files = sorted(p for p in out.rglob("*") if p.is_file())
        if not files:
            raise CheckFailed("job wrote no files")
        for path in files:
            if path.name not in READERS:
                raise CheckFailed(f"unexpected output {path.relative_to(out)}")
            reader = READERS[path.name]
            if reader is not None:
                reader(path)
            elif path.stat().st_size == 0:
                raise CheckFailed(f"{path.name} is empty")
        return quality(out / "report.csv", out / "repair.csv", self.truth_file(out, unit))


def quality(report_path: Path, repair_path: Path, truth_path: Path) -> dict[str, float]:
    """ML / min-V ratios from an eval-report, and the repair error ratio vs truth."""
    report = nvio.read_report_csv(report_path)
    ml, gate = report.method("ML"), report.method("min-V gate")
    values = [ml.avg_formula_variance, ml.empirical_mse, ml.contrast_measured,
              gate.avg_formula_variance, gate.empirical_mse, gate.contrast_measured]
    durations, p_original, p_repaired, _ = nvio.read_repair_csv(repair_path)
    truth_durations, truth = nvio.read_truth_csv(truth_path)
    if not np.array_equal(durations, truth_durations):
        raise CheckFailed("repair durations differ from the truth file")
    if not (all(math.isfinite(v) for v in values)
            and np.isfinite(p_original).all() and np.isfinite(p_repaired).all()):
        raise CheckFailed("non-finite quality value")
    ratios = {
        "ml_var_ratio": ml.avg_formula_variance / gate.avg_formula_variance,
        "ml_mse_ratio": ml.empirical_mse / gate.empirical_mse,
        "ml_contrast_ratio": ml.contrast_measured / gate.contrast_measured,
        "repair_rms_ratio": float(np.sqrt(np.mean((p_repaired - truth) ** 2)
                                          / np.mean((p_original - truth) ** 2))),
    }
    if not all(math.isfinite(v) for v in ratios.values()):
        raise CheckFailed(f"non-finite quality ratio: {ratios}")
    return ratios


class BoundaryCalibration(Workload):
    def commands(self, out, run_seed, unit):
        data = out / "data"
        b0, b1 = str(data / "boundary0.csv"), str(data / "boundary1.csv")
        model = str(out / "model.txt")
        return [
            ["simulate", "--preset", "paper-like", "--reps", "1e7",
             "--seed", str(unit_seed(run_seed, unit)), "--out-dir", str(data),
             "--what", "both", "--rabi-reps", "1e5"],
            ["sweep", "--trace0", b0, "--trace1", b1, "--out", str(out / "sweep.csv")],
            ["train", "--mode", "boundary", "--trace0", b0, "--trace1", b1,
             *self.train_flags(), "--out", model],
            ["evaluate", "--rabi", str(data / "rabi.csv"), "--model", model,
             "--trace0", b0, "--trace1", b1, "--truth", str(data / "rabi_truth.csv"),
             "--out", str(out / "report.csv"), "--summary", str(out / "summary.txt")],
            ["repair", "--rabi", str(data / "rabi.csv"), "--model", model,
             "--trace0", b0, "--trace1", b1, "--out", str(out / "repair.csv")],
        ]

    def truth_file(self, out, unit):
        return out / "data" / "rabi_truth.csv"

    def models(self, out):
        data = out / "data"
        return [(out / "model.txt", "boundary",
                 {"trace0": data / "boundary0.csv", "trace1": data / "boundary1.csv"})]


class RabiCalibration(Workload):
    def commands(self, out, run_seed, unit):
        train, test = out / "train", out / "test"
        b0, b1 = str(train / "boundary0.csv"), str(train / "boundary1.csv")
        model = str(out / "model.txt")
        return [
            ["simulate", "--preset", "paper-like", "--reps", "1e5",
             "--seed", str(unit_seed(run_seed, unit, 0)), "--out-dir", str(train),
             "--what", "both"],
            ["simulate", "--preset", "paper-like",
             "--seed", str(unit_seed(run_seed, unit, 1)), "--out-dir", str(test),
             "--what", "rabi", "--rabi-reps", "5e5"],
            ["fit-rabi", "--rabi", str(train / "rabi.csv"), "--out", str(out / "fit.csv")],
            ["train", "--mode", "rabi", "--rabi", str(train / "rabi.csv"),
             *self.train_flags(), "--out", model],
            ["evaluate", "--rabi", str(test / "rabi.csv"), "--model", model,
             "--trace0", b0, "--trace1", b1, "--truth", str(test / "rabi_truth.csv"),
             "--out", str(out / "report.csv"), "--summary", str(out / "summary.txt")],
            ["repair", "--rabi", str(test / "rabi.csv"), "--model", model,
             "--trace0", b0, "--trace1", b1, "--out", str(out / "repair.csv")],
        ]

    def truth_file(self, out, unit):
        return out / "test" / "rabi_truth.csv"

    def models(self, out):
        return [(out / "model.txt", "rabi", {"rabi": out / "train" / "rabi.csv"})]


class ScanRepair(Workload):
    """Apply one boundary model, trained in set-up, to pre-generated scans."""

    pool_size = 16

    def setup(self, run_cli, setup_dir, run_seed):
        self.boundary = (setup_dir / "boundary0.csv", setup_dir / "boundary1.csv")
        self.setup_model = setup_dir / "model.txt"
        run_cli(["simulate", "--preset", "paper-like", "--reps", "1e7",
                 "--seed", str(unit_seed(run_seed, 0)), "--out-dir", str(setup_dir),
                 "--what", "boundary"])
        run_cli(["train", "--mode", "boundary", "--trace0", str(self.boundary[0]),
                 "--trace1", str(self.boundary[1]), *self.train_flags(),
                 "--out", str(self.setup_model)])
        # scans are written by the harness through the package's own
        # simulator and writers: one CLI call per scan would time the
        # interpreter start-up, not the scan
        profile0, profile1 = make_profiles(paper_like_params())
        points, span = ((TINY_SCAN_POINTS, TINY_SCAN_SPAN_NS) if self.tiny
                        else (SCAN_POINTS, SCAN_SPAN_NS))
        self.scans = []
        for k in range(2 if self.tiny else self.pool_size):
            scan_dir = setup_dir / f"scan{k:02d}"
            scan_dir.mkdir(exist_ok=True)
            dataset, truth = simulate_rabi_dataset(
                profile0, profile1, 10**5, unit_seed(run_seed, 0, 1 + k) + 1000,
                points=points, period_ns=200.0, span_ns=span)
            nvio.write_rabi_csv(scan_dir / "rabi.csv", dataset)
            nvio.write_truth_csv(scan_dir / "rabi_truth.csv", dataset.durations, truth)
            self.scans.append(scan_dir)

    def scan(self, unit: int) -> Path:
        return self.scans[(unit - 1) % len(self.scans)]

    def commands(self, out, run_seed, unit):
        scan = str(self.scan(unit) / "rabi.csv")
        model = str(self.setup_model)
        b0, b1 = (str(p) for p in self.boundary)
        return [
            ["fit-rabi", "--rabi", scan, "--out", str(out / "fit.csv")],
            ["evaluate", "--rabi", scan, "--model", model, "--trace0", b0,
             "--trace1", b1, "--truth", str(self.scan(unit) / "rabi_truth.csv"),
             "--out", str(out / "report.csv"), "--summary", str(out / "summary.txt")],
            ["repair", "--rabi", scan, "--model", model, "--trace0", b0,
             "--trace1", b1, "--out", str(out / "repair.csv")],
        ]

    def truth_file(self, out, unit):
        return self.scan(unit) / "rabi_truth.csv"

    def setup_models(self):
        return [(self.setup_model, "boundary",
                 {"trace0": self.boundary[0], "trace1": self.boundary[1]})]


# rabi-calibration is not in BENCHMARK.json: its quality ratios depend on
# the seed far more than any bound allows (see README.md); run it by hand
WORKLOADS = {
    "boundary-calibration": BoundaryCalibration,
    "rabi-calibration": RabiCalibration,
    "scan-repair": ScanRepair,
}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](name, tiny)

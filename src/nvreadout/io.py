"""File formats: traces, oscillation datasets, sweeps, models, reports.

All formats are UTF-8 text with LF newlines.  Floats are written with
``repr`` (shortest round-trip decimal), so save -> load -> save is
byte-identical and reruns of a deterministic pipeline produce identical
files.  Every file starts with a ``# <schema> v<N>`` comment; readers
accept the comment lines in any order and raise :class:`ParseError` with
a 1-based line number on malformed content.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .evaluation import EvalReport, MethodEval, RepairResult
from .gating import GateMetrics, GateWindow, SweepResult
from .rabi import RabiDataset, SinusoidFit
from .regression import LossBreakdown, ReadoutModel
from .traces import TimeTrace

__all__ = [
    "FORMAT_VERSIONS",
    "write_trace_csv", "read_trace_csv",
    "write_rabi_csv", "read_rabi_csv",
    "write_truth_csv", "read_truth_csv",
    "write_sweep_csv", "read_sweep_csv",
    "write_model", "read_model",
    "write_report_csv", "read_report_csv", "write_report_summary",
    "write_repair_csv", "read_repair_csv",
    "write_fit_csv", "read_fit_csv",
]

FORMAT_VERSIONS = {
    "trace-csv": 1,
    "rabi-csv": 1,
    "truth-csv": 1,
    "sweep-csv": 1,
    "readout-model": 1,
    "eval-report": 1,
    "repair-csv": 1,
    "fit-report": 1,
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _split_comments(lines):
    """(header dict, data rows with line numbers, trailing comment rows)."""
    header: dict[str, str] = {}
    rows: list[tuple[int, str]] = []
    footer: list[tuple[int, str]] = []
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            text = line[1:].strip()
            if "=" in text and not rows:
                key, _, value = text.partition("=")
                header[key.strip()] = value.strip()
            elif rows:
                footer.append((no, text))
            continue
        rows.append((no, line))
    return header, rows, footer


def _header_int(header: dict, key: str, path) -> int:
    if key not in header:
        raise ParseError(f"{path}: missing required field '{key}'")
    try:
        return int(header[key])
    except ValueError:
        raise ParseError(f"{path}: {key}={header[key]!r} is not an integer")


def _header_float(header: dict, key: str, path, default: float | None = None) -> float:
    """A float field value; a missing key falls back to ``default`` if given."""
    if key not in header:
        if default is None:
            raise ParseError(f"{path}: missing required field '{key}'")
        return default
    try:
        value = float(header[key])
    except ValueError:
        raise ParseError(f"{path}: {key}={header[key]!r} is not a number")
    if not math.isfinite(value):
        raise ParseError(f"{path}: {key}={header[key]!r} is not finite")
    return value


def _int_field(value: str, name: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{name} {value!r} is not an integer", line)


def _float_field(value: str, name: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{name} {value!r} is not a number", line)


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------

def write_trace_csv(path, trace: TimeTrace) -> None:
    """Write one trace: comment header then ``bin_index,counts`` rows."""
    lines = [f"# trace-csv v{FORMAT_VERSIONS['trace-csv']}",
             f"# repetitions={trace.repetitions}",
             f"# bin_width_ns={_fmt(trace.bin_width_ns)}"]
    if trace.label is not None:
        lines.append(f"# label={trace.label}")
    if trace.seed is not None:
        lines.append(f"# seed={trace.seed}")
    lines.append("bin_index,counts")
    lines.extend(f"{i},{c}" for i, c in enumerate(trace.counts))
    _write(path, lines)


def read_trace_csv(path) -> TimeTrace:
    """Read a trace; rejects missing repetitions and non-integer counts."""
    header, rows, _ = _split_comments(_read_lines(path))
    reps = _header_int(header, "repetitions", path)
    width = _header_float(header, "bin_width_ns", path, 2.0)
    label = header.get("label")
    seed = int(header["seed"]) if "seed" in header else None
    if not rows or rows[0][1] != "bin_index,counts":
        raise ParseError(f"{path}: expected 'bin_index,counts' column row")
    counts = []
    for k, (no, row) in enumerate(rows[1:]):
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", no)
        idx = _int_field(parts[0], "bin_index", no)
        if idx != k:
            raise ParseError(f"bin_index {idx} out of order (expected {k})", no)
        value = _int_field(parts[1], "counts", no)
        if value < 0:
            raise ParseError(f"counts {value} is negative", no)
        counts.append(value)
    if not counts:
        raise ParseError(f"{path}: no count rows")
    return TimeTrace(np.array(counts, dtype=np.int64), repetitions=reps,
                     bin_width_ns=width, label=label, seed=seed)


# ---------------------------------------------------------------------------
# Oscillation dataset CSV (long format) + truth CSV
# ---------------------------------------------------------------------------

def write_rabi_csv(path, dataset: RabiDataset) -> None:
    lines = [f"# rabi-csv v{FORMAT_VERSIONS['rabi-csv']}",
             f"# repetitions={dataset.repetitions}",
             f"# bin_width_ns={_fmt(dataset.bin_width_ns)}",
             "duration_ns,bin_index,counts"]
    for duration, row in zip(dataset.durations, dataset.counts):
        d = _fmt(duration)
        lines.extend(f"{d},{i},{c}" for i, c in enumerate(row))
    _write(path, lines)


def read_rabi_csv(path) -> RabiDataset:
    header, rows, _ = _split_comments(_read_lines(path))
    reps = _header_int(header, "repetitions", path)
    width = _header_float(header, "bin_width_ns", path, 2.0)
    if not rows or rows[0][1] != "duration_ns,bin_index,counts":
        raise ParseError(f"{path}: expected 'duration_ns,bin_index,counts' column row")
    groups: dict[float, list[int]] = {}
    order: list[float] = []
    for no, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", no)
        duration = _float_field(parts[0], "duration_ns", no)
        idx = _int_field(parts[1], "bin_index", no)
        value = _int_field(parts[2], "counts", no)
        if value < 0:
            raise ParseError(f"counts {value} is negative", no)
        if duration not in groups:
            groups[duration] = []
            order.append(duration)
        if idx != len(groups[duration]):
            raise ParseError(f"bin_index {idx} out of order for duration {duration}", no)
        groups[duration].append(value)
    if not order:
        raise ParseError(f"{path}: no data rows")
    bins = {len(groups[d]) for d in order}
    if len(bins) != 1:
        raise ParseError(f"{path}: durations have unequal bin counts "
                         f"({min(bins)} to {max(bins)})")
    return RabiDataset(order, [groups[d] for d in order], reps, width)


def write_truth_csv(path, durations, populations) -> None:
    lines = [f"# truth-csv v{FORMAT_VERSIONS['truth-csv']}",
             "duration_ns,population"]
    lines.extend(f"{_fmt(d)},{_fmt(p)}" for d, p in zip(durations, populations))
    _write(path, lines)


def read_truth_csv(path) -> tuple[np.ndarray, np.ndarray]:
    _, rows, _ = _split_comments(_read_lines(path))
    if not rows or rows[0][1] != "duration_ns,population":
        raise ParseError(f"{path}: expected 'duration_ns,population' column row")
    durations, pops = [], []
    for no, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", no)
        durations.append(_float_field(parts[0], "duration_ns", no))
        pops.append(_float_field(parts[1], "population", no))
    return np.array(durations), np.array(pops)


# ---------------------------------------------------------------------------
# Sweep CSV
# ---------------------------------------------------------------------------

def write_sweep_csv(path, sweep: SweepResult) -> None:
    """Plot-ready sweep table with optima footer comments."""
    lines = [f"# sweep-csv v{FORMAT_VERSIONS['sweep-csv']}",
             f"# start_bin={sweep.start_bin}",
             f"# bin_width_ns={_fmt(sweep.bin_width_ns)}",
             f"# repetitions={sweep.repetitions}",
             "width_bins,width_ns,L0,L1,contrast,total_variance,degenerate_flag"]
    by_width = {m.window.width_bins: m for m in sweep.metrics}
    n_widths = len(sweep.metrics) + len(sweep.degenerate_widths)
    for width in range(1, n_widths + 1):
        ns = _fmt(width * sweep.bin_width_ns)
        m = by_width.get(width)
        if m is None:
            lines.append(f"{width},{ns},,,,,1")
        else:
            lines.append(f"{width},{ns},{_fmt(m.bright_total)},{_fmt(m.dark_total)},"
                         f"{_fmt(m.contrast)},{_fmt(m.total_variance)},0")
    for name, m in (("max_contrast", sweep.max_contrast),
                    ("min_variance", sweep.min_variance)):
        if m is None:
            lines.append(f"# {name}: none")
        else:
            lines.append(f"# {name}: width_bins={m.window.width_bins} "
                         f"width_ns={_fmt(m.window.width_bins * sweep.bin_width_ns)} "
                         f"contrast={_fmt(m.contrast)} "
                         f"total_variance={_fmt(m.total_variance)}")
    _write(path, lines)


def read_sweep_csv(path) -> SweepResult:
    header, rows, footer = _split_comments(_read_lines(path))
    start_bin = _header_int(header, "start_bin", path)
    width_ns = _header_float(header, "bin_width_ns", path, 2.0)
    reps = _header_int(header, "repetitions", path)
    expected = "width_bins,width_ns,L0,L1,contrast,total_variance,degenerate_flag"
    if not rows or rows[0][1] != expected:
        raise ParseError(f"{path}: expected '{expected}' column row")
    metrics, degenerate = [], []
    for no, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 7:
            raise ParseError(f"expected 7 fields, got {len(parts)}", no)
        width = _int_field(parts[0], "width_bins", no)
        if parts[6] == "1":
            degenerate.append(width)
            continue
        metrics.append(GateMetrics(
            GateWindow(start_bin, width),
            _float_field(parts[2], "L0", no), _float_field(parts[3], "L1", no),
            _float_field(parts[4], "contrast", no),
            _float_field(parts[5], "total_variance", no)))
    optima: dict[str, GateMetrics | None] = {"max_contrast": None, "min_variance": None}
    by_width = {m.window.width_bins: m for m in metrics}
    for no, text in footer:
        name, _, rest = text.partition(":")
        if name in optima and rest.strip() != "none":
            fields = dict(f.partition("=")[::2] for f in rest.split())
            width = fields.get("width_bins")
            if width is None or not width.isdigit() or int(width) not in by_width:
                raise ParseError(f"{path}: footer {name} names width_bins={width!r}, "
                                 "which has no metrics row", no)
            optima[name] = by_width[int(width)]
    return SweepResult(start_bin=start_bin, bin_width_ns=width_ns, repetitions=reps,
                       metrics=tuple(metrics), degenerate_widths=tuple(degenerate),
                       max_contrast=optima["max_contrast"],
                       min_variance=optima["min_variance"])


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def write_model(path, model: ReadoutModel) -> None:
    """Versioned full-precision text record of a readout model."""
    lines = [f"# readout-model v{FORMAT_VERSIONS['readout-model']}",
             f"dimension={model.dimension}",
             f"bin_width_ns={_fmt(model.reference_bin_width_ns)}",
             f"rate_scale={_fmt(model.rate_scale)}",
             f"intercept={_fmt(model.intercept)}",
             f"trained_on={model.trained_on}"]
    if model.training_loss is not None:
        tl = model.training_loss
        lines.append(f"loss_prediction={_fmt(tl.prediction_term)}")
        lines.append(f"loss_variance={_fmt(tl.variance_term)}")
        lines.append(f"loss_weight_factor={_fmt(tl.weight_factor)}")
        lines.append(f"loss_total={_fmt(tl.total)}")
    lines.append("weights:")
    lines.extend(_fmt(w) for w in model.weights)
    _write(path, lines)


def read_model(path) -> ReadoutModel:
    lines = _read_lines(path)
    fields: dict[str, str] = {}
    weights: list[float] = []
    in_weights = False
    for no, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if line == "weights:":
            in_weights = True
            continue
        if in_weights:
            weights.append(_float_field(line, "weight", no))
        else:
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"expected key=value, got {line!r}", no)
            fields[key] = value
    dimension = _header_int(fields, "dimension", path)
    if len(weights) != dimension:
        raise ParseError(f"{path}: {len(weights)} weights, dimension says {dimension}")
    loss_keys = ("loss_prediction", "loss_variance", "loss_weight_factor", "loss_total")
    training_loss = None
    if any(key in fields for key in loss_keys):
        training_loss = LossBreakdown(*(_header_float(fields, key, path) for key in loss_keys))
    return ReadoutModel(
        weights=np.array(weights),
        intercept=_header_float(fields, "intercept", path),
        reference_bin_width_ns=_header_float(fields, "bin_width_ns", path),
        rate_scale=_header_float(fields, "rate_scale", path, 1.0),
        trained_on=fields.get("trained_on", ""),
        training_loss=training_loss)


# ---------------------------------------------------------------------------
# Evaluation report / repair / fit report
# ---------------------------------------------------------------------------

def write_report_csv(path, report: EvalReport) -> None:
    lines = [f"# eval-report v{FORMAT_VERSIONS['eval-report']}",
             f"# truth_based={int(report.truth_based)}",
             "method,avg_formula_variance,empirical_mse,contrast_measured"]
    for m in report.methods:
        lines.append(f"{m.method},{_fmt(m.avg_formula_variance)},"
                     f"{_fmt(m.empirical_mse)},{_fmt(m.contrast_measured)}")
    for (a, b), value in sorted(report.reductions.items()):
        lines.append(f"# reduction {a} vs {b}={_fmt(value)}")
    _write(path, lines)


def read_report_csv(path) -> EvalReport:
    header, rows, footer = _split_comments(_read_lines(path))
    truth_based = header.get("truth_based", "0") == "1"
    expected = "method,avg_formula_variance,empirical_mse,contrast_measured"
    if not rows or rows[0][1] != expected:
        raise ParseError(f"{path}: expected '{expected}' column row")
    methods = []
    for no, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", no)
        methods.append(MethodEval(parts[0], _float_field(parts[1], "variance", no),
                                  _float_field(parts[2], "mse", no),
                                  _float_field(parts[3], "contrast", no)))
    reductions = {}
    for no, text in footer:
        if text.startswith("reduction "):
            body = text[len("reduction "):]
            pair, _, value = body.partition("=")
            a, _, b = pair.partition(" vs ")
            reductions[(a, b)] = _float_field(value, "reduction", no)
    return EvalReport(tuple(methods), reductions, truth_based)


def write_report_summary(path, report: EvalReport) -> None:
    """Human-readable companion of the report CSV."""
    basis = "ground truth" if report.truth_based else "each method's own fit"
    lines = ["method comparison (average formula variance, empirical MSE vs "
             f"{basis}, measured contrast)", ""]
    for m in report.methods:
        lines.append(f"  {m.method:<12} variance={m.avg_formula_variance:.6e}  "
                     f"mse={m.empirical_mse:.6e}  contrast={m.contrast_measured:.4f}")
    lines.append("")
    for (a, b), value in sorted(report.reductions.items()):
        lines.append(f"  {a} vs {b}: {100.0 * value:+.2f}% variance reduction")
    _write(path, lines)


def write_repair_csv(path, result: RepairResult) -> None:
    lines = [f"# repair-csv v{FORMAT_VERSIONS['repair-csv']}",
             f"# rms_original={_fmt(result.rms_original)}",
             f"# rms_repaired={_fmt(result.rms_repaired)}",
             "duration_ns,p_original,p_repaired,q_fit"]
    for pt in result.points:
        lines.append(f"{_fmt(pt.duration_ns)},{_fmt(pt.p_original)},"
                     f"{_fmt(pt.p_repaired)},{_fmt(pt.q_fit)}")
    _write(path, lines)


def read_repair_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns of a repair file: durations, original, repaired, fitted."""
    _, rows, _ = _split_comments(_read_lines(path))
    if not rows or rows[0][1] != "duration_ns,p_original,p_repaired,q_fit":
        raise ParseError(f"{path}: expected repair column row")
    cols = ([], [], [], [])
    for no, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", no)
        for col, part in zip(cols, parts):
            col.append(_float_field(part, "value", no))
    return tuple(np.array(c) for c in cols)


def write_fit_csv(path, durations, raw, fit: SinusoidFit, normalized=True) -> None:
    """Fit report: per-point raw/fitted/residual values plus fit parameters.

    With ``normalized`` the point series is rescaled by the fitted extrema
    so the columns are population-like regardless of the input units.
    """
    t = np.asarray(durations, dtype=float)
    y = np.asarray(raw, dtype=float)
    if normalized:
        lo = fit.offset - fit.amplitude
        y_out = (y - lo) / (2.0 * fit.amplitude)
        f_out = fit.normalized(t)
    else:
        y_out, f_out = y, fit.value(t)
    lines = [f"# fit-report v{FORMAT_VERSIONS['fit-report']}",
             f"# offset={_fmt(fit.offset)}",
             f"# amplitude={_fmt(fit.amplitude)}",
             f"# frequency_per_ns={_fmt(fit.frequency)}",
             f"# phase_rad={_fmt(fit.phase)}",
             f"# residual_rms={_fmt(fit.residual_rms)}",
             f"# normalized={int(normalized)}",
             "duration_ns,p_raw,p_fit,residual"]
    for d, a, b in zip(t, y_out, f_out):
        lines.append(f"{_fmt(d)},{_fmt(a)},{_fmt(b)},{_fmt(a - b)}")
    _write(path, lines)


def read_fit_csv(path) -> tuple[SinusoidFit, np.ndarray, np.ndarray]:
    """Fit parameters plus (durations, raw values) from a fit report."""
    header, rows, _ = _split_comments(_read_lines(path))
    fit = SinusoidFit(*(_header_float(header, key, path) for key in (
        "offset", "amplitude", "frequency_per_ns", "phase_rad", "residual_rms")))
    if not rows or rows[0][1] != "duration_ns,p_raw,p_fit,residual":
        raise ParseError(f"{path}: expected fit-report column row")
    durations, raw = [], []
    for no, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", no)
        durations.append(_float_field(parts[0], "duration_ns", no))
        raw.append(_float_field(parts[1], "p_raw", no))
    return fit, np.array(durations), np.array(raw)

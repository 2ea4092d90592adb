"""File formats: traces, oscillation datasets, sweeps, models, reports.

All formats are UTF-8 text with LF newlines and start with a ``# <schema>
v<N>`` line, which a reader requires to name its own schema and version.
Floats are written with ``repr`` (shortest round-trip decimal), so reruns
of a deterministic pipeline give identical files and six formats
round-trip byte for byte (save -> load -> save): trace, scan, truth,
sweep, model and evaluation report.  The fit and repair reports are
outputs; their readers return columns (and the fit's parameters).
A table whose cells are all numbers, every one but the sweep and the
evaluation report, formats each row in C with one ``%`` template per file;
a scan whose counts are all below its row width N instead joins each row's
count cells from a table of the N strings ``,0`` ... ``,N-1``, with the same
bytes.

Every format is one table, declared once in ``_LAYOUTS`` (its version,
column row and one numpy type per column), written by ``_write_table`` and
read by ``_read_table``: ``# key=value`` header comments in any order, the
column row, then one or more comma-separated data rows.  Blank and comment
lines may sit between rows; comments after the column row are skipped, so
a footer that restates a value derived from the rows is never read back.
A scan has one row per duration, durations strictly increasing: the
duration, then its N counts, with N set by the column row
``duration_ns,bin_0,...,bin_{N-1}``.  All rows of a file are parsed in
one numpy call; numeric header fields parse like cells, and a key given
twice is an error.  Header values are read back stripped, so a text value
is one line without leading or trailing whitespace.
Every malformed file, undecodable bytes included, raises
:class:`ParseError` naming the file and, for a bad or misplaced row or a
repeated key, its 1-based line (lines split at ``\n``); so does a value
the domain objects reject, such as zero repetitions, with the line of the
row a type names.  A reader checks the format; each row rule is the type's.

Files are read and written as streams, row by row, so no reader or writer
holds a file's text or a list of its lines.  Reading a 240-point, 500-bin
scan (0.25 MB) peaks at about 1.12x its 0.96 MB counts matrix in Python
allocations, because the parsed rows are made read-only and the dataset
keeps their counts field uncopied; writing it peaks at about 0.07 MB.
"""

from __future__ import annotations

import itertools
import math
import re
from contextlib import contextmanager

import numpy as np

from .errors import ParameterError, ParseError
from .evaluation import EvalReport, MethodEval, RepairResult
from .gating import SweepResult
from .rabi import RabiDataset, SinusoidFit
from .regression import LossBreakdown, ReadoutModel
from .traces import TimeTrace, _check_populations

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


def _scan_layout(n: int):
    """Column row and row dtype of a scan N counts wide."""
    return (",".join(["duration_ns", *(f"bin_{i}" for i in range(n))]),
            np.dtype([("duration_ns", "f8"), ("counts", "i8", (n,))]))


_LAYOUTS = {
    "trace-csv": (1, "bin_index,counts", "i8,i8"),
    "rabi-csv": (2, _scan_layout, None),
    "truth-csv": (1, "duration_ns,population", "f8,f8"),
    "sweep-csv": (2, "width_bins,width_ns,L0,L1,contrast,total_variance,degenerate_flag",
                  "i8,f8,f8,f8,f8,f8,i8"),
    "readout-model": (2, "weight", "f8"),
    "eval-report": (1, "method,avg_formula_variance,empirical_mse,contrast_measured",
                    "O,f8,f8,f8"),
    "repair-csv": (1, "duration_ns,p_original,p_repaired,q_fit", "f8,f8,f8,f8"),
    "fit-report": (1, "duration_ns,p_raw,p_fit,residual", "f8,f8,f8,f8"),
}
FORMAT_VERSIONS = {schema: layout[0] for schema, layout in _LAYOUTS.items()}


def _fmt(x: float) -> str:
    return repr(float(x))


def _float_rows(*columns):
    """Rows of the float columns, ``repr`` of each cell, formatted in C by one
    ``%`` template.  The cells are Python floats from ``.tolist()``: ``%r`` of
    a numpy scalar would spell its type."""
    template = ",".join(["%r"] * len(columns))
    return (template % row
            for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))


def _write(path, lines) -> None:
    """Write each string of the iterable ``lines`` and an LF as it comes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _write_table(path, schema: str, header: dict, rows, footer=(), columns=None) -> None:
    """Write one table, the layout :func:`_read_table` reads: the schema line with
    its ``_LAYOUTS`` version, a ``# key=value`` line per header value that is not
    None, the column row (from ``_LAYOUTS``, or ``columns``: a scan's, set by its
    width), then each row and each ``#`` footer comment as the iterables yield them."""
    version, fixed, _ = _LAYOUTS[schema]
    head = [f"# {schema} v{version}"]
    head += [f"# {key}={value}" for key, value in header.items() if value is not None]
    head.append(columns or fixed)
    _write(path, itertools.chain(head, rows, (f"# {line}" for line in footer)))


@contextmanager
def _lines(path):
    """The file as a stream of lines, each with its ``\\n``; undecodable bytes,
    wherever they sit, raise ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load(lines, dtype, converters):
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                      converters=converters)


def _parse_rows(path, lines, first: int, dtype, converters=None):
    """Typed rows of the data lines in the stream ``lines``, whose first line is
    file line ``first``.

    Blank and ``#`` lines are skipped; every other line is one row, and all
    rows are parsed in one numpy call as the lines stream past, so no list of
    them is built.  Returns ``(rows, line_of)``, where ``line_of`` gives the
    1-based file line of a row index; it re-reads the file, on an error path
    only.  ParseError names the line of a row that does not parse, and the
    file of a table without rows (no writer writes one).
    """
    def numbered() -> list[tuple[int, str]]:
        with _lines(path) as fh:
            return [(no, line) for no, line in enumerate(fh, 1)
                    if no >= first and line.strip() and line[0] != "#"]

    def line_of(row: int) -> int:
        return numbered()[row][0]

    data = (line for line in lines if line.strip() and line[0] != "#")
    head = next(data, None)
    if head is None:
        raise ParseError(f"{path}: no data rows")
    try:
        return _load(itertools.chain((head,), data), dtype, converters), line_of
    except UnicodeDecodeError:      # the file's fault, not a row's: _lines names it
        raise
    except ValueError as exc:
        error = exc
    # Error path only: numpy's row numbering differs between its messages,
    # so bisect to the first row that does not parse; data[:lo] parses.
    rows = numbered()
    data = [line for _, line in rows]
    lo, hi = 0, len(data)
    while hi > lo + 1:
        mid = (lo + hi) // 2
        try:
            _load(data[lo:mid], dtype, converters)
            lo = mid
        except ValueError as exc:
            hi, error = mid, exc
    detail = re.sub(r" at row \d+", "", str(error).split(";")[0]).rstrip(".")
    raise ParseError(detail, rows[lo][0], path)


def _read_table(path, schema: str, converters=None):
    """Header, typed rows and a row -> line map of one table file.

    ``_LAYOUTS[schema]`` gives the layout: line 1 must be ``# {schema} v{N}``
    with its version N, and the column row must be its exact column row, the
    cells parsed by its numpy type codes, one per column.  A scan's entry is
    instead :func:`_scan_layout`, called with N, the number of cells after the
    first in the file's column row.  Returns ``(header, rows, line_of)``: the
    ``key=value`` comments before the column row, one structured record per
    data line, and the ``line_of`` of :func:`_parse_rows`, which reads the
    lines after the column row from the same open file.
    """
    version, columns, types = _LAYOUTS[schema]
    header: dict[str, str] = {}
    with _lines(path) as fh:
        first = f"# {schema} v{version}"
        if fh.readline().rstrip("\n") != first:
            raise ParseError(f"expected '{first}' schema line", 1, path)
        for no, line in enumerate(fh, 2):
            if line.startswith("#"):
                key, sep, value = (part.strip() for part in line[1:].partition("="))
                if sep:
                    if key in header:
                        raise ParseError(f"repeated field '{key}'", no, path)
                    header[key] = value
            elif line.strip():
                break
        else:                       # no column row
            no, line = None, ""
        row = line.rstrip("\n")
        if callable(columns):       # a scan; N is at least 1
            columns, dtype = columns(max(row.count(","), 1))
        else:
            dtype = np.dtype(list(zip(columns.split(","), types.split(","))))
        if row != columns:
            raise ParseError(f"expected '{columns}' column row", no, path)
        return header, *_parse_rows(path, fh, no + 1, dtype, converters)


def _cell(text: str, kind=float):
    """``kind(text)`` that, as numpy's cell parser, rejects ``_`` and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string {text!r} to {kind.__name__}")
    return kind(text)


def _text(fields: dict, key: str, path) -> str:
    """A required header field, as text."""
    if key not in fields:
        raise ParseError(f"{path}: missing required field '{key}'")
    return fields[key]


def _field(fields: dict, key: str, path, kind=float):
    """A required header field parsed like a table cell."""
    text = _text(fields, key, path)
    try:
        value = _cell(text, kind)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"{path}: {key}={text!r} is not {noun}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: {key}={text!r} is not finite")
    return value


@contextmanager
def _naming(path, line_of):
    """Re-raise a ParameterError from the block as a ParseError naming the file
    and, by ``line_of``, the line of the row it names."""
    try:
        yield
    except ParameterError as exc:
        raise ParseError(str(exc), None if exc.row is None else line_of(exc.row), path) from None


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------

def write_trace_csv(path, trace: TimeTrace) -> None:
    """Write one trace: comment header then ``bin_index,counts`` rows."""
    _write_table(path, "trace-csv", {"repetitions": trace.repetitions,
                                     "bin_width_ns": _fmt(trace.bin_width_ns),
                                     "label": trace.label, "seed": trace.seed},
                 ("%d,%d" % row for row in enumerate(trace.counts.tolist())))


def read_trace_csv(path) -> TimeTrace:
    """Read a trace; rejects a missing header value and a bin_index out of order."""
    header, rows, line_of = _read_table(path, "trace-csv")
    reps = _field(header, "repetitions", path, int)
    width = _field(header, "bin_width_ns", path)
    seed = _field(header, "seed", path, int) if "seed" in header else None
    index = rows["bin_index"]
    bad = index != np.arange(rows.size)
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(f"bin_index {index[k]} out of order (expected {k})", line_of(k), path)
    with _naming(path, line_of):
        return TimeTrace(rows["counts"], repetitions=reps, bin_width_ns=width,
                         label=header.get("label"), seed=seed)


# ---------------------------------------------------------------------------
# Oscillation dataset CSV (one row per duration) + truth CSV
# ---------------------------------------------------------------------------

def write_rabi_csv(path, dataset: RabiDataset) -> None:
    """Write a scan one duration's row at a time: the duration's ``repr``,
    then the N counts.  When every count is below N, a row's cells are taken
    from a table of the N cells ``,0`` ... ``,N-1`` (one index and one join);
    otherwise each row goes through one ``%`` template.  Both give the same
    bytes."""
    counts = dataset.counts
    n = counts.shape[1]
    if counts.max() < n:
        table = np.array([f",{i}" for i in range(n)], dtype=object)
        rows = (repr(d) + "".join(table[row].tolist())
                for d, row in zip(dataset.durations.tolist(), counts))
    else:
        template = "%r" + ",%d" * n
        rows = (template % (d, *row.tolist())
                for d, row in zip(dataset.durations.tolist(), counts))
    _write_table(path, "rabi-csv", {"repetitions": dataset.repetitions,
                                    "bin_width_ns": _fmt(dataset.bin_width_ns)},
                 rows, columns=_scan_layout(n)[0])


def read_rabi_csv(path) -> RabiDataset:
    """Read a scan: one row per duration, the duration then its N counts; a row
    :class:`RabiDataset` rejects is an error naming its line."""
    header, rows, line_of = _read_table(path, "rabi-csv")
    reps = _field(header, "repetitions", path, int)
    width = _field(header, "bin_width_ns", path)
    rows.setflags(write=False)      # so the dataset keeps the counts view, uncopied
    with _naming(path, line_of):
        return RabiDataset(rows["duration_ns"], rows["counts"], reps, width)


def write_truth_csv(path, durations, populations) -> None:
    _write_table(path, "truth-csv", {}, _float_rows(durations, populations))


def read_truth_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Durations and populations; the first row with a non-finite duration or a
    population outside [0, 1] is an error naming its line."""
    _, rows, line_of = _read_table(path, "truth-csv")
    durations, populations = rows["duration_ns"].copy(), rows["population"].copy()
    finite = np.isfinite(durations)
    k = int(np.argmin(finite)) if not finite.all() else durations.size
    with _naming(path, line_of):
        _check_populations(populations[:k], "population")
    if k < durations.size:
        raise ParseError(f"duration_ns {durations[k]} is not finite", line_of(k), path)
    return durations, populations


# ---------------------------------------------------------------------------
# Sweep CSV
# ---------------------------------------------------------------------------

def write_sweep_csv(path, sweep: SweepResult) -> None:
    """Plot-ready sweep table; footer comments restate both optima."""
    curves = (sweep.bright_total, sweep.dark_total, sweep.contrast, sweep.total_variance)
    rows = (f"{width},{_fmt(width * sweep.bin_width_ns)},"
            + (",,,,1" if math.isnan(values[2]) else f"{','.join(map(_fmt, values))},0")
            for width, values in enumerate(zip(*(c.tolist() for c in curves)), start=1))
    footer = (f"{name}: none" if m is None else
              f"{name}: width_bins={m.window} "
              f"width_ns={_fmt(m.window * sweep.bin_width_ns)} "
              f"contrast={_fmt(m.contrast)} total_variance={_fmt(m.total_variance)}"
              for name, m in (("max_contrast", sweep.max_contrast),
                              ("min_variance", sweep.min_variance)))
    _write_table(path, "sweep-csv", {"bin_width_ns": _fmt(sweep.bin_width_ns),
                                     "repetitions": sweep.repetitions}, rows, footer)


def read_sweep_csv(path) -> SweepResult:
    """Read a sweep; widths run 1..N in order, and each row's other cells are the
    ones its width and L0, L1 give, blank (nan) at a degenerate width (flag 1)."""
    blank_is_nan = dict.fromkeys(range(2, 6), lambda cell: _cell(cell) if cell else math.nan)
    header, rows, line_of = _read_table(path, "sweep-csv", blank_is_nan)
    bin_width_ns = _field(header, "bin_width_ns", path)
    reps = _field(header, "repetitions", path, int)
    with _naming(path, line_of):
        sweep = SweepResult(bin_width_ns, reps, rows["L0"], rows["L1"])
    widths = np.arange(1, rows.size + 1)
    curves = (sweep.bright_total, sweep.dark_total, sweep.contrast, sweep.total_variance)
    cells = np.column_stack([rows[name] for name in rows.dtype.names]).astype(float)
    derived = np.column_stack((widths, widths * bin_width_ns, *curves, np.isnan(curves[2])))
    same = (cells == derived) & (np.signbit(cells) == np.signbit(derived)) \
        | np.isnan(cells) & np.isnan(derived)
    if not same.all():
        k, j = np.argwhere(~same)[0]
        raise ParseError(f"{rows.dtype.names[j]} is {rows[k][j].item()!r}, expected "
                         f"{rows.dtype[j].type(derived[k, j]).item()!r}", line_of(k), path)
    return sweep


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def write_model(path, model: ReadoutModel) -> None:
    """A readout model: its fields and training loss as header values, then
    one ``weight`` per row."""
    tl = model.training_loss
    loss = {} if tl is None else {"loss_prediction": _fmt(tl.prediction_term),
                                  "loss_variance": _fmt(tl.variance_term),
                                  "loss_weight_factor": _fmt(tl.weight_factor)}
    _write_table(path, "readout-model", {"dimension": model.dimension,
                                         "bin_width_ns": _fmt(model.reference_bin_width_ns),
                                         "rate_scale": _fmt(model.rate_scale),
                                         "intercept": _fmt(model.intercept),
                                         "trained_on": model.trained_on, **loss},
                 _float_rows(model.weights))


def read_model(path) -> ReadoutModel:
    """Read a model; ``dimension`` must equal the number of weight rows."""
    fields, rows, line_of = _read_table(path, "readout-model")
    dimension = _field(fields, "dimension", path, int)
    if rows.size != dimension:
        raise ParseError(f"{path}: {rows.size} weights, dimension says {dimension}")
    loss_keys = ("loss_prediction", "loss_variance", "loss_weight_factor")
    with _naming(path, line_of):
        training_loss = None
        if any(key in fields for key in loss_keys):
            training_loss = LossBreakdown(*(_field(fields, key, path) for key in loss_keys))
        return ReadoutModel(
            weights=rows["weight"],
            intercept=_field(fields, "intercept", path),
            reference_bin_width_ns=_field(fields, "bin_width_ns", path),
            rate_scale=_field(fields, "rate_scale", path),
            trained_on=_text(fields, "trained_on", path),
            training_loss=training_loss)


# ---------------------------------------------------------------------------
# Evaluation report / repair / fit report
# ---------------------------------------------------------------------------

def write_report_csv(path, report: EvalReport) -> None:
    _write_table(path, "eval-report", {"truth_based": int(report.truth_based)},
                 (f"{m.method},{_fmt(m.avg_formula_variance)},"
                  f"{_fmt(m.empirical_mse)},{_fmt(m.contrast_measured)}"
                  for m in report.methods),
                 (f"reduction {a} vs {b}={_fmt(value)}"
                  for (a, b), value in sorted(report.reductions.items())))


def read_report_csv(path) -> EvalReport:
    header, rows, _ = _read_table(path, "eval-report")
    truth_based = _field(header, "truth_based", path, int)
    if truth_based not in (0, 1):
        raise ParseError(f"{path}: truth_based={header['truth_based']!r} is not 0 or 1")
    return EvalReport(tuple(MethodEval(*row) for row in rows.tolist()), truth_based == 1)


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
    _write_table(path, "repair-csv", {"rms_original": _fmt(result.rms_original),
                                      "rms_repaired": _fmt(result.rms_repaired)},
                 _float_rows(result.durations, result.p_original, result.p_repaired,
                             result.q_fit))


def read_repair_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns of a repair file: durations, original, repaired, fitted."""
    _, rows, _ = _read_table(path, "repair-csv")
    return tuple(rows[name].copy() for name in rows.dtype.names)


def write_fit_csv(path, durations, raw, fit: SinusoidFit) -> None:
    """Fit report: the fit's parameters, in the units of ``raw``, as header
    values, then per point its duration and its value, fitted value and
    residual on the fit's rescaled scale.

    The scale puts the fitted trough at 0 and the peak at 1, so the columns are
    population-like whatever the input units: ``p_raw`` is ``fit.rescaled(raw)``
    and ``p_fit`` is ``fit.normalized``, the scan's training targets.
    """
    y_out, f_out = fit.rescaled(raw), fit.normalized(durations)
    header = {"offset": _fmt(fit.offset), "amplitude": _fmt(fit.amplitude),
              "frequency_per_ns": _fmt(fit.frequency), "phase_rad": _fmt(fit.phase),
              "residual_rms": _fmt(fit.residual_rms)}
    _write_table(path, "fit-report", header, _float_rows(durations, y_out, f_out, y_out - f_out))


def read_fit_csv(path) -> tuple[SinusoidFit, np.ndarray, np.ndarray]:
    """The fit and the ``duration_ns`` and ``p_raw`` columns of a fit report.

    The fit's parameters are in the units of the fitted series: counts per
    measurement for the scan sums ``fit-rabi`` fits.  ``p_raw`` is each point's
    value on the fit's rescaled scale (0 at the fitted trough, 1 at the peak),
    not in those units.  A header key other than the fit's is skipped, such as
    the ``normalized=1`` line of older files.
    """
    header, rows, line_of = _read_table(path, "fit-report")
    with _naming(path, line_of):
        fit = SinusoidFit(*(_field(header, key, path) for key in (
            "offset", "amplitude", "frequency_per_ns", "phase_rad", "residual_rms")))
    return fit, rows["duration_ns"].copy(), rows["p_raw"].copy()

"""A fixed robustness sweep of every file format: no case ends in a fault.

One seeded pipeline, run in-process through ``cli.main``, writes a file of
each of the eight formats: a boundary trace, a model, a scan and its truth,
a sweep, a fit report, an evaluation report and a repair report.  Each case
changes one file in one way: a cell replaced by one of a fixed list of
tokens, a line deleted, duplicated, blanked or given one cell more or
fewer, or the whole file given a byte-order mark, CRLF line ends or a cut.
The cases are fixed: the header lines, the column row and the first,
second, middle and last data rows of every file, and the first, second,
middle and last cells of each of those lines (``tests/test_fuzz.py`` adds
the readers and random-byte files).

Each command that reads one of the CLI's input files (trace, model, scan,
truth), run on every case of that file, returns 0 or 2, raises nothing
and emits no ``RuntimeWarning`` (numpy's note of an overflow or an invalid
value).  A scan whose last duration reads ``1e308`` is one case: its fit
once sized a frequency grid by that value; a model weight or intercept of
``1e308`` is another, whose estimates once overflowed.  The commands run
4,389 cases in about 10.6 s on a 2-core machine; the budget is 30 s.

Six whole-column edits, which no edit of a few cells makes, run the same
way: every model weight times 1e-300, every weight 0, every count of the
bright boundary trace 0, and every duration of the scan times 2^-1027,
2^-1030 or 2^-1070.
"""

import contextlib
import io
import warnings

import pytest

from nvreadout import io as nvio
from nvreadout.cli import main

SEED = 3301                         # not used by any other test or probe
SOURCES = {"trace": "boundary0.csv", "model": "model.txt", "scan": "rabi.csv",
           "truth": "rabi_truth.csv"}
READERS = {nvio.read_trace_csv: "boundary0.csv", nvio.read_model: "model.txt",
           nvio.read_rabi_csv: "rabi.csv", nvio.read_truth_csv: "rabi_truth.csv",
           nvio.read_sweep_csv: "sweep.csv", nvio.read_fit_csv: "fit.csv",
           nvio.read_report_csv: "report.csv", nvio.read_repair_csv: "repaired.csv"}

TOKENS = ["", "nan", "inf", "-inf", "-1", "-0", "1e400", "1.5", "0x10", " 3", str(2**63),
          "1e308", "1_000", "３", "3,3", "+5", "1e-320", "True", "#"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation")
    f = {name: str(root / name) for name in READERS.values()}
    f["boundary1.csv"] = str(root / "boundary1.csv")
    pair = ["--trace0", f["boundary0.csv"], "--trace1", f["boundary1.csv"]]
    for argv in (["simulate", "--reps", "1e5", "--seed", str(SEED), "--out-dir", str(root),
                  "--what", "both", "--rabi-points", "16", "--rabi-span-ns", "400"],
                 ["train", "--mode", "boundary", *pair, "--out", f["model.txt"]],
                 ["sweep", *pair, "--out", f["sweep.csv"]],
                 ["fit-rabi", "--rabi", f["rabi.csv"], "--out", f["fit.csv"]],
                 ["evaluate", "--rabi", f["rabi.csv"], "--model", f["model.txt"], *pair,
                  "--truth", f["rabi_truth.csv"], "--out", f["report.csv"]],
                 ["repair", "--rabi", f["rabi.csv"], "--model", f["model.txt"], *pair,
                  "--out", f["repaired.csv"]]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return root


def commands(role: str, root, mutated) -> list[list[str]]:
    """Every command that reads ``mutated`` in the place of the ``role`` file."""
    f = {r: root / name for r, name in SOURCES.items()}
    f[role] = mutated
    b0, b1, model, scan, truth = (str(p) for p in (f["trace"], root / "boundary1.csv",
                                                   f["model"], f["scan"], f["truth"]))
    out = str(root / "out.csv")
    pair = ["--trace0", b0, "--trace1", b1]
    return {
        "trace": [["sweep", *pair, "--out", out],
                  ["train", "--mode", "boundary", *pair, "--out", out],
                  ["predict", "--model", model, "--trace", b0],
                  ["evaluate", "--rabi", scan, "--model", model, *pair, "--truth", truth,
                   "--out", out],
                  ["repair", "--rabi", scan, "--model", model, *pair, "--out", out]],
        "model": [["predict", "--model", model, "--trace", b0],
                  ["evaluate", "--rabi", scan, "--model", model, *pair, "--truth", truth,
                   "--out", out],
                  ["repair", "--rabi", scan, "--model", model, *pair, "--out", out]],
        "scan": [["fit-rabi", "--rabi", scan, "--out", out],
                 ["train", "--mode", "rabi", "--rabi", scan, "--out", out],
                 ["repair", "--rabi", scan, "--model", model, *pair, "--out", out]],
        "truth": [["evaluate", "--rabi", scan, "--model", model, *pair, "--truth", truth,
                   "--out", out]],
    }[role]


def cells_of(line: str) -> tuple[str, list[str]]:
    """A line's fixed prefix and its cells: a header line's value (after its
    first ``=``, or after the last space of the schema line), or else the
    comma-separated cells of the line."""
    if not line.startswith("#"):
        return "", line.split(",")
    if "=" in line:
        head, value = line.split("=", 1)
        return head + "=", [value]
    head, value = line.rsplit(" ", 1)
    return head + " ", [value]


def mutations(text: str):
    """``(name, mutated text)`` for every fixed case of one file."""
    lines = text.splitlines()
    data = [k for k, line in enumerate(lines) if not line.startswith("#")][1:]
    chosen = [k for k in range(len(lines)) if k < data[0]] + \
        sorted({data[0], data[1], data[len(data) // 2], data[-1]})
    for k in chosen:
        line = lines[k]
        head, cells = cells_of(line)
        for c in sorted({0, 1, len(cells) // 2, len(cells) - 1} & set(range(len(cells)))):
            for token in TOKENS:
                edited = head + ",".join(cells[:c] + [token] + cells[c + 1:])
                yield (f"line {k + 1} cell {c} = {token!r}",
                       "\n".join(lines[:k] + [edited] + lines[k + 1:]) + "\n")
        for edit, new in (("deleted", []), ("duplicated", [line, line]), ("blank", [""]),
                          ("extra cell", [line + ",1"]),
                          ("dropped cell", [line.rsplit(",", 1)[0]] if "," in line else [])):
            yield f"line {k + 1} {edit}", "\n".join(lines[:k] + new + lines[k + 1:]) + "\n"
    yield "byte-order mark", "﻿" + text
    yield "CRLF line ends", text.replace("\n", "\r\n")
    yield "cut mid-file", text[:len(text) // 2]


def faults(call) -> list[str]:
    """Run ``call``, its output captured: a line for an exception it raises, for a
    message it returns, and for each RuntimeWarning it emits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fault = call()
        except Exception as exc:                    # the fault this test exists to find
            fault = f"raised {exc!r}"
    found = [f"{fault}: {sink.getvalue()!r}"] if fault else []
    return found + [f"warned {w.message}" for w in caught
                    if issubclass(w.category, RuntimeWarning)]


def run_cases(path, cases, calls) -> tuple[int, list[str]]:
    """Write each ``(name, bytes)`` case to ``path`` and run each ``(label, call)``
    on it; the count of runs, and a line for each fault."""
    failures, runs = [], 0
    for name, data in cases:
        path.write_bytes(data)
        for label, call in calls:
            runs += 1
            failures += [f"{name}: {label} {fault}" for fault in faults(call)]
    return runs, failures


def cli_calls(role, root, mutated):
    """``(label, call)`` of every command that reads the ``role`` file: the call
    returns a message unless the command exits 0 or 2."""
    def call(argv):
        status = main(argv)
        return None if status in (0, 2) else f"exited {status}"
    return [(argv[0], lambda argv=argv: call(argv)) for argv in commands(role, root, mutated)]


@pytest.mark.parametrize("role", ["trace", "model", "scan", "truth"])
def test_every_mutation_exits_0_or_2(files, tmp_path, role):
    mutated = tmp_path / f"mutated-{SOURCES[role]}"
    cases = ((name, m.encode()) for name, m in mutations((files / SOURCES[role]).read_text()))
    runs, failures = run_cases(mutated, cases, cli_calls(role, files, mutated))
    assert runs >= 200
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("role, column, edit", [
    ("model", -1, lambda cell: repr(float(cell) * 1e-300)),
    ("model", -1, lambda cell: "0.0"),
    ("trace", -1, lambda cell: "0"),
    ("scan", 0, lambda cell: repr(float(cell) * 2.0**-1027)),
    ("scan", 0, lambda cell: repr(float(cell) * 2.0**-1030)),
    ("scan", 0, lambda cell: repr(float(cell) * 2.0**-1070)),
], ids=["every-weight-times-1e-300", "every-weight-0", "every-count-0",
        "every-duration-times-2^-1027", "every-duration-times-2^-1030",
        "every-duration-times-2^-1070"])
def test_whole_column_edit_exits_0_or_2(files, tmp_path, role, column, edit):
    # the two model edits once ended evaluate in a ZeroDivisionError: the
    # model's formula variance is 0, as for the flat model train writes for a
    # swapped pair; the duration edits once ended fit-rabi in an OverflowError,
    # and at 2^-1030 its fitted frequency times 2 pi overflowed to a nan curve
    lines = (files / SOURCES[role]).read_text().splitlines()
    data = [k for k, line in enumerate(lines) if not line.startswith("#")][1:]
    for k in data:
        cells = lines[k].split(",")
        cells[column] = edit(cells[column])
        lines[k] = ",".join(cells)
    mutated = tmp_path / f"mutated-{SOURCES[role]}"
    runs, failures = run_cases(mutated, [("edited", ("\n".join(lines) + "\n").encode())],
                               cli_calls(role, files, mutated))
    assert runs == {"model": 3, "trace": 5, "scan": 3}[role]
    assert not failures, "\n".join(failures)


def test_the_huge_last_duration_is_a_case(files):
    # the case that once ended in a traceback is among those the sweep runs
    text = (files / "rabi.csv").read_text()
    assert f"line {len(text.splitlines())} cell 0 = '1e308'" in dict(mutations(text))

"""A fixed mutation sweep of the CLI's input files: every case exits 0 or 2.

One seeded pipeline writes a boundary trace, a model, a scan and its truth
file.  Each case changes one of them in one way: a cell replaced by one of
a fixed list of tokens, a line deleted, duplicated, blanked or given one
cell more or fewer, or the whole file given a byte-order mark, CRLF line
ends or a cut.  The cases are fixed (no random draw): the header lines,
the column row and the first, second, middle and last data rows of every
file, and the first, second, middle and last cells of each of those lines.
Each case runs, in-process through ``cli.main``, every command that reads
that file, and each command must return 0 or 2, raise nothing and emit no
``RuntimeWarning`` (numpy's note of an overflow or an invalid value, the
sign of a figure computed from values the types should have rejected).  A
scan whose last duration reads ``1e308`` is one case: its fit once sized a
frequency grid by that value; a model weight or intercept of ``1e308`` is
another, whose estimates once overflowed.  The sweep runs about 3,700
commands in about 10 s on a 2-core machine; its budget is 30 s.
"""

import contextlib
import io
import warnings

import pytest

from nvreadout.cli import main

SEED = 3301                         # not used by any other test or probe

TOKENS = ["", "nan", "inf", "-inf", "-1", "-0", "1e400", "1.5", "0x10", " 3", str(2**63),
          "1e308", "1_000", "３", "3,3", "+5", "1e-320", "True", "#"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation")
    assert main(["simulate", "--reps", "1e5", "--seed", str(SEED), "--out-dir", str(root),
                 "--what", "both", "--rabi-points", "16", "--rabi-span-ns", "400"]) == 0
    assert main(["train", "--mode", "boundary", "--trace0", str(root / "boundary0.csv"),
                 "--trace1", str(root / "boundary1.csv"),
                 "--out", str(root / "model.txt")]) == 0
    return root


def commands(role: str, root, mutated) -> list[list[str]]:
    """Every command that reads ``mutated`` in the place of the ``role`` file."""
    f = {"trace": root / "boundary0.csv", "model": root / "model.txt",
         "scan": root / "rabi.csv", "truth": root / "rabi_truth.csv"}
    f[role] = mutated
    b0, b1, model, scan, truth = (str(p) for p in (f["trace"], root / "boundary1.csv",
                                                   f["model"], f["scan"], f["truth"]))
    out = str(root / "out.csv")
    pair = ["--trace0", b0, "--trace1", b1]
    return {
        "trace": [["sweep", *pair, "--out", out],
                  ["train", "--mode", "boundary", *pair, "--out", out],
                  ["predict", "--model", model, "--trace", b0]],
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


@pytest.mark.parametrize("role", ["trace", "model", "scan", "truth"])
def test_every_mutation_exits_0_or_2(files, tmp_path, role):
    source = {"trace": "boundary0.csv", "model": "model.txt", "scan": "rabi.csv",
              "truth": "rabi_truth.csv"}[role]
    mutated = tmp_path / f"mutated-{source}"
    failures, cases = [], 0
    for name, text in mutations((files / source).read_text()):
        mutated.write_bytes(text.encode("utf-8"))
        for argv in commands(role, files, mutated):
            cases += 1
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    status = main(argv)
            except Exception as exc:                    # the fault this test exists to find
                failures.append(f"{name}: {argv[0]} raised {exc!r}")
                continue
            if status not in (0, 2):
                failures.append(f"{name}: {argv[0]} exited {status}: {sink.getvalue()!r}")
            failures += [f"{name}: {argv[0]} warned {w.message}" for w in caught
                         if issubclass(w.category, RuntimeWarning)]
    assert cases >= 200
    assert not failures, "\n".join(failures)


def test_the_huge_last_duration_is_a_case(files):
    # the case that once ended in a traceback is among those the sweep runs
    text = (files / "rabi.csv").read_text()
    assert f"line {len(text.splitlines())} cell 0 = '1e308'" in dict(mutations(text))

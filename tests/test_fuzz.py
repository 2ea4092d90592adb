"""The robustness sweep's readers and random-byte files: no case ends in a fault.

Each ``io`` reader, run on every case of ``tests/test_mutation.py`` for its
format and on 100 seeded random-byte files, returns a value or raises
``ReadoutError``.  Each command that reads a CLI input file, run on its
random-byte files, returns 0 or 2 and raises nothing (a test name keeps
"0, 1 or 2", a weaker contract it once held).  Neither emits a
``RuntimeWarning`` (a sweep ``bin_width_ns`` of ``1e308`` once made one).
4,086 reads take about 1.4 s and 1,200 commands 2.6 s, on 2 cores.
"""

import contextlib

import numpy as np
import pytest

from nvreadout import ReadoutError

from test_mutation import (READERS, SEED, SOURCES, cli_calls, files,  # noqa: F401
                           mutations, run_cases)

RANDOM_FILES = 100                  # random-byte files of each format
TABLE_BYTES = list(b"0123456789.,-+eE#=:_ \t\nnaifx")


def random_files(text: str):
    """``(name, bytes)`` of the RANDOM_FILES random-byte files of one file: up to
    200 raw bytes, table characters, or the file's head then table characters."""
    lines = text.splitlines(keepends=True)
    column_row = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    head = "".join(lines[:column_row + 1]).encode()
    for k in range(RANDOM_FILES):
        rng = np.random.default_rng([SEED, k])
        size = int(rng.integers(0, 201))
        data = rng.bytes(size) if k % 3 == 0 else bytes(rng.choice(TABLE_BYTES, size).tolist())
        yield f"random file {k}", head + data if k % 3 == 2 else data


@pytest.mark.parametrize("reader", READERS, ids=lambda reader: reader.__name__)
def test_templates_are_valid(files, reader):
    reader(files / READERS[reader])             # the pipeline's file, whence every case


@pytest.mark.parametrize("reader", READERS, ids=lambda reader: reader.__name__)
def test_reader_returns_value_or_readout_error(files, tmp_path, reader):
    mutated, text = tmp_path / READERS[reader], (files / READERS[reader]).read_text()

    def read():
        with contextlib.suppress(ReadoutError):
            reader(mutated)

    cases = [(name, m.encode()) for name, m in mutations(text)] + list(random_files(text))
    runs, failures = run_cases(mutated, cases, [(reader.__name__, read)])
    assert runs >= 200 + RANDOM_FILES
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("role", ["trace", "model", "scan", "truth"],
                         ids=["trace0", "model", "rabi", "truth"])
def test_cli_exits_0_1_or_2(files, tmp_path, role):
    mutated = tmp_path / f"random-{SOURCES[role]}"
    runs, failures = run_cases(mutated, random_files((files / SOURCES[role]).read_text()),
                               cli_calls(role, files, mutated))
    assert runs == RANDOM_FILES * {"trace": 5, "model": 3, "scan": 3, "truth": 1}[role]
    assert not failures, "\n".join(failures)

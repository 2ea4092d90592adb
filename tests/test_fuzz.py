"""Property tests: any bytes given to a reader end in a value or a ReadoutError.

The same holds for the CLI: whatever an input file holds, a command exits
with status 0, 1 or 2 and never with an uncaught exception.  Inputs are
random bytes or valid files with a few lines or cells replaced by junk.
Random scans and models also round-trip byte for byte.  Examples are derandomized, so
every run tries the same inputs.
"""

import contextlib
import io
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from nvreadout import (LossBreakdown, RabiDataset, ReadoutError,  # noqa: E402
                       ReadoutModel)
from nvreadout import io as nvio  # noqa: E402
from nvreadout.cli import main  # noqa: E402

SETTINGS = dict(deadline=None, derandomize=True, database=None)

TEMPLATES = {
    nvio.read_trace_csv: "# trace-csv v1\n# repetitions=10\n# bin_width_ns=2.0\n# seed=3\n"
                         "bin_index,counts\n0,5\n1,3\n2,0\n",
    nvio.read_rabi_csv: "# rabi-csv v2\n# repetitions=10\n# bin_width_ns=2.0\n"
                        "duration_ns,bin_0,bin_1\n0.0,5,3\n10.0,4,2\n",
    nvio.read_truth_csv: "# truth-csv v1\nduration_ns,population\n0.0,1.0\n10.0,0.5\n",
    nvio.read_sweep_csv: "# sweep-csv v2\n# bin_width_ns=2.0\n# repetitions=10\n"
                         "width_bins,width_ns,L0,L1,contrast,total_variance,degenerate_flag\n"
                         "1,2.0,5.0,1.0,0.8,0.1875,0\n2,4.0,,,,,1\n"
                         "# max_contrast: width_bins=1 width_ns=2.0 contrast=0.8 "
                         "total_variance=0.1875\n# min_variance: width_bins=1 width_ns=2.0 "
                         "contrast=0.8 total_variance=0.1875\n",
    nvio.read_model: "# readout-model v2\n# dimension=2\n# bin_width_ns=2.0\n# rate_scale=1.0\n"
                     "# intercept=0.0\n# trained_on=hand\n# loss_prediction=0.1\n"
                     "# loss_variance=0.2\n# loss_weight_factor=10.0\nweight\n0.5\n0.25\n",
    nvio.read_report_csv: "# eval-report v1\n# truth_based=1\n"
                          "method,avg_formula_variance,empirical_mse,contrast_measured\n"
                          "ML,0.01,0.02,0.9\nmin-V gate,0.02,0.03,0.8\n"
                          "# reduction ML vs min-V gate=0.5\n",
    nvio.read_repair_csv: "# repair-csv v1\n# rms_original=0.1\n# rms_repaired=0.05\n"
                          "duration_ns,p_original,p_repaired,q_fit\n0.0,1.0,0.9,1.0\n"
                          "10.0,0.5,0.5,0.5\n",
    nvio.read_fit_csv: "# fit-report v1\n# offset=0.5\n# amplitude=0.5\n# frequency_per_ns=0.005\n"
                       "# phase_rad=0.0\n# residual_rms=0.01\n# normalized=1\n"
                       "duration_ns,p_raw,p_fit,residual\n0.0,1.0,1.0,0.0\n",
}

JUNK = st.one_of(
    st.sampled_from([b"", b"abc", b"-1", b"0", b"1.5", b"nan", b"inf", b"-inf", b"1e400",
                     b"1_0", "٥".encode(), "²".encode(), b"\xff"]),
    st.integers(-2**70, 2**70).map(lambda n: str(n).encode()),
    st.text(alphabet="0123456789.,-+eE#=:_ \tnaifx", max_size=12).map(str.encode),
    st.binary(max_size=12))


@st.composite
def mutated(draw, template: bytes):
    """``template`` with one to three lines or lines inserted, or cells replaced.

    A cell is a part of a line between commas, ``=`` or whitespace, so header values
    are replaced as often as data cells.
    """
    lines = template.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        junk = draw(JUNK)
        how = draw(st.sampled_from(["cell", "cell", "line", "insert"]))
        if how == "line":
            lines[i] = junk
        elif how == "insert":
            lines.insert(i, junk)
        else:
            cells = re.split(rb"([,=\s])", lines[i])     # separators at odd indices
            cells[2 * draw(st.integers(0, len(cells) // 2))] = junk
            lines[i] = b"".join(cells)
    return b"\n".join(lines)


def file_bytes(template: bytes):
    return st.one_of(st.binary(max_size=200), mutated(template))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("reader", TEMPLATES, ids=lambda r: r.__name__)
def test_templates_are_valid(reader, workdir):
    path = workdir / "template.txt"
    path.write_text(TEMPLATES[reader])
    reader(path)


@pytest.mark.parametrize("reader", TEMPLATES, ids=lambda r: r.__name__)
@settings(max_examples=100, **SETTINGS)
@given(data=st.data())
def test_reader_returns_value_or_readout_error(reader, workdir, data):
    path = workdir / "input.txt"
    path.write_bytes(data.draw(file_bytes(TEMPLATES[reader].encode())))
    try:
        reader(path)
    except ReadoutError:
        pass


@st.composite
def scans(draw):
    """A scan of 1-20 points and 1-64 bins: counts up to 2**62, durations
    any strictly increasing finite floats."""
    points, bins = draw(st.integers(1, 20)), draw(st.integers(1, 64))
    durations = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=points, max_size=points, unique=True))
    counts = draw(st.lists(st.lists(st.integers(0, 2**62), min_size=bins, max_size=bins),
                           min_size=points, max_size=points))
    return RabiDataset(sorted(durations), counts, draw(st.integers(1, 2**62)),
                       draw(st.floats(1e-6, 1e6)))


@settings(max_examples=100, **SETTINGS)
@given(dataset=scans())
def test_scan_round_trip(dataset, workdir):
    a, b = workdir / "scan-a.csv", workdir / "scan-b.csv"
    nvio.write_rabi_csv(a, dataset)
    again = nvio.read_rabi_csv(a)
    nvio.write_rabi_csv(b, again)
    assert a.read_bytes() == b.read_bytes()
    assert np.array_equal(again.durations, dataset.durations)
    assert np.array_equal(again.counts, dataset.counts)
    assert (again.repetitions, again.bin_width_ns) == (dataset.repetitions,
                                                       dataset.bin_width_ns)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(0.0, allow_infinity=False)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def models(draw):
    """A model of 1-64 weights whose ``trained_on`` is one line without surrounding
    whitespace, holding ``=``, ``#`` and ``,`` as often as other characters, and
    with a training loss or none."""
    trained_on = draw(st.text(st.one_of(st.sampled_from("=#, "),
                                        st.characters(exclude_categories=("Cs",))))
                      .filter(lambda t: t == t.strip() and len(t.splitlines()) <= 1))
    loss = draw(st.none() | st.builds(LossBreakdown, NONNEGATIVE, NONNEGATIVE, POSITIVE))
    return ReadoutModel(draw(st.lists(NONNEGATIVE, min_size=1, max_size=64)), draw(FINITE),
                        draw(POSITIVE), draw(POSITIVE), trained_on, loss)


@settings(max_examples=100, **SETTINGS)
@given(model=models())
def test_model_round_trip(model, workdir):
    a, b = workdir / "model-a.txt", workdir / "model-b.txt"
    nvio.write_model(a, model)
    again = nvio.read_model(a)
    nvio.write_model(b, again)
    assert a.read_bytes() == b.read_bytes()
    assert np.array_equal(again.weights, model.weights)
    assert (again.intercept, again.reference_bin_width_ns, again.rate_scale,
            again.trained_on, again.training_loss) == (
        model.intercept, model.reference_bin_width_ns, model.rate_scale,
        model.trained_on, model.training_loss)
    if model.training_loss is not None:
        assert again.training_loss.total.hex() == model.training_loss.total.hex()


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """Small valid pipeline inputs: boundary traces, a 12-point scan and a model."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    assert main(["simulate", "--reps", "1e5", "--seed", "5", "--out-dir", str(root),
                 "--what", "both", "--rabi-points", "12", "--rabi-span-ns", "300"]) == 0
    assert main(["train", "--mode", "boundary", "--trace0", str(root / "boundary0.csv"),
                 "--trace1", str(root / "boundary1.csv"),
                 "--out", str(root / "model.txt")]) == 0
    return root


def cli_argv(role: str, root, fuzzed) -> list[str]:
    """A command that reads ``fuzzed`` in the place of the ``role`` input."""
    files = {"trace0": root / "boundary0.csv", "trace1": root / "boundary1.csv",
             "rabi": root / "rabi.csv", "model": root / "model.txt",
             "truth": root / "rabi_truth.csv"}
    files[role] = fuzzed
    f = {key: str(value) for key, value in files.items()}
    out = str(root / "out.csv")
    return {
        "trace0": ["sweep", "--trace0", f["trace0"], "--trace1", f["trace1"], "--out", out],
        "model": ["predict", "--model", f["model"], "--trace", f["trace0"]],
        "rabi": ["repair", "--rabi", f["rabi"], "--model", f["model"],
                 "--trace0", f["trace0"], "--trace1", f["trace1"], "--out", out],
        "truth": ["evaluate", "--rabi", f["rabi"], "--model", f["model"],
                  "--trace0", f["trace0"], "--trace1", f["trace1"], "--truth", f["truth"],
                  "--out", out],
    }[role]


@pytest.mark.parametrize("role", ["trace0", "model", "rabi", "truth"])
@settings(max_examples=30, **SETTINGS)
@given(data=st.data())
def test_cli_exits_0_1_or_2(role, good_files, data):
    template = {"trace0": "boundary0.csv", "model": "model.txt", "rabi": "rabi.csv",
                "truth": "rabi_truth.csv"}[role]
    fuzzed = good_files / f"fuzzed-{role}"
    fuzzed.write_bytes(data.draw(file_bytes((good_files / template).read_bytes())))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(cli_argv(role, good_files, fuzzed))
    assert status in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()

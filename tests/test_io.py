"""File formats: round trips and strict parsing."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import gates
from nvreadout import (ParameterError, ParseError, RabiDataset, ReadoutError, ReadoutModel,
                       RepairResult, SinusoidFit, TimeTrace, evaluate, expected_trace,
                       make_profiles, paper_like_params, repair, simulate_rabi_dataset,
                       simulate_trace, sweep_gate, train_boundary)
from nvreadout import io as nvio

CURVES = ("bright_total", "dark_total", "contrast", "total_variance")
READERS = [nvio.read_trace_csv, nvio.read_rabi_csv, nvio.read_truth_csv,
           nvio.read_sweep_csv, nvio.read_model, nvio.read_report_csv,
           nvio.read_repair_csv, nvio.read_fit_csv]


@pytest.fixture(scope="module")
def world():
    p0, p1 = make_profiles(paper_like_params())
    t0 = simulate_trace(p0, 10**6, seed=1, label="bright boundary")
    t1 = simulate_trace(p1, 10**6, seed=2, label="dark boundary")
    sweep = sweep_gate(t0, t1)
    dataset, truth = simulate_rabi_dataset(p0, p1, repetitions=10**5, seed=40,
                                           points=24, span_ns=460.0)
    model = train_boundary(t0, t1)
    return t0, t1, sweep, dataset, truth, model


def roundtrip_bytes(path_a, path_b):
    return path_a.read_bytes() == path_b.read_bytes()


class TestTraceCsv:
    def test_round_trip_byte_identical(self, world, tmp_path):
        t0 = world[0]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_trace_csv(a, t0)
        again = nvio.read_trace_csv(a)
        nvio.write_trace_csv(b, again)
        assert roundtrip_bytes(a, b)
        assert np.array_equal(again.counts, t0.counts)
        assert again.repetitions == t0.repetitions
        assert again.label == t0.label and again.seed == t0.seed

    def test_missing_repetitions_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# trace-csv v1\nbin_index,counts\n0,1\n")
        with pytest.raises(ParseError, match="repetitions"):
            nvio.read_trace_csv(p)

    def test_non_numeric_bin_width_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# trace-csv v1\n# repetitions=10\n# bin_width_ns=wide\n"
                     "bin_index,counts\n0,1\n")
        with pytest.raises(ParseError, match="bin_width_ns"):
            nvio.read_trace_csv(p)

    def test_non_integer_counts_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# trace-csv v1\n# repetitions=10\nbin_index,counts\n0,1.5\n")
        with pytest.raises(ParseError, match="line 4"):
            nvio.read_trace_csv(p)

    def test_out_of_order_bins_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# trace-csv v1\n# repetitions=10\n# bin_width_ns=2.0\n"
                     "bin_index,counts\n1,2\n")
        with pytest.raises(ParseError, match="out of order"):
            nvio.read_trace_csv(p)

    def test_negative_counts_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# trace-csv v1\n# repetitions=10\n# bin_width_ns=2.0\n"
                     "bin_index,counts\n0,-3\n")
        with pytest.raises(ParseError, match="negative"):
            nvio.read_trace_csv(p)

    @pytest.mark.parametrize("header, row, match", [
        ("# seed=abc\n", "1,4", r"bad\.csv: seed='abc' is not an integer"),
        ("", "1,9223372036854775808", r"bad\.csv: line 7: .*'9223372036854775808'"),
    ], ids=["non-integer-seed", "count-above-int64"])
    def test_malformed_value_is_parse_error(self, tmp_path, header, row, match):
        p = tmp_path / "bad.csv"
        p.write_text(f"# trace-csv v1\n# repetitions=10\n# bin_width_ns=2.0\n"
                     f"{header}bin_index,counts\n"
                     f"0,3\n\n{row}\n")
        with pytest.raises(ParseError, match=match):
            nvio.read_trace_csv(p)


def old_read_rabi_csv(path):
    """A per-line scan reader, as the reference for ``read_rabi_csv``.

    It keeps durations in file order, in any order, so it is the reference
    for scans with increasing durations only.  Returns (durations, counts
    rows, repetitions, bin width) as Python lists and numbers; malformed rows
    raise ParseError with their line.
    """
    header, rows = {}, []
    for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            text = line[1:].strip()
            if "=" in text and not rows:
                key, _, value = text.partition("=")
                header[key.strip()] = value.strip()
            continue
        rows.append((no, line))
    n = len(rows[0][1].split(",")) - 1
    assert rows[0][1] == "duration_ns," + ",".join(f"bin_{i}" for i in range(n))
    durations, counts = [], []
    for no, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != n + 1:
            raise ParseError(f"expected {n + 1} fields, got {len(parts)}", no)
        try:
            duration, values = float(parts[0]), [int(part) for part in parts[1:]]
        except ValueError:
            raise ParseError(f"bad field in {row!r}", no)
        if min(values) < 0:
            raise ParseError(f"counts {min(values)} is negative", no)
        durations.append(duration)
        counts.append(values)
    return (durations, counts, int(header["repetitions"]),
            float(header["bin_width_ns"]))


RABI_HEAD = "# rabi-csv v2\n# repetitions=100\n# bin_width_ns=4.0\nduration_ns,bin_0,bin_1\n"


class TestRabiReaderOracle:
    @pytest.mark.parametrize("body", [
        "0.0,5,6\n\n   \n# a comment\n\t\n10.0,7,8\n",
        "0.0,5,6\n10.0,7,8\n# max: 8\n\n# end\n",
    ], ids=["blank-and-comment-lines", "footer-comments"])
    def test_matches_per_line_reader(self, tmp_path, body):
        p = tmp_path / "scan.csv"
        p.write_text(RABI_HEAD + body)
        self.assert_same(p)

    def test_matches_per_line_reader_on_readme_scan(self, tmp_path):
        p0, p1 = make_profiles(paper_like_params())
        dataset, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5, seed=7)
        p = tmp_path / "rabi.csv"
        nvio.write_rabi_csv(p, dataset)
        self.assert_same(p)

    @staticmethod
    def assert_same(path):
        durations, counts, reps, width = old_read_rabi_csv(path)
        new = nvio.read_rabi_csv(path)
        assert new.durations.tolist() == durations
        assert new.counts.tolist() == counts
        assert new.repetitions == reps and new.bin_width_ns == width

    @pytest.mark.parametrize("row", [
        "10.0,7", "10.0,7,8,1", "10.0,7.5,8", "10.0,7.0,8", "ten,7,8", "10.0,7,-8",
        "5.0,7,8", "10.0,9223372036854775808,8", "10.0,7,8 # note",
    ], ids=["2-fields", "4-fields", "non-integer-count", "integral-float-count",
            "non-numeric-duration", "negative-count", "out-of-order-duration",
            "count-above-int64", "trailing-comment"])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        p = tmp_path / "scan.csv"
        p.write_text(RABI_HEAD + f"0.0,5,6\n\n# note\n5.0,1,2\n{row}\n20.0,1,8\n")
        with pytest.raises(ParseError, match=r"scan\.csv: line 9: ") as new:
            nvio.read_rabi_csv(p)
        assert new.value.line == 9
        # the old reader kept big ints and any duration order
        if row not in ("10.0,9223372036854775808,8", "5.0,7,8"):
            with pytest.raises(ParseError) as old:
                old_read_rabi_csv(p)
            assert old.value.line == 9

    def test_durations_keep_their_file_order(self, tmp_path):
        p = tmp_path / "scan.csv"
        p.write_text(RABI_HEAD + "10.0,5,6\n0.0,6,7\n")
        assert old_read_rabi_csv(p)[0] == [10.0, 0.0]
        with pytest.raises(ReadoutError, match="strictly increasing"):
            nvio.read_rabi_csv(p)

    def test_first_bad_row_in_a_long_scan(self, tmp_path):
        rows = [f"{d}.0,{d % 7},{d % 5}" for d in range(2000)]
        rows[1234] = rows[1234] + ",1"
        p = tmp_path / "scan.csv"
        p.write_text(RABI_HEAD + "\n".join(rows[:1000]) + "\n\n" + "\n".join(rows[1000:]))
        with pytest.raises(ParseError, match="line 1240: .*4 were found") as err:
            nvio.read_rabi_csv(p)
        assert err.value.line == 1240


@pytest.mark.parametrize("reader, text, match", [
    (nvio.read_rabi_csv, "# rabi-csv v2\n# repetitions=10\n# bin_width_ns=2.0\n"
     "duration_ns,bin_0\n10.0,5\n0.0,6\n",
     "line 6: durations must be finite and strictly increasing"),
    (nvio.read_trace_csv, "# trace-csv v1\n# repetitions=0\n# bin_width_ns=2.0\n"
     "bin_index,counts\n0,5\n",
     "repetitions must be an integer >= 1"),
    (nvio.read_sweep_csv, "# sweep-csv v2\n# bin_width_ns=-2.0\n"
     "# repetitions=10\nwidth_bins,width_ns,L0,L1,contrast,total_variance,degenerate_flag\n"
     "1,-2.0,5.0,1.0,0.8,0.1875,0\n", "bin_width_ns must be finite and positive, got -2.0"),
    (nvio.read_sweep_csv, "# sweep-csv v2\n# bin_width_ns=2.0\n"
     "# repetitions=-3\nwidth_bins,width_ns,L0,L1,contrast,total_variance,degenerate_flag\n"
     "1,2.0,5.0,1.0,0.8,0.1875,0\n", "repetitions must be an integer >= 1"),
    (nvio.read_model, "# readout-model v2\n# dimension=2\n# bin_width_ns=2.0\n# intercept=0.0\n"
     "# rate_scale=1.0\n# trained_on=by hand\nweight\n1.0\n-1.0\n",
     "line 9: weights must be nonnegative"),
    (nvio.read_fit_csv, "# fit-report v1\n# offset=0.5\n# amplitude=-0.1\n"
     "# frequency_per_ns=0.005\n# phase_rad=0.0\n# residual_rms=0.01\n"
     "duration_ns,p_raw,p_fit,residual\n0.0,0.5,0.5,0.0\n", "amplitude must be >= 0"),
], ids=["durations-swapped", "zero-repetitions", "negative-sweep-bin-width",
        "negative-sweep-repetitions", "negative-weight", "negative-amplitude"])
def test_domain_error_names_the_file(tmp_path, reader, text, match):
    p = tmp_path / "input.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match=rf"input\.csv: {match}"):
        reader(p)


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("weight, match", [
    ("-1.0", "nonnegative"), ("nan", "finite"), ("inf", "finite"), ("-inf", "finite")])
def test_bad_model_weight_names_its_line(tmp_path, weight, match, row):
    # weight rows sit on lines 8, 10 and 11: a comment line precedes the second
    weights = ["0.5", "1.0", "0.25"]
    weights[row] = weight
    p = tmp_path / "model.txt"
    p.write_text("# readout-model v2\n# dimension=3\n# bin_width_ns=2.0\n# intercept=0.0\n"
                 "# rate_scale=1.0\n# trained_on=by hand\nweight\n"
                 "{}\n# a comment\n{}\n{}\n".format(*weights))
    line = (8, 10, 11)[row]
    with pytest.raises(ParseError, match=rf"model\.txt: line {line}: weights must be {match}$") \
            as err:
        nvio.read_model(p)
    assert err.value.line == line


@pytest.mark.parametrize("reader, text, line, match", [
    (nvio.read_rabi_csv, RABI_HEAD + "0.0,5,-6\n10.0,7,8\n5.0,1,2\n", 7,
     "durations must be finite and strictly increasing"),
    (nvio.read_trace_csv, "# trace-csv v1\n# repetitions=10\n# bin_width_ns=2.0\n"
     "bin_index,counts\n0,-3\n2,4\n", 6, r"bin_index 2 out of order \(expected 1\)"),
], ids=["scan-durations-before-counts", "trace-bin-index-before-counts"])
def test_two_broken_rules_report_the_first_rule(tmp_path, reader, text, line, match):
    # a negative count sits on an earlier row than the other broken rule
    p = tmp_path / "input.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match=rf"input\.csv: line {line}: {match}$") as err:
        reader(p)
    assert err.value.line == line


TRACE_HEAD = "# trace-csv v1\n# repetitions=10000000\n"
MODEL = "# readout-model v2\n# dimension=2\n# bin_width_ns=2.0\n# intercept=0.0\nweight\n1.0\n1.0\n"


@pytest.mark.parametrize("reader, text, match", [
    (nvio.read_trace_csv, TRACE_HEAD + "# repetitions=5\nbin_index,counts\n0,5\n",
     "line 3: repeated field 'repetitions'"),
    (nvio.read_trace_csv, "# trace-csv v1\n# repetitions=10_000_000\nbin_index,counts\n0,5\n",
     "repetitions='10_000_000' is not an integer"),
    (nvio.read_trace_csv, "# trace-csv v1\n# repetitions=\u0662\nbin_index,counts\n0,5\n",
     "repetitions='\u0662' is not an integer"),
    (nvio.read_trace_csv, TRACE_HEAD + "# bin_width_ns=2_0.0\nbin_index,counts\n0,5\n",
     "bin_width_ns='2_0.0' is not a number"),
    (nvio.read_model, MODEL.replace("# intercept=0.0\n", "# intercept=0.0\n# intercept=0.5\n"),
     "line 5: repeated field 'intercept'"),
    (nvio.read_model, MODEL.replace("dimension=2", "dimension=\u0662"),
     "dimension='\u0662' is not an integer"),
    (nvio.read_model, MODEL.replace("intercept=0.0", "intercept=1_0.0"),
     "intercept='1_0.0' is not a number"),
    (nvio.read_model, MODEL.replace("weight\n1.0\n", "weight\n1_0.0\n"),
     "line 6: could not convert string '1_0.0'"),
    (nvio.read_model, MODEL.replace("weight\n1.0\n", "weight\n\n\u0665\n"),
     "line 7: could not convert string '\u0665'"),
    (nvio.read_model, MODEL.replace("weight\n1.0\n", "weight\n1.0,2.0\n"),
     "line 6: "),
], ids=["repeated-header-key", "header-underscore", "header-non-ascii-digit",
        "header-float-underscore", "repeated-model-field", "model-non-ascii-digit",
        "model-underscore", "weight-underscore", "weight-non-ascii-digit", "weight-two-cells"])
def test_fields_and_weights_follow_the_cell_rules(tmp_path, reader, text, match):
    p = tmp_path / "input.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=rf"input\.csv: {match}"):
        reader(p)


@pytest.fixture(scope="module")
def written(world, tmp_path_factory):
    """The schema of each reader and a file of it as its writer writes it."""
    from nvreadout import fit_rabi
    root = tmp_path_factory.mktemp("written")
    t0, t1, sweep, dataset, truth, model = world
    sums = dataset.counts.sum(axis=1) / dataset.repetitions
    min_v = gates(t0, t1)[1]
    files = {}
    for reader, schema, write in [
            (nvio.read_trace_csv, "trace-csv", lambda p: nvio.write_trace_csv(p, t0)),
            (nvio.read_rabi_csv, "rabi-csv", lambda p: nvio.write_rabi_csv(p, dataset)),
            (nvio.read_truth_csv, "truth-csv",
             lambda p: nvio.write_truth_csv(p, dataset.durations, truth)),
            (nvio.read_sweep_csv, "sweep-csv", lambda p: nvio.write_sweep_csv(p, sweep)),
            (nvio.read_model, "readout-model", lambda p: nvio.write_model(p, model)),
            (nvio.read_report_csv, "eval-report", lambda p: nvio.write_report_csv(
                p, evaluate(dataset, *gates(t0, t1), model, truth))),
            (nvio.read_repair_csv, "repair-csv",
             lambda p: nvio.write_repair_csv(p, repair(dataset, min_v, model))),
            (nvio.read_fit_csv, "fit-report", lambda p: nvio.write_fit_csv(
                p, dataset.durations, sums, fit_rabi(dataset.durations, sums)))]:
        write(root / schema)
        files[reader] = schema, root / schema
    return files


@pytest.mark.parametrize("other", ["schema", "version"])
@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
def test_schema_line_must_be_the_readers(written, tmp_path, reader, other):
    schema, path = written[reader]
    reader(path)
    first, rest = path.read_text().split("\n", 1)
    assert first == f"# {schema} v{nvio.FORMAT_VERSIONS[schema]}"
    if other == "schema":       # a file of another format, at that format's version
        wrong = next(s for s in nvio.FORMAT_VERSIONS if s != schema)
        first = f"# {wrong} v{nvio.FORMAT_VERSIONS[wrong]}"
    else:
        first = f"# {schema} v{nvio.FORMAT_VERSIONS[schema] + 1}"
    p = tmp_path / "input.csv"
    p.write_text(f"{first}\n{rest}")
    with pytest.raises(ParseError, match=rf"input\.csv: line 1: expected '# {schema} v"):
        reader(p)


@pytest.mark.parametrize("reader, key", [
    (nvio.read_trace_csv, "bin_width_ns"), (nvio.read_rabi_csv, "bin_width_ns"),
    (nvio.read_sweep_csv, "bin_width_ns"), (nvio.read_model, "rate_scale"),
    (nvio.read_model, "trained_on"), (nvio.read_report_csv, "truth_based")],
    ids=lambda x: getattr(x, "__name__", x))
def test_missing_header_is_parse_error(written, tmp_path, reader, key):
    # every writer writes the field, so a file without it is not read with a guess
    _, path = written[reader]
    text = path.read_text()
    line = re.search(rf"^# {key}=.*\n", text, re.M).group()
    p = tmp_path / "input.csv"
    p.write_text(text.replace(line, ""))
    with pytest.raises(ParseError, match=rf"input\.csv: missing required field '{key}'"):
        reader(p)


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
def test_no_data_rows_is_parse_error(written, tmp_path, reader):
    # no writer writes a table without rows: a file of only its header, column
    # row and footer reads as an error, not as an empty sweep, report or fit
    _, path = written[reader]
    lines = path.read_text().splitlines(keepends=True)
    end = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    p = tmp_path / "input.csv"
    p.write_text("".join(lines[:end] + [line for line in lines[end:] if line.startswith("#")]))
    with pytest.raises(ParseError, match=r"input\.csv: no data rows$"):
        reader(p)


@pytest.mark.parametrize("value, match", [
    ("yes", "is not an integer"), ("2", "is not 0 or 1"), ("-1", "is not 0 or 1"),
    ("1.0", "is not an integer")])
def test_truth_based_must_be_0_or_1(written, tmp_path, value, match):
    _, path = written[nvio.read_report_csv]
    p = tmp_path / "input.csv"
    p.write_text(path.read_text().replace("# truth_based=1\n", f"# truth_based={value}\n"))
    with pytest.raises(ParseError, match=rf"input\.csv: truth_based='{value}' {match}"):
        nvio.read_report_csv(p)


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
def test_undecodable_bytes_are_parse_error(tmp_path, reader):
    p = tmp_path / "binary.csv"
    p.write_bytes(b"# trace-csv v1\n# repetitions=10\n\xff\xfe\n")
    with pytest.raises(ParseError, match=r"binary\.csv: .*can't decode byte 0xff"):
        reader(p)


# float64 arrays, as the pipeline passes them: %r of a numpy scalar would spell its type
EDGE = np.array([-0.0, 5e-324, 0.1 + 0.2, 1e22])
FIT = SinusoidFit(0.5, 0.5, 0.01, 0.0, 0.0)


@pytest.mark.parametrize("write, expected", [
    (lambda p: nvio.write_trace_csv(p, TimeTrace(np.array([2**63 - 1, 0, 7]), repetitions=10,
                                                 bin_width_ns=0.1 + 0.2, label="edge", seed=3)),
     b"# trace-csv v1\n# repetitions=10\n# bin_width_ns=0.30000000000000004\n# label=edge\n"
     b"# seed=3\nbin_index,counts\n0,9223372036854775807\n1,0\n2,7\n"),
    (lambda p: nvio.write_rabi_csv(p, RabiDataset(EDGE, [[2**63 - 1, 0], [1, 2], [3, 4], [5, 6]],
                                                  10, 2.0)),
     b"# rabi-csv v2\n# repetitions=10\n# bin_width_ns=2.0\nduration_ns,bin_0,bin_1\n"
     b"-0.0,9223372036854775807,0\n5e-324,1,2\n0.30000000000000004,3,4\n1e+22,5,6\n"),
    (lambda p: nvio.write_truth_csv(p, EDGE, np.array([1.0, 5e-324, 0.1 + 0.2, -0.0])),
     b"# truth-csv v1\nduration_ns,population\n-0.0,1.0\n5e-324,5e-324\n"
     b"0.30000000000000004,0.30000000000000004\n1e+22,-0.0\n"),
    (lambda p: nvio.write_model(p, ReadoutModel(np.array([0.1 + 0.2, 1e22, 5e-324, -0.0]), 0.1,
                                                2.0, trained_on="by hand")),
     b"# readout-model v2\n# dimension=4\n# bin_width_ns=2.0\n# rate_scale=1.0\n"
     b"# intercept=0.1\n# trained_on=by hand\nweight\n0.30000000000000004\n1e+22\n5e-324\n"
     b"-0.0\n"),
    (lambda p: nvio.write_repair_csv(p, RepairResult(
        EDGE, EDGE[::-1].copy(), np.array([0.5, -0.0, 1e22, 0.1 + 0.2]),
        np.array([5e-324, 0.25, 0.1 + 0.2, 1.0]), FIT, FIT, 0.1 + 0.2, 5e-324)),
     b"# repair-csv v1\n# rms_original=0.30000000000000004\n# rms_repaired=5e-324\n"
     b"duration_ns,p_original,p_repaired,q_fit\n-0.0,1e+22,0.5,5e-324\n"
     b"5e-324,0.30000000000000004,-0.0,0.25\n0.30000000000000004,5e-324,1e+22,0.30000000000000004\n"
     b"1e+22,-0.0,0.30000000000000004,1.0\n"),
    # offset 0.5, amplitude 0.5: p_raw is the raw value; the frequency is so low that
    # the fitted curve is 1.0 at every duration
    (lambda p: nvio.write_fit_csv(p, EDGE, np.array([0.1 + 0.2, 1e22, 5e-324, -0.0]),
                                  SinusoidFit(0.5, 0.5, 5e-324, 0.0, 0.1 + 0.2)),
     b"# fit-report v1\n# offset=0.5\n# amplitude=0.5\n# frequency_per_ns=5e-324\n"
     b"# phase_rad=0.0\n# residual_rms=0.30000000000000004\n# normalized=1\n"
     b"duration_ns,p_raw,p_fit,residual\n-0.0,0.30000000000000004,1.0,-0.7\n"
     b"5e-324,1e+22,1.0,1e+22\n0.30000000000000004,5e-324,1.0,-1.0\n1e+22,-0.0,1.0,-1.0\n"),
], ids=["trace", "scan", "truth", "model", "repair", "fit"])
def test_numeric_writer_bytes(tmp_path, write, expected):
    # exact text where a float format drifts (shortest repr, exponent, subnormal,
    # signed zero) and at the largest count: a round trip cannot see a format that
    # changes alike on write and on re-write
    p = tmp_path / "out.csv"
    write(p)
    assert p.read_bytes() == expected


class TestRabiCsv:
    def test_writer_text(self, tmp_path):
        p = tmp_path / "scan.csv"
        nvio.write_rabi_csv(p, RabiDataset([0.0, 12.5], [[1, 0, 3], [4, 5, 60]], 100, 2.0))
        assert p.read_bytes() == (b"# rabi-csv v2\n# repetitions=100\n# bin_width_ns=2.0\n"
                                  b"duration_ns,bin_0,bin_1,bin_2\n0.0,1,0,3\n12.5,4,5,60\n")

    @pytest.mark.parametrize("top", [6, 7], ids=["table", "template"])
    def test_writer_bytes_at_the_table_bound(self, tmp_path, top):
        # N = 7 bins: counts below N take their cells from a table, a count of N
        # or more sends the scan through the template; the bytes are the template's
        counts = np.random.default_rng(top).integers(0, top, size=(4, 7))
        counts[2, 3] = top
        p = tmp_path / "scan.csv"
        nvio.write_rabi_csv(p, RabiDataset(EDGE, counts, 10, 2.0))
        rows = "".join(("%r" + ",%d" * 7) % (d, *row) + "\n"
                       for d, row in zip(EDGE.tolist(), counts.tolist()))
        assert p.read_text() == ("# rabi-csv v2\n# repetitions=10\n# bin_width_ns=2.0\n"
                                 "duration_ns," + ",".join(f"bin_{i}" for i in range(7))
                                 + "\n" + rows)

    def test_round_trip(self, world, tmp_path):
        dataset = world[3]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_rabi_csv(a, dataset)
        again = nvio.read_rabi_csv(a)
        nvio.write_rabi_csv(b, again)
        assert roundtrip_bytes(a, b)
        assert np.array_equal(again.durations, dataset.durations)
        assert np.array_equal(again.counts, dataset.counts)

    @pytest.mark.parametrize("body, line, match", [
        ("0.0,5,6\n20.0,7,8\n10.0,1,2\n", 7,
         "durations must be finite and strictly increasing"),
        ("0.0,5,6\n10.0,7,8\n10.0,1,2\n", 7,
         "durations must be finite and strictly increasing"),
        ("0.0,5,6\n10.0,7,8\n20.0,1,2,3\n", 7, ".*requires 3 columns but 4 were found"),
        ("0.0,5,6\n10.0,7,8\nnan,1,2\n", 7, "duration_ns nan is not finite"),
    ], ids=["interleaved", "repeated-duration", "later-block-longer", "nan-duration"])
    def test_rows_must_be_the_matrix_in_file_order(self, tmp_path, body, line, match):
        # one row per duration, durations strictly increasing, N counts each
        p = tmp_path / "scan.csv"
        p.write_text(RABI_HEAD + body)
        with pytest.raises(ParseError, match=rf"scan\.csv: line {line}: {match}") as err:
            nvio.read_rabi_csv(p)
        assert err.value.line == line

    def test_ragged_durations_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("# rabi-csv v2\n# repetitions=10\nduration_ns,bin_0,bin_1\n"
                     "0.0,1,2\n5.0,3\n")
        with pytest.raises(ParseError, match=r"ragged\.csv: line 5: .*3 columns but 2 were"):
            nvio.read_rabi_csv(p)

    @pytest.mark.parametrize("version, columns, expected", [
        (1, "duration_ns,bin_index,counts", "line 1: expected '# rabi-csv v2' schema line"),
        (2, "duration_ns", "line 3: expected 'duration_ns,bin_0' column row"),
        (2, "duration_ns,bin_1,bin_0", "line 3: expected 'duration_ns,bin_0,bin_1' column row"),
        (2, "duration_ns,bin_0,", "line 3: expected 'duration_ns,bin_0,bin_1' column row"),
    ], ids=["v1", "no-bins", "bins-out-of-order", "empty-cell"])
    def test_other_column_rows_rejected(self, tmp_path, version, columns, expected):
        # a v1 scan (one row per bin) fails on its schema line
        p = tmp_path / "scan.csv"
        p.write_text(f"# rabi-csv v{version}\n# repetitions=10\n{columns}\n0.0,0,5\n")
        with pytest.raises(ParseError, match=rf"scan\.csv: {expected}"):
            nvio.read_rabi_csv(p)

    @pytest.mark.parametrize("row, match", [
        ("10.0,nan", "population nan is outside"), ("10.0,7.5", "population 7.5 is outside"),
        ("10.0,-0.5", "population -0.5 is outside"), ("inf,0.5", "duration_ns inf is not"),
        ("nan,0.5", "duration_ns nan is not"),
    ], ids=["nan-population", "population-above-1", "negative-population",
            "infinite-duration", "nan-duration"])
    def test_truth_out_of_range_rejected(self, tmp_path, row, match):
        p = tmp_path / "truth.csv"
        p.write_text(f"# truth-csv v1\nduration_ns,population\n0.0,1.0\n{row}\n5.0,0.0\n")
        with pytest.raises(ParseError, match=rf"truth\.csv: line 4: {match}"):
            nvio.read_truth_csv(p)

    def test_truth_round_trip(self, world, tmp_path):
        dataset, truth = world[3], world[4]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_truth_csv(a, dataset.durations, truth)
        d, p = nvio.read_truth_csv(a)
        nvio.write_truth_csv(b, d, p)
        assert roundtrip_bytes(a, b)
        assert np.array_equal(p, truth)


class TestSweepCsv:
    def test_round_trip(self, world, tmp_path):
        sweep = world[2]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_sweep_csv(a, sweep)
        again = nvio.read_sweep_csv(a)
        nvio.write_sweep_csv(b, again)
        assert roundtrip_bytes(a, b)
        assert again.max_contrast.window == sweep.max_contrast.window
        assert again.min_variance.window == sweep.min_variance.window
        for name in CURVES:
            assert np.array_equal(getattr(again, name), getattr(sweep, name), equal_nan=True)

    @pytest.mark.parametrize("kind", ["noiseless", "noisy", "all-degenerate"])
    def test_round_trip_keeps_degenerate_widths(self, tmp_path, kind):
        p0, p1 = make_profiles(paper_like_params())
        if kind == "noiseless":
            t0, t1 = expected_trace(p0, 10**9), expected_trace(p1, 10**9)
        else:
            t0 = simulate_trace(p0, 2000, seed=7)
            t1 = t0 if kind == "all-degenerate" else simulate_trace(p1, 2000, seed=8)
        sweep = sweep_gate(t0, t1)
        degenerate = np.isnan(sweep.contrast)
        assert degenerate.sum() == {"noiseless": 0, "noisy": 286, "all-degenerate": 500}[kind]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_sweep_csv(a, sweep)
        again = nvio.read_sweep_csv(a)
        nvio.write_sweep_csv(b, again)
        assert roundtrip_bytes(a, b)
        for name in CURVES:
            assert np.array_equal(np.isnan(getattr(again, name)), degenerate)
            assert np.array_equal(getattr(again, name), getattr(sweep, name), equal_nan=True)
        assert again.max_contrast == sweep.max_contrast
        assert again.min_variance == sweep.min_variance

    def test_v1_layout_is_parse_error_naming_line_1(self, world, tmp_path):
        # v1 carried a start_bin header; every gate now starts at bin 0
        p = tmp_path / "sweep.csv"
        nvio.write_sweep_csv(p, world[2])
        lines = p.read_text().splitlines()
        p.write_text("\n".join(["# sweep-csv v1", "# start_bin=0", *lines[1:]]) + "\n")
        with pytest.raises(ParseError,
                           match="sweep.csv: line 1: expected '# sweep-csv v2' schema line"):
            nvio.read_sweep_csv(p)

    @pytest.mark.parametrize("row", ["2,4.0,,,,,0", "2,4.0,5.0,1.0,0.5,0.375,2",
                                     "2,4.0,6_10.0,1.0,0.5,0.375,0",
                                     "2,4.0,٥10.0,1.0,0.5,0.375,0",
                                     "3,6.0,5.0,1.0,0.5,0.375,0",
                                     "1,4.0,5.0,1.0,0.5,0.375,0",
                                     "2,4.0,5.0,1.0,0.5,0.375,1"],
                             ids=["no-metrics", "flag-2", "underscore", "non-ascii-digit",
                                  "width-skipped", "width-repeated", "flag-1-with-metrics"])
    def test_malformed_row_names_its_line(self, world, tmp_path, row):
        p = tmp_path / "sweep.csv"
        nvio.write_sweep_csv(p, world[2])
        lines = p.read_text().splitlines()
        lines[5] = row          # the width-2 row
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"sweep\.csv: line 6: ") as err:
            nvio.read_sweep_csv(p)
        assert err.value.line == 6

    @pytest.mark.parametrize("row, message", [
        ("300,600.0,{L0},{L1},0.9,{v},0", "contrast is 0.9, expected {c}"),
        ("300,7.0,{L0},{L1},{c},{v},0", "width_ns is 7.0, expected 600.0"),
        ("300,600.0,,,,,0", "degenerate_flag is 0, expected 1"),
        ("300,600.0,inf,{L1},,,1", "L0 is inf, expected nan"),
        ("300,600.0,{L0},{L1},{c},-{v},0", "total_variance is -{v}, expected {v}"),
        # the span squared overflows: contrast 1.0 and variance 0.0, a degenerate width
        ("300,600.0,1e+200,{L1},1.0,0.0,0", "L0 is 1e+200, expected nan"),
    ], ids=["contrast", "width-ns", "flag-0-blank", "inf-bright", "sign", "overflowing-span"])
    def test_derived_cell_must_match(self, world, tmp_path, row, message):
        # each cell after width_bins, L0 and L1 is derived from them; an edited
        # contrast would otherwise move the max-contrast width to the edited row
        sweep = world[2]
        cells = {name: repr(float(getattr(sweep, curve)[299]))
                 for name, curve in zip(("L0", "L1", "c", "v"), CURVES)}
        p = tmp_path / "sweep.csv"
        nvio.write_sweep_csv(p, sweep)
        lines = p.read_text().splitlines()
        assert lines[303] == "300,600.0,{L0},{L1},{c},{v},0".format(**cells)
        lines[303] = row.format(**cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(
                "sweep.csv: line 304: " + message.format(**cells))):
            nvio.read_sweep_csv(p)

    def test_footer_is_a_comment(self, world, tmp_path):
        # the optima come from the rows, whatever the footer names
        sweep = world[2]
        assert 3 not in (sweep.max_contrast.window.width_bins,
                         sweep.min_variance.window.width_bins)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_sweep_csv(a, sweep)
        text = a.read_text()
        a.write_text(re.sub(r"(# \w+: width_bins=)\d+", r"\g<1>3", text))
        assert a.read_text().count("width_bins=3 ") == 2
        again = nvio.read_sweep_csv(a)
        assert again.max_contrast == sweep.max_contrast
        assert again.min_variance == sweep.min_variance
        nvio.write_sweep_csv(b, again)
        assert b.read_text() == text


class TestModelFile:
    def test_round_trip_byte_identical(self, world, tmp_path):
        model = world[5]
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        nvio.write_model(a, model)
        again = nvio.read_model(a)
        nvio.write_model(b, again)
        assert roundtrip_bytes(a, b)
        assert np.array_equal(again.weights, model.weights)
        assert again.intercept == model.intercept
        assert again.rate_scale == model.rate_scale
        assert again.training_loss == model.training_loss

    @pytest.mark.parametrize("trained_on", ["a\nb", "a\rb", "a\r\nb", "end\n", " x", "x "])
    def test_trained_on_must_be_one_line(self, trained_on):
        # trained_on is one header line of a model file, read back stripped, as a
        # trace's label is; a line break would end it there
        with pytest.raises(ParameterError, match="trained_on"):
            ReadoutModel([0.5], 0.0, 2.0, trained_on=trained_on)

    def test_one_line_trained_on_round_trips(self, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        nvio.write_model(a, ReadoutModel([0.5], 0.0, 2.0, trained_on="by hand, x=1"))
        nvio.write_model(b, nvio.read_model(a))
        assert roundtrip_bytes(a, b)
        assert nvio.read_model(b).trained_on == "by hand, x=1"

    def test_other_loss_weight_factor_round_trips(self, world, tmp_path):
        # a model file from a trainer run at another prediction-term weight
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        nvio.write_model(a, world[5])
        a.write_text(re.sub(r"(?m)^# loss_weight_factor=.*$", "# loss_weight_factor=10.0",
                            a.read_text()))
        again = nvio.read_model(a)
        tl = again.training_loss
        assert tl.weight_factor == 10.0
        assert tl.total == 10.0 * tl.prediction_term + tl.variance_term
        nvio.write_model(b, again)
        assert roundtrip_bytes(a, b)

    def test_v1_layout_is_parse_error_naming_line_1(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_text("# readout-model v1\ndimension=1\nbin_width_ns=2.0\nrate_scale=1.0\n"
                     "intercept=0.0\ntrained_on=\nweights:\n0.5\n")
        with pytest.raises(ParseError,
                           match="m.model: line 1: expected '# readout-model v2' schema line"):
            nvio.read_model(p)

    def test_dimension_mismatch_rejected(self, world, tmp_path):
        model = world[5]
        p = tmp_path / "m.model"
        nvio.write_model(p, model)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")  # drop one weight
        with pytest.raises(ParseError, match="dimension"):
            nvio.read_model(p)

    @pytest.mark.parametrize("key, value", [
        ("dimension", "5.5"), ("intercept", "abc"), ("bin_width_ns", "wide"),
        ("rate_scale", "x"), ("loss_prediction", None), ("loss_weight_factor", None),
        ("intercept", "nan"), ("rate_scale", "inf"), ("bin_width_ns", "inf")])
    def test_malformed_field_rejected(self, world, tmp_path, key, value):
        # value None drops the line: a partial loss_* block
        p = tmp_path / "m.model"
        nvio.write_model(p, world[5])
        lines = [f"# {key}={value}" if line.startswith(f"# {key}=") else line
                 for line in p.read_text().splitlines()
                 if value is not None or not line.startswith(f"# {key}=")]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"m.model: .*{key}"):
            nvio.read_model(p)


class TestReportAndRepair:
    def test_report_round_trip(self, world, tmp_path):
        t0, t1, _, dataset, truth, model = world
        report = evaluate(dataset, *gates(t0, t1), model, truth)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_report_csv(a, report)
        again = nvio.read_report_csv(a)
        nvio.write_report_csv(b, again)
        assert roundtrip_bytes(a, b)
        assert again == report
        nvio.write_report_summary(tmp_path / "s.txt", report)
        assert (tmp_path / "s.txt").read_text().count("variance reduction") == 6

    def test_reduction_footer_is_a_comment(self, world, tmp_path):
        # the reductions come from the rows, whatever the footer says
        t0, t1, _, dataset, truth, model = world
        report = evaluate(dataset, *gates(t0, t1), model, truth)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        nvio.write_report_csv(a, report)
        text = a.read_text()
        a.write_text(re.sub(r"(# reduction .*=).*", r"\g<1>0.5", text)
                     + "# reduction ML vs nothing=not a number\n")
        again = nvio.read_report_csv(a)
        assert again.reductions == report.reductions
        nvio.write_report_csv(b, again)
        assert b.read_text() == text

    def test_repair_round_trip(self, world, tmp_path):
        t0, t1, _, dataset, truth, model = world
        result = repair(dataset, gates(t0, t1)[1], model)
        a = tmp_path / "a.csv"
        nvio.write_repair_csv(a, result)
        d, po, pr, qf = nvio.read_repair_csv(a)
        assert np.array_equal(d, dataset.durations)
        assert po == pytest.approx(result.p_original)
        assert pr == pytest.approx(result.p_repaired)

    def test_fit_report_round_trip(self, world, tmp_path):
        dataset = world[3]
        from nvreadout import fit_rabi
        sums = [tr.counts.sum() / tr.repetitions for _, tr in dataset.points]
        fit = fit_rabi(dataset.durations, sums)
        a = tmp_path / "fit.csv"
        nvio.write_fit_csv(a, dataset.durations, sums, fit)
        fit2, d, raw = nvio.read_fit_csv(a)
        assert fit2 == fit
        assert np.array_equal(d, dataset.durations)

    def test_fit_report_missing_header_rejected(self, world, tmp_path):
        dataset = world[3]
        from nvreadout import fit_rabi
        sums = [tr.counts.sum() / tr.repetitions for _, tr in dataset.points]
        p = tmp_path / "fit.csv"
        nvio.write_fit_csv(p, dataset.durations, sums,
                           fit_rabi(dataset.durations, sums))
        lines = [ln for ln in p.read_text().splitlines()
                 if not ln.startswith("# offset=")]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"fit\.csv.*offset"):
            nvio.read_fit_csv(p)


def test_read_objects_compare_by_identity_and_hash(world, tmp_path):
    # array-holding objects: == is identity and hash works, neither raises
    t0, _, sweep, dataset, _, model = world
    for write, read, value in [(nvio.write_trace_csv, nvio.read_trace_csv, t0),
                               (nvio.write_rabi_csv, nvio.read_rabi_csv, dataset),
                               (nvio.write_sweep_csv, nvio.read_sweep_csv, sweep),
                               (nvio.write_model, nvio.read_model, model)]:
        p = tmp_path / "file.txt"
        write(p, value)
        a, b = read(p), read(p)
        assert a == a and a != b and len({a, b}) == 2
    result = repair(dataset, gates(t0, world[1])[1], model)
    profile = make_profiles(paper_like_params())[0]
    for value in (result, profile):
        assert value == value and len({value, value}) == 1


class TestStreamingReader:
    """Scans are read and written as streams, at benchmark size."""

    @pytest.fixture(scope="class")
    def scan(self, tmp_path_factory):
        """A 240-point, 500-bin, ~0.25 MB scan as ``write_rabi_csv`` writes it."""
        p0, p1 = make_profiles(paper_like_params())
        dataset, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5, seed=41,
                                           points=240, span_ns=2400.0)
        path = tmp_path_factory.mktemp("stream") / "rabi.csv"
        nvio.write_rabi_csv(path, dataset)
        return path

    def test_undecodable_byte_deep_in_the_rows(self, scan, tmp_path):
        data = bytearray(scan.read_bytes())
        at = data.index(b"\n", len(data) * 4 // 5) + 1     # a row far past the first chunk
        data[at] = 0xFF
        p = tmp_path / "scan.csv"
        p.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=r"scan\.csv: .*can't decode byte 0xff"):
            nvio.read_rabi_csv(p)

    def test_bad_row_near_the_end_names_its_line(self, scan, tmp_path):
        lines = scan.read_text().splitlines()
        assert len(lines) == 4 + 240
        lines[-7] = lines[-7].replace(",", ";", 1)
        p = tmp_path / "scan.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"scan\.csv: line {len(lines) - 6}: ") as err:
            nvio.read_rabi_csv(p)
        assert err.value.line == len(lines) - 6

    @staticmethod
    def traced_peak(func, *args):
        """Peak bytes that ``func(*args)`` allocates beyond what is live before it."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = func(*args)
            return tracemalloc.get_traced_memory()[1] - before, result
        finally:
            tracemalloc.stop()

    def test_read_peak_is_at_most_2_5x_the_counts_matrix(self, scan):
        # the parsed rows and the counts matrix: about 1x the matrix each
        dataset = nvio.read_rabi_csv(scan)      # warm-up: numpy's first-call state
        size = dataset.counts.nbytes
        peak, again = self.traced_peak(nvio.read_rabi_csv, scan)
        assert np.array_equal(again.counts, dataset.counts)
        assert peak <= 2.5 * size, f"read peak {peak / size:.2f}x the counts matrix"

    def test_write_peak_is_at_most_1_mb(self, scan, tmp_path):
        dataset = nvio.read_rabi_csv(scan)
        out = tmp_path / "again.csv"
        peak, _ = self.traced_peak(nvio.write_rabi_csv, out, dataset)
        assert peak <= 10**6, f"write peak {peak / 1e6:.1f} MB"
        assert out.read_bytes() == scan.read_bytes()

    def test_write_peak_at_2400_points_is_at_most_1_mb(self, tmp_path):
        # the same bound at 10x the rows: the writer holds one row at a time,
        # never the matrix as Python lists (about 10 MB here)
        p0, p1 = make_profiles(paper_like_params())
        dataset, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5, seed=41,
                                           points=2400, span_ns=24000.0)
        out = tmp_path / "big.csv"
        peak, _ = self.traced_peak(nvio.write_rabi_csv, out, dataset)
        assert peak <= 10**6, f"write peak {peak / 1e6:.1f} MB"
        assert np.array_equal(nvio.read_rabi_csv(out).counts, dataset.counts)

    @pytest.mark.parametrize("points", [240, 2400])
    def test_simulate_peak_is_at_most_1_25x_the_counts_matrix(self, points):
        # the drawn matrix becomes the dataset's counts, uncopied (2.0x if copied)
        p0, p1 = make_profiles(paper_like_params())
        args = (p0, p1, 10**5, 41, points, 200.0, 10.0 * points)
        simulate_rabi_dataset(*args)        # warm-up: numpy's first-call state
        peak, (dataset, _) = self.traced_peak(simulate_rabi_dataset, *args)
        size = dataset.counts.nbytes
        assert peak <= 1.25 * size, f"simulate peak {peak / size:.2f}x the counts matrix"

    @pytest.mark.parametrize("points", [240, 2400])
    def test_read_peak_is_at_most_1_25x_the_counts_matrix(self, points, tmp_path):
        # the parsed rows hold the dataset's counts, uncopied (2.0x if copied)
        p0, p1 = make_profiles(paper_like_params())
        dataset, _ = simulate_rabi_dataset(p0, p1, repetitions=10**5, seed=41,
                                           points=points, span_ns=10.0 * points)
        path = tmp_path / "rabi.csv"
        nvio.write_rabi_csv(path, dataset)
        nvio.read_rabi_csv(path)            # warm-up: numpy's first-call state
        peak, again = self.traced_peak(nvio.read_rabi_csv, path)
        size = dataset.counts.nbytes
        assert np.array_equal(again.counts, dataset.counts)
        assert peak <= 1.25 * size, f"read peak {peak / size:.2f}x the counts matrix"

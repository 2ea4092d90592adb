"""End-to-end CLI pipelines, exit codes, determinism."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nvreadout
from nvreadout import cli
from nvreadout.cli import main


def run(*argv):
    return main(list(argv))


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate -> sweep -> train -> evaluate -> repair run."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    assert run("simulate", "--preset", "paper-like", "--reps", "1e7",
               "--seed", "7", "--out-dir", str(data), "--what", "both",
               "--rabi-reps", "1e5", "--rabi-points", "24",
               "--rabi-span-ns", "460") == 0
    assert run("sweep", "--trace0", str(data / "boundary0.csv"),
               "--trace1", str(data / "boundary1.csv"),
               "--out", str(root / "sweep.csv")) == 0
    assert run("train", "--mode", "boundary",
               "--trace0", str(data / "boundary0.csv"),
               "--trace1", str(data / "boundary1.csv"),
               "--max-iterations", "200",
               "--out", str(root / "model.txt")) == 0
    assert run("evaluate", "--rabi", str(data / "rabi.csv"),
               "--model", str(root / "model.txt"),
               "--trace0", str(data / "boundary0.csv"),
               "--trace1", str(data / "boundary1.csv"),
               "--truth", str(data / "rabi_truth.csv"),
               "--out", str(root / "report.csv"),
               "--summary", str(root / "summary.txt")) == 0
    assert run("repair", "--rabi", str(data / "rabi.csv"),
               "--model", str(root / "model.txt"),
               "--trace0", str(data / "boundary0.csv"),
               "--trace1", str(data / "boundary1.csv"),
               "--out", str(root / "repaired.csv")) == 0
    assert run("fit-rabi", "--rabi", str(data / "rabi.csv"),
               "--out", str(root / "fit.csv")) == 0
    return root


# every simulate flag, each set to a value other than its default
EVERY_FLAG = ["--reps", "3e5", "--seed", "5", "--rabi-points", "8", "--rabi-period-ns", "150",
              "--rabi-span-ns", "240", "--rabi-reps", "7e4"]


def documented_block():
    """The ini block of docs/config-format.md."""
    doc = (Path(__file__).parents[1] / "docs" / "config-format.md").read_text()
    return doc.split("```ini\n")[1].split("```")[0]


class TestPipeline:
    def test_all_outputs_exist(self, pipeline):
        for name in ("data/boundary0.csv", "data/boundary1.csv", "data/rabi.csv",
                     "data/rabi_truth.csv", "sweep.csv", "model.txt",
                     "report.csv", "summary.txt", "repaired.csv", "fit.csv"):
            assert (pipeline / name).exists()

    def test_outputs_are_rereadable(self, pipeline):
        from nvreadout import io as nvio
        nvio.read_trace_csv(pipeline / "data" / "boundary0.csv")
        nvio.read_rabi_csv(pipeline / "data" / "rabi.csv")
        nvio.read_truth_csv(pipeline / "data" / "rabi_truth.csv")
        nvio.read_sweep_csv(pipeline / "sweep.csv")
        nvio.read_model(pipeline / "model.txt")
        nvio.read_report_csv(pipeline / "report.csv")
        nvio.read_repair_csv(pipeline / "repaired.csv")
        nvio.read_fit_csv(pipeline / "fit.csv")

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        data = tmp_path / "data"
        assert run("simulate", "--preset", "paper-like", "--reps", "1e7",
                   "--seed", "7", "--out-dir", str(data), "--what", "both",
                   "--rabi-reps", "1e5", "--rabi-points", "24",
                   "--rabi-span-ns", "460") == 0
        for name in ("boundary0.csv", "boundary1.csv", "rabi.csv", "rabi_truth.csv"):
            assert (data / name).read_bytes() == \
                (pipeline / "data" / name).read_bytes()

    def test_report_shows_model_at_or_below_min_v_gate(self, pipeline):
        from nvreadout import io as nvio
        report = nvio.read_report_csv(pipeline / "report.csv")
        v = {m.method: m.avg_formula_variance for m in report.methods}
        assert v["ML"] <= v["min-V gate"] * (1 + 1e-9)

    def test_sweep_csv_optima_ordered(self, pipeline):
        from nvreadout import io as nvio
        sweep = nvio.read_sweep_csv(pipeline / "sweep.csv")
        assert sweep.max_contrast.window.width_bins < \
            sweep.min_variance.window.width_bins

    def test_inputs_never_mutated(self, pipeline, tmp_path):
        data = pipeline / "data"
        before = (data / "boundary0.csv").read_bytes()
        assert run("evaluate", "--rabi", str(data / "rabi.csv"),
                   "--model", str(pipeline / "model.txt"),
                   "--trace0", str(data / "boundary0.csv"),
                   "--trace1", str(data / "boundary1.csv"),
                   "--out", str(tmp_path / "r.csv")) == 0
        assert (data / "boundary0.csv").read_bytes() == before

    def test_config_file_defaults(self, tmp_path):
        # the config sets the profile, the flags the run: the files are those the
        # library writes for that profile
        from nvreadout import PhotodynamicsParams, make_profiles, simulate_trace
        from nvreadout import io as nvio
        from nvreadout.cli import load_config
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[profile]\nsteady_rate = 3e-5\nbright_boost = 0.5\n"
                            "dark_dip = 0.8\ntau_bright_ns = 40\ntrace_length_ns = 200\n")
        params = load_config(cfg_file)
        assert params == PhotodynamicsParams(steady_rate=3e-5, bright_boost=0.5, dark_dip=0.8,
                                             tau_bright_ns=40.0, trace_length_ns=200.0)
        out = tmp_path / "sim"
        assert run("simulate", "--config", str(cfg_file), "--reps", "1e5", "--seed", "3",
                   "--out-dir", str(out)) == 0
        written = nvio.read_trace_csv(out / "boundary0.csv")
        bright = simulate_trace(make_profiles(params)[0], 100_000, 3)
        assert (written.repetitions, written.seed, len(written)) == (100_000, 3, 100)
        assert np.array_equal(written.counts, bright.counts)

    def test_flags_only_defaults_write_the_same_bytes(self, tmp_path):
        # no flag and no config, against every default given as a flag
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--what", "both", "--out-dir", str(a)) == 0
        assert run("simulate", "--what", "both", "--out-dir", str(b), "--reps", "1e6",
                   "--seed", "0", "--rabi-points", "60", "--rabi-period-ns", "200",
                   "--rabi-span-ns", "600", "--rabi-reps", "1e6") == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_library_recipe_matches_train_rabi_command(self, pipeline, tmp_path):
        # the one-line recipe that the README gives
        from nvreadout import train_rabi
        from nvreadout import io as nvio
        rabi = pipeline / "data" / "rabi.csv"
        assert run("train", "--mode", "rabi", "--rabi", str(rabi),
                   "--out", str(tmp_path / "rabi_model.txt")) == 0
        model = train_rabi(nvio.read_rabi_csv(rabi))
        written = nvio.read_model(tmp_path / "rabi_model.txt")
        assert np.array_equal(model.weights, written.weights)
        assert model.intercept == written.intercept

    def test_fit_rabi_curve_is_the_train_rabi_target(self, pipeline, tmp_path):
        # fit-rabi's normalized curve (its p_fit column) is train --mode rabi's target
        from nvreadout import train
        from nvreadout import io as nvio
        rabi = pipeline / "data" / "rabi.csv"
        assert run("train", "--mode", "rabi", "--rabi", str(rabi),
                   "--out", str(tmp_path / "rabi_model.txt")) == 0
        fit, durations, _ = nvio.read_fit_csv(pipeline / "fit.csv")
        targets = fit.normalized(durations)
        rows = [line for line in (pipeline / "fit.csv").read_text().splitlines()
                if line[0] != "#"][1:]
        assert [float(row.split(",")[2]) for row in rows] == targets.tolist()
        dataset = nvio.read_rabi_csv(rabi)
        model = train(dataset.counts, dataset.repetitions, targets, dataset.bin_width_ns)
        written = nvio.read_model(tmp_path / "rabi_model.txt")
        assert model.weights.tobytes() == written.weights.tobytes()
        assert model.intercept == written.intercept

    def test_predict_prints_population(self, pipeline, capsys):
        assert run("predict", "--model", str(pipeline / "model.txt"),
                   "--trace", str(pipeline / "data" / "boundary0.csv")) == 0
        out = capsys.readouterr().out
        assert "population=" in out and "variance=" in out
        p = float(out.split("population=")[1].split()[0])
        assert abs(p - 1.0) < 0.05

    @pytest.mark.parametrize("config, flags, expected", [
        (False, [], (10**6, 0, 60, 200.0, 600.0, 10**6)),
        (True, [], (10**6, 0, 60, 200.0, 600.0, 10**6)),
        (True, EVERY_FLAG, (300_000, 5, 8, 150.0, 240.0, 70_000)),
        (False, ["--reps", "3e5"], (300_000, 0, 60, 200.0, 600.0, 300_000)),
    ], ids=["default", "config", "flag-over-config", "rabi-reps-follow-resolved-reps"])
    def test_flag_over_config_over_default(self, tmp_path, config, flags, expected):
        # each run setting, read back from what simulate writes: a flag if it is
        # given, else its default; the config (the documented profile) sets none
        from nvreadout import io as nvio
        argv = ["simulate", "--what", "both", "--out-dir", str(tmp_path / "sim"), *flags]
        if config:
            (tmp_path / "run.cfg").write_text(documented_block())
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert run(*argv) == 0
        reps, seed, points, period, span, rabi_reps = expected
        bright = nvio.read_trace_csv(tmp_path / "sim" / "boundary0.csv")
        assert (bright.repetitions, bright.seed) == (reps, seed)
        scan = nvio.read_rabi_csv(tmp_path / "sim" / "rabi.csv")
        assert (scan.counts.shape[0], scan.durations[-1], scan.repetitions) == \
            (points, span, rabi_reps)
        durations, truth = nvio.read_truth_csv(tmp_path / "sim" / "rabi_truth.csv")
        np.testing.assert_allclose(truth, 0.5 + 0.5 * np.cos(2 * np.pi * durations / period),
                                   rtol=0, atol=1e-12)

    def test_simulate_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("simulate", "--reps", "1e5", "--seed", "1", "--out-dir", str(a))
        run("simulate", "--reps", "1e5", "--seed", "2", "--out-dir", str(b))
        assert (a / "boundary0.csv").read_bytes() != (b / "boundary0.csv").read_bytes()


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run("sweep") == 1                        # missing required flags
        assert run("no-such-command") == 1
        capsys.readouterr()

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# trace-csv v1\nbin_index,counts\n0,1\n")  # no repetitions
        good = tmp_path / "x.csv"
        assert run("sweep", "--trace0", str(bad), "--trace1", str(bad),
                   "--out", str(good)) == 2
        err = capsys.readouterr().err
        assert "repetitions" in err

    def test_model_without_trained_on_is_2(self, pipeline, tmp_path, capsys):
        data = pipeline / "data"
        bad = tmp_path / "model.txt"
        bad.write_text(re.sub(r"(?m)^# trained_on=.*\n", "", (pipeline / "model.txt").read_text()))
        assert run("evaluate", "--rabi", str(data / "rabi.csv"), "--model", str(bad),
                   "--trace0", str(data / "boundary0.csv"), "--trace1", str(data / "boundary1.csv"),
                   "--out", str(tmp_path / "report.csv")) == 2
        err = capsys.readouterr().err
        assert "model.txt: missing required field 'trained_on'" in err and "Traceback" not in err

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert run("sweep", "--trace0", str(tmp_path / "nope.csv"),
                   "--trace1", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o.csv")) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 745. GiB for an array"),
         "out of memory (Unable to allocate 745. GiB for an array)"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_2(self, tmp_path, monkeypatch, capsys, error, message):
        # a command body that cannot allocate, without allocating anything
        def body(args):
            raise error
        monkeypatch.setitem(cli._COMMANDS, "simulate", body)
        assert run("simulate", "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"nvreadout: {message}\n"

    @pytest.mark.parametrize("case", ["v1-layout", "rows-swapped"])
    def test_bad_scan_is_2_naming_its_line(self, pipeline, tmp_path, capsys, case):
        bad = tmp_path / "bad.csv"
        if case == "v1-layout":     # one row per bin: fails on its schema line
            bad.write_text("# rabi-csv v1\n# repetitions=100\n# bin_width_ns=2.0\n"
                           "duration_ns,bin_index,counts\n0.0,0,1\n0.0,1,0\n12.5,0,4\n")
            message = "line 1: expected '# rabi-csv v2' schema line"
        else:
            lines = (pipeline / "data" / "rabi.csv").read_text().splitlines()
            lines[9], lines[10] = lines[10], lines[9]
            bad.write_text("\n".join(lines) + "\n")
            message = "line 11: durations must be finite and strictly increasing"
        assert run("fit-rabi", "--rabi", str(bad), "--out", str(tmp_path / "fit.csv")) == 2
        err = capsys.readouterr().err
        assert f"bad.csv: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("case, status, message", [
        ("train-boundary-without-trace1", 2, "boundary mode needs --trace0 and --trace1"),
        ("train-rabi-without-rabi", 2, "rabi mode needs --rabi"),
        ("config-not-found", 2, "config file not found"),
        ("sweep-identical-pair", 0, "sweep: every width degenerate"),
        ("evaluate-identical-pair", 2, "boundary sweep is fully degenerate"),
        ("trace-without-column-row", 2, "no-columns.csv: expected 'bin_index,counts' column row"),
        ("model-of-another-bin-width", 2, "data bin width 2.0 ns differs from model's 4.0 ns"),
        ("sweep-start-bin-past-the-trace", 2, "window [500, 501) overruns trace of 500 bins"),
        # a weight or intercept whose estimates overflow: once an inf variance and a
        # nan contrast, exit 0, after numpy's RuntimeWarnings
        ("evaluate-model-weight-1e308", 2, "nvreadout: estimates overflow"),
        ("evaluate-model-intercept-1e308", 2, "nvreadout: estimates overflow"),
    ])
    def test_error_path_exit_and_message(self, pipeline, tmp_path, capsys, case, status,
                                         message):
        data = pipeline / "data"
        b0, b1, scan = (str(data / name) for name in ("boundary0.csv", "boundary1.csv",
                                                      "rabi.csv"))
        out = str(tmp_path / "out.csv")
        no_columns = tmp_path / "no-columns.csv"
        no_columns.write_text("# trace-csv v1\n# repetitions=10\n# bin_width_ns=2.0\n")
        model = (pipeline / "model.txt").read_text()
        wide = tmp_path / "wide.txt"
        wide.write_text(model.replace("# bin_width_ns=2.0\n", "# bin_width_ns=4.0\n"))
        huge = tmp_path / "huge.txt"
        lines = model.splitlines()
        if case == "evaluate-model-weight-1e308":
            lines[lines.index("weight") + 5] = "1e308"          # the fifth weight
        else:
            lines = [re.sub(r"^# intercept=.*", "# intercept=1e308", line) for line in lines]
        huge.write_text("\n".join(lines) + "\n")
        argv = {
            "train-boundary-without-trace1": ["train", "--mode", "boundary", "--trace0", b0,
                                              "--out", out],
            "train-rabi-without-rabi": ["train", "--mode", "rabi", "--out", out],
            "config-not-found": ["simulate", "--config", str(tmp_path / "nope.cfg"),
                                 "--out-dir", str(tmp_path / "sim")],
            "sweep-identical-pair": ["sweep", "--trace0", b0, "--trace1", b0, "--out", out],
            "evaluate-identical-pair": ["evaluate", "--rabi", scan, "--model",
                                        str(pipeline / "model.txt"), "--trace0", b0,
                                        "--trace1", b0, "--out", out],
            "trace-without-column-row": ["sweep", "--trace0", str(no_columns), "--trace1", b1,
                                         "--out", out],
            "model-of-another-bin-width": ["evaluate", "--rabi", scan, "--model", str(wide),
                                           "--trace0", b0, "--trace1", b1, "--out", out],
            "sweep-start-bin-past-the-trace": ["sweep", "--trace0", b0, "--trace1", b1,
                                               "--start-bin", "500", "--out", out],
            "evaluate-model-weight-1e308": ["evaluate", "--rabi", scan, "--model", str(huge),
                                            "--trace0", b0, "--trace1", b1, "--truth",
                                            str(data / "rabi_truth.csv"), "--out", out],
            "evaluate-model-intercept-1e308": ["evaluate", "--rabi", scan, "--model",
                                               str(huge), "--trace0", b0, "--trace1", b1,
                                               "--out", out],
        }[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv) == status
        captured = capsys.readouterr()
        assert message in (captured.out if status == 0 else captured.err)
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # a failing command writes nothing
        assert (tmp_path / "out.csv").exists() == (status == 0)
        assert not (tmp_path / "sim").exists()

    def test_output_must_not_overwrite_input(self, pipeline, capsys):
        trace = pipeline / "data" / "boundary0.csv"
        assert run("sweep", "--trace0", str(trace), "--trace1", str(trace),
                   "--out", str(trace)) == 2
        assert "overwrite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["summary-is-scan", "summary-is-out", "out-is-config",
                                      "out-is-model", "simulated-file-is-config"])
    def test_output_over_another_path_is_2(self, pipeline, tmp_path, capsys, case):
        # each command reads or writes the kept file twice; it must stay as it was
        data = pipeline / "data"
        kept = tmp_path / {"simulated-file-is-config": "rabi.csv",
                           "out-is-config": "rabi_truth.csv"}.get(case, "kept")
        kept.write_bytes({"summary-is-scan": (data / "rabi.csv").read_bytes(),
                          "summary-is-out": b"an earlier report\n",
                          "out-is-model": (pipeline / "model.txt").read_bytes()}.get(
            case, b"[profile]\n"))
        before = kept.read_bytes()
        scan = ["--rabi", str(kept if case == "summary-is-scan" else data / "rabi.csv"),
                "--trace0", str(data / "boundary0.csv"), "--trace1", str(data / "boundary1.csv")]
        argv = {
            "summary-is-scan": ["evaluate", *scan, "--model", str(pipeline / "model.txt"),
                                "--out", str(tmp_path / "report.csv"), "--summary", str(kept)],
            "summary-is-out": ["evaluate", *scan, "--model", str(pipeline / "model.txt"),
                               "--out", str(kept), "--summary", str(kept)],
            # simulate checks all four of its file names, whatever --what is
            "out-is-config": ["simulate", "--config", str(kept), "--what", "boundary",
                              "--out-dir", str(tmp_path), "--reps", "1e3"],
            "out-is-model": ["repair", *scan, "--model", str(kept), "--out", str(kept)],
            "simulated-file-is-config": ["simulate", "--config", str(kept), "--what", "rabi",
                                         "--out-dir", str(tmp_path), "--reps", "1e3"],
        }[case]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "would overwrite" in err and err.count("\n") == 1
        assert kept.read_bytes() == before

    def test_truth_of_another_scan_is_2(self, pipeline, tmp_path, capsys):
        # as many rows as the scan, but every duration shifted by 1000 ns
        from nvreadout import io as nvio
        data = pipeline / "data"
        durations, truth = nvio.read_truth_csv(data / "rabi_truth.csv")
        shifted = tmp_path / "shifted.csv"
        nvio.write_truth_csv(shifted, durations + 1000.0, truth)
        assert run("evaluate", "--rabi", str(data / "rabi.csv"),
                   "--model", str(pipeline / "model.txt"),
                   "--trace0", str(data / "boundary0.csv"),
                   "--trace1", str(data / "boundary1.csv"),
                   "--truth", str(shifted), "--out", str(tmp_path / "r.csv")) == 2
        assert "shifted.csv: durations differ" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_truth_with_nan_population_is_2(self, pipeline, tmp_path, capsys):
        from nvreadout import io as nvio
        data = pipeline / "data"
        durations, truth = nvio.read_truth_csv(data / "rabi_truth.csv")
        truth[5] = np.nan
        bad = tmp_path / "nan_truth.csv"
        nvio.write_truth_csv(bad, durations, truth)
        assert run("evaluate", "--rabi", str(data / "rabi.csv"),
                   "--model", str(pipeline / "model.txt"),
                   "--trace0", str(data / "boundary0.csv"),
                   "--trace1", str(data / "boundary1.csv"),
                   "--truth", str(bad), "--out", str(tmp_path / "r.csv")) == 2
        assert "nan_truth.csv: line 8: population nan" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_version_runs(self, capsys):
        assert run("--version") == 0
        out = capsys.readouterr().out
        assert "nvreadout" in out and "trace-csv=v1" in out
        assert out.split()[1] == nvreadout.__version__

    @pytest.mark.parametrize("argv", [
        ["simulate", "--reps", "nan"],
        ["simulate", "--reps", "inf"],
        ["simulate", "--reps", "1e30"],
        ["simulate", "--reps", "2.7"],
        ["simulate", "--what", "rabi", "--rabi-reps", "nan"],
        ["simulate", "--what", "rabi", "--rabi-reps", "1e30"],
        ["train", "--mode", "boundary", "--trace0", "b0.csv", "--trace1", "b1.csv",
         "--max-iterations", "nan"],
        ["train", "--mode", "boundary", "--trace0", "b0.csv", "--trace1", "b1.csv",
         "--max-iterations", "2.5"],
        ["train", "--mode", "boundary", "--trace0", "b0.csv", "--trace1", "b1.csv",
         "--max-iterations", "0"],
        ["simulate", "--what", "rabi", "--rabi-period-ns", "-5"],
        ["simulate", "--what", "rabi", "--rabi-period-ns", "inf"],
        ["simulate", "--what", "rabi", "--rabi-span-ns", "0"],
        ["simulate", "--what", "rabi", "--rabi-points", "1"],
        ["simulate", "--what", "both", "--reps", "1e3", "--rabi-period-ns", "-5"],
    ], ids=["reps-nan", "reps-inf", "reps-1e30", "reps-2.7", "rabi-reps-nan",
            "rabi-reps-1e30", "max-iterations-nan", "max-iterations-2.5", "max-iterations-0",
            "rabi-period-negative", "rabi-period-inf",
            "rabi-span-zero", "rabi-points-1", "both-rabi-period-negative"])
    def test_bad_numeric_value_is_2(self, argv, tmp_path):
        # a fresh process, so a traceback would reach stderr
        env = dict(os.environ, PYTHONPATH=str(Path(nvreadout.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "nvreadout.cli", *argv,
             "--out-dir" if argv[0] == "simulate" else "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        # the message names the flag, and nothing is written, not even the directory
        assert argv[-2] in proc.stderr, proc.stderr
        assert not (tmp_path / "out").exists()


class TestConfigErrors:
    @pytest.mark.parametrize("text, match", [
        ("[profile]\nsteady_rate = abc\n", r"run\.cfg: \[profile\] steady_rate='abc'"),
        ("[profile]\nsteady_rate = 2e-5\n[simulate\nrepetitions = 5\n", r"run\.cfg.*line 3"),
        ("[simulate\nrepetitions = 5\n", r"run\.cfg.*line: 1"),
    ], ids=["non-numeric", "broken-section", "no-section"])
    def test_malformed_config_is_parse_error(self, tmp_path, capsys, text, match):
        from nvreadout import ParseError
        from nvreadout.cli import load_config
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_config(cfg_file)
        assert run("simulate", "--config", str(cfg_file),
                   "--out-dir", str(tmp_path / "out")) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, match", [
        ("[profile]\nsteady_rat = 2e-5\n", r"run\.cfg: \[profile\] steady_rat "),
        ("[DEFAULT]\nsteady_rat = 2e-5\n[profile]\nsteady_rate = 2e-5\n",
         r"run\.cfg: \[profile\] steady_rat \(from \[DEFAULT\]\) "),
        ("[DEFAULT]\nrepetitions = 1e7\n",
         r"run\.cfg: \[profile\] repetitions \(from \[DEFAULT\]\) "),
    ], ids=["profile", "default", "default-without-profile"])
    def test_unknown_key_is_parse_error(self, tmp_path, capsys, text, match):
        from nvreadout import ParseError
        from nvreadout.cli import load_config
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        with pytest.raises(ParseError, match=match + "is not a known key"):
            load_config(cfg_file)
        assert run("simulate", "--out-dir", str(tmp_path / "out"), "--config", str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert "is not a known key" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["simulate", "train", "sweep"])
    def test_section_other_than_profile_is_2(self, tmp_path, capsys, section):
        # a run setting in the config would be a second way to set it: the file fails
        # rather than simulate the defaults
        from nvreadout import ParseError
        from nvreadout.cli import load_config
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(documented_block() + f"\n[{section}]\nrepetitions = 1e7\n")
        message = (f"run.cfg: [{section}] is not a known section (only [profile] is; "
                   "run settings are flags)")
        with pytest.raises(ParseError, match=re.escape(message)):
            load_config(cfg_file)
        assert run("simulate", "--out-dir", str(tmp_path / "out"), "--config", str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("dark_dip", "1.5", "dark_dip must be in [0, 1)"),
        ("tau_bright_ns", "-1", "tau_bright_ns must be positive"),
        ("trace_length_ns", "1e300", "trace_length_ns / bin_width_ns exceeds numpy's index range"),
    ], ids=["dark-dip", "negative-tau", "huge-length"])
    def test_profile_domain_error_names_the_file(self, tmp_path, key, value, message):
        # a fresh process, so a traceback would reach stderr (inf: see the test
        # below); 1e300 is rejected before anything is allocated
        block = documented_block()
        assert re.search(rf"^{key} = ", block, re.M)
        (tmp_path / "run.cfg").write_text(re.sub(rf"^{key} = \S+", f"{key} = {value}", block,
                                                 flags=re.M))
        env = dict(os.environ, PYTHONPATH=str(Path(nvreadout.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "nvreadout.cli", "simulate", "--config", "run.cfg",
             "--reps", "1e3", "--out-dir", "out"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"nvreadout: run.cfg: [profile] {message}\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_profile_value_is_2(self, tmp_path):
        # a fresh process, so a traceback would reach stderr
        block = documented_block()
        assert "trace_length_ns = 1000\n" in block
        (tmp_path / "run.cfg").write_text(block.replace("trace_length_ns = 1000\n",
                                                        "trace_length_ns = inf\n"))
        env = dict(os.environ, PYTHONPATH=str(Path(nvreadout.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "nvreadout.cli", "simulate", "--config", "run.cfg",
             "--reps", "1e3", "--out-dir", "out"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "nvreadout: run.cfg: [profile] trace_length_ns must be finite\n"
        assert not (tmp_path / "out").exists()

    def test_documented_config_loads(self, tmp_path):
        from dataclasses import fields
        from nvreadout import PhotodynamicsParams
        from nvreadout.cli import load_config
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(documented_block())
        params = load_config(cfg_file)
        assert isinstance(params, PhotodynamicsParams)
        keys = set(re.findall(r"^(\w+) = ", documented_block(), re.M))
        assert keys == {f.name for f in fields(PhotodynamicsParams)}   # every key is documented
        assert (params.steady_rate, params.tau_onset_ns) == (2.1215e-05, 160.0)

    def test_partial_profile_is_parse_error(self, tmp_path, capsys):
        from nvreadout import ParseError
        from nvreadout.cli import load_config
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[profile]\nbright_boost = 0.3\n")
        with pytest.raises(ParseError, match=r"run\.cfg: \[profile\] .*steady_rate"):
            load_config(cfg_file)
        assert run("simulate", "--config", str(cfg_file),
                   "--out-dir", str(tmp_path / "out")) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_weight_factor_flag_is_a_usage_error(self, tmp_path, capsys):
        assert run("train", "--mode", "boundary", "--trace0", "b0.csv", "--trace1", "b1.csv",
                   "--weight-factor", "1", "--out", str(tmp_path / "m.txt")) == 1
        assert "--weight-factor" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_train_config_flag_is_a_usage_error(self, tmp_path, capsys):
        # only simulate reads a config; the trainer has no setting
        (tmp_path / "run.cfg").write_text("[profile]\n")
        assert run("train", "--mode", "boundary", "--trace0", "b0.csv", "--trace1", "b1.csv",
                   "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "m.txt")) == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()


class TestSwapWarning:
    def test_good_pair_trains_without_warning(self, pipeline, capsys, tmp_path):
        data = pipeline / "data"
        assert run("train", "--mode", "boundary",
                   "--trace0", str(data / "boundary0.csv"),
                   "--trace1", str(data / "boundary1.csv"),
                   "--out", str(tmp_path / "model.txt")) == 0
        assert capsys.readouterr().err == ""

    def test_swapped_boundary_warns(self, pipeline, capsys, tmp_path):
        data = pipeline / "data"
        assert run("train", "--mode", "boundary",
                   "--trace0", str(data / "boundary1.csv"),
                   "--trace1", str(data / "boundary0.csv"),
                   "--max-iterations", "100",
                   "--out", str(tmp_path / "swapped.txt")) == 0
        assert capsys.readouterr().err == ("warning: the trained model is flat (every weight "
                                           "zero); check for swapped boundary traces\n")
        # no bin group has a positive slope: the flat model at the mean target
        from nvreadout import io as nvio
        model = nvio.read_model(tmp_path / "swapped.txt")
        assert np.all(model.weights == 0.0) and model.intercept == 0.5


class TestCountSums:
    def test_scan_sums_past_int64_do_not_wrap(self, tmp_path):
        # row sums up to 22 * 2^60, past int64's 2^63: fit-rabi and train --mode rabi
        # must fit the exact sums, which float64 holds (multiples of 2^60 below 2^65)
        from nvreadout import RabiDataset, fit_rabi, train
        from nvreadout import io as nvio
        durations = np.arange(24) * 20.0
        a = np.rint(4 + 3 * np.cos(2 * np.pi * durations / 200.0)).astype(np.int64)
        counts = np.stack([a, a, a, np.ones_like(a)], axis=1) << 60
        scan = tmp_path / "rabi.csv"
        nvio.write_rabi_csv(scan, RabiDataset(durations, counts, 10**6))
        assert run("fit-rabi", "--rabi", str(scan), "--out", str(tmp_path / "fit.csv")) == 0
        assert run("train", "--mode", "rabi", "--rabi", str(scan),
                   "--out", str(tmp_path / "model.txt")) == 0
        sums = np.array([float(sum(map(int, row))) for row in counts]) / 10**6
        fit = fit_rabi(durations, sums)
        assert nvio.read_fit_csv(tmp_path / "fit.csv")[0] == fit
        assert fit.offset - fit.amplitude > 0
        model = nvio.read_model(tmp_path / "model.txt")
        expected = train(counts, 10**6, fit.normalized(durations), 2.0)
        assert np.array_equal(model.weights, expected.weights)
        assert model.intercept == expected.intercept


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nvreadout.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "nvreadout" in proc.stdout

    def test_cli_import_leaves_scipy_unloaded(self):
        # the runtime needs numpy alone; scipy is a test-only extra.  Start-up is
        # most of every command: numpy.random (about 15 ms and 6 MB a process),
        # numpy.fft and numpy.ma load only where a command uses them
        env = dict(os.environ, PYTHONPATH=str(Path(nvreadout.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, nvreadout.cli; print([m for m in ('scipy', 'numpy.random', "
             "'numpy.fft', 'numpy.ma') if m in sys.modules])"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_scan_commands_leave_numpy_ma_unloaded(self, pipeline, tmp_path):
        # np.median's NaN check and np.unique import numpy.ma, 10-25 ms of every
        # fitting or training process; configparser, about 2.6 ms, is for
        # simulate --config alone, and numpy.random for simulate alone
        env = dict(os.environ, PYTHONPATH=str(Path(nvreadout.__file__).parents[1]))
        data = pipeline / "data"
        script = ("import sys\n"
                  "from nvreadout.cli import main\n"
                  "rabi, model, b0, b1 = sys.argv[1:]\n"
                  "assert main(['fit-rabi', '--rabi', rabi, '--out', 'fit.csv']) == 0\n"
                  "assert main(['train', '--mode', 'rabi', '--rabi', rabi, '--out', 'm.txt']) == 0\n"
                  "assert main(['train', '--mode', 'boundary', '--trace0', b0, '--trace1', b1,\n"
                  "             '--out', 'b.txt']) == 0\n"
                  "assert main(['evaluate', '--rabi', rabi, '--model', model, '--trace0', b0,\n"
                  "             '--trace1', b1, '--out', 'report.csv']) == 0\n"
                  "assert main(['repair', '--rabi', rabi, '--model', model, '--trace0', b0,\n"
                  "             '--trace1', b1, '--out', 'repaired.csv']) == 0\n"
                  "print([m for m in ('numpy.ma', 'configparser', 'numpy.random')\n"
                  "       if m in sys.modules])\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(data / "rabi.csv"), str(pipeline / "model.txt"),
             str(data / "boundary0.csv"), str(data / "boundary1.csv")],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert all((tmp_path / name).exists() for name in ("fit.csv", "report.csv",
                                                           "repaired.csv"))
        assert proc.stdout.splitlines()[-1] == "[]"

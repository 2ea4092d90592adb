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

    def test_flags_only_defaults_write_the_same_bytes(self, tmp_path):
        # no flag, against every default given as a flag
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

    def test_readme_custom_profile_example_runs(self, tmp_path, monkeypatch):
        # a custom emission model is a library call: the README's example, as written,
        # writes the scan that the same calls give
        from nvreadout import PhotodynamicsParams, make_profiles, simulate_rabi_dataset
        from nvreadout import io as nvio
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```python\n")[1].split("```")[0]
        monkeypatch.chdir(tmp_path)
        exec("\n".join(line[2:] for line in block.splitlines()), {})
        params = PhotodynamicsParams(steady_rate=3e-5, bright_boost=0.5, dark_dip=0.8,
                                     tau_bright_ns=40)
        scan, _ = simulate_rabi_dataset(*make_profiles(params), 100_000, seed=7)
        assert nvio.read_rabi_csv(tmp_path / "rabi.csv").counts.tobytes() == scan.counts.tobytes()

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

    @pytest.mark.parametrize("flags, expected", [
        ([], (10**6, 0, 60, 200.0, 600.0, 10**6)),
        (EVERY_FLAG, (300_000, 5, 8, 150.0, 240.0, 70_000)),
        (["--reps", "3e5"], (300_000, 0, 60, 200.0, 600.0, 300_000)),
    ], ids=["default", "every-flag", "rabi-reps-follow-resolved-reps"])
    def test_flag_over_default(self, tmp_path, flags, expected):
        # each run setting, read back from what simulate writes: a flag if it is
        # given, else its default
        from nvreadout import io as nvio
        assert run("simulate", "--what", "both", "--out-dir", str(tmp_path / "sim"), *flags) == 0
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
        ("sweep-identical-pair", 0, "sweep: every width degenerate"),
        ("evaluate-identical-pair", 2, "boundary sweep is fully degenerate"),
        ("trace-without-column-row", 2, "no-columns.csv: expected 'bin_index,counts' column row"),
        ("model-of-another-bin-width", 2, "data bin width 2.0 ns differs from model's 4.0 ns"),
        # a weight or intercept whose estimates overflow: once an inf variance and a
        # nan contrast, exit 0, after numpy's RuntimeWarnings
        ("evaluate-model-weight-1e308", 2, "nvreadout: estimates overflow"),
        ("evaluate-model-intercept-1e308", 2, "nvreadout: estimates overflow"),
        ("predict-model-weight-1e308", 2, "nvreadout: estimates overflow"),
        ("predict-model-intercept-1e308", 2, "nvreadout: estimates overflow"),
        ("repair-model-weight-1e308", 2, "nvreadout: estimates overflow"),
        ("repair-model-intercept-1e308", 2, "nvreadout: estimates overflow"),
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
        if case.endswith("model-weight-1e308"):
            lines[lines.index("weight") + 5] = "1e308"          # the fifth weight
        else:
            lines = [re.sub(r"^# intercept=.*", "# intercept=1e308", line) for line in lines]
        huge.write_text("\n".join(lines) + "\n")
        argv = {
            "train-boundary-without-trace1": ["train", "--mode", "boundary", "--trace0", b0,
                                              "--out", out],
            "train-rabi-without-rabi": ["train", "--mode", "rabi", "--out", out],
            "sweep-identical-pair": ["sweep", "--trace0", b0, "--trace1", b0, "--out", out],
            "evaluate-identical-pair": ["evaluate", "--rabi", scan, "--model",
                                        str(pipeline / "model.txt"), "--trace0", b0,
                                        "--trace1", b0, "--out", out],
            "trace-without-column-row": ["sweep", "--trace0", str(no_columns), "--trace1", b1,
                                         "--out", out],
            "model-of-another-bin-width": ["evaluate", "--rabi", scan, "--model", str(wide),
                                           "--trace0", b0, "--trace1", b1, "--out", out],
            "evaluate-model-weight-1e308": ["evaluate", "--rabi", scan, "--model", str(huge),
                                            "--trace0", b0, "--trace1", b1, "--truth",
                                            str(data / "rabi_truth.csv"), "--out", out],
            "evaluate-model-intercept-1e308": ["evaluate", "--rabi", scan, "--model",
                                               str(huge), "--trace0", b0, "--trace1", b1,
                                               "--out", out],
            **{f"predict-model-{part}-1e308": ["predict", "--model", str(huge), "--trace", b0]
               for part in ("weight", "intercept")},
            **{f"repair-model-{part}-1e308": ["repair", "--rabi", scan, "--model", str(huge),
                                              "--trace0", b0, "--trace1", b1, "--out", out]
               for part in ("weight", "intercept")},
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

    def test_output_must_not_overwrite_input(self, pipeline, capsys):
        trace = pipeline / "data" / "boundary0.csv"
        assert run("sweep", "--trace0", str(trace), "--trace1", str(trace),
                   "--out", str(trace)) == 2
        assert "overwrite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["summary-is-scan", "summary-is-out", "out-is-model"])
    def test_output_over_another_path_is_2(self, pipeline, tmp_path, capsys, case):
        # each command reads or writes the kept file twice; it must stay as it was
        data = pipeline / "data"
        kept = tmp_path / "kept"
        kept.write_bytes({"summary-is-scan": (data / "rabi.csv").read_bytes(),
                          "summary-is-out": b"an earlier report\n",
                          "out-is-model": (pipeline / "model.txt").read_bytes()}[case])
        before = kept.read_bytes()
        scan = ["--rabi", str(kept if case == "summary-is-scan" else data / "rabi.csv"),
                "--trace0", str(data / "boundary0.csv"), "--trace1", str(data / "boundary1.csv")]
        argv = {
            "summary-is-scan": ["evaluate", *scan, "--model", str(pipeline / "model.txt"),
                                "--out", str(tmp_path / "report.csv"), "--summary", str(kept)],
            "summary-is-out": ["evaluate", *scan, "--model", str(pipeline / "model.txt"),
                               "--out", str(kept), "--summary", str(kept)],
            "out-is-model": ["repair", *scan, "--model", str(kept), "--out", str(kept)],
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
        # finite and positive, but 2 pi span / period overflows, or the step underflows
        ["simulate", "--what", "rabi", "--reps", "1e3", "--rabi-span-ns", "1e308"],
        ["simulate", "--what", "rabi", "--reps", "1e3", "--rabi-period-ns", "1e-320"],
        ["simulate", "--what", "rabi", "--reps", "1e3", "--rabi-points", "3",
         "--rabi-span-ns", "5e-324"],
    ], ids=["reps-nan", "reps-inf", "reps-1e30", "reps-2.7", "rabi-reps-nan",
            "rabi-reps-1e30", "max-iterations-nan", "max-iterations-2.5", "max-iterations-0",
            "rabi-period-negative", "rabi-period-inf",
            "rabi-span-zero", "rabi-points-1", "both-rabi-period-negative",
            "rabi-span-1e308", "rabi-period-1e-320", "rabi-span-5e-324-points-3"])
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
    """A flag that no command has (a config file, a trainer setting, a gate
    start) is a usage error, and nothing is written."""

    def test_weight_factor_flag_is_a_usage_error(self, tmp_path, capsys):
        assert run("train", "--mode", "boundary", "--trace0", "b0.csv", "--trace1", "b1.csv",
                   "--weight-factor", "1", "--out", str(tmp_path / "m.txt")) == 1
        assert "--weight-factor" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("command", ["sweep", "evaluate", "repair"])
    def test_start_bin_flag_is_a_usage_error(self, tmp_path, capsys, command):
        # every gate starts at the first bin: its width is its one parameter
        scan = [] if command == "sweep" else ["--rabi", "scan.csv", "--model", "m.txt"]
        assert run(command, "--trace0", "b0.csv", "--trace1", "b1.csv", *scan,
                   "--start-bin", "0", "--out", str(tmp_path / "out.csv")) == 1
        assert "unrecognized arguments: --start-bin 0" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_train_config_flag_is_a_usage_error(self, tmp_path, capsys):
        # no command reads a config file; the trainer has no setting
        (tmp_path / "run.cfg").write_text("[profile]\n")
        assert run("train", "--mode", "boundary", "--trace0", "b0.csv", "--trace1", "b1.csv",
                   "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "m.txt")) == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_simulate_config_flag_is_a_usage_error(self, tmp_path, capsys):
        # simulate draws from the paper-like preset; a custom emission model is a
        # library call
        (tmp_path / "run.cfg").write_text("[profile]\n")
        assert run("simulate", "--config", str(tmp_path / "run.cfg"),
                   "--out-dir", str(tmp_path / "sim")) == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


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


class TestFlatModel:
    """A model whose formula variance is 0: once a ZeroDivisionError in evaluate."""

    @pytest.mark.parametrize("case", ["trained-on-the-swapped-pair", "weights-times-1e-300",
                                      "weights-0"])
    def test_evaluate_writes_and_repair_names_the_constant_series(self, pipeline, tmp_path,
                                                                  capsys, case):
        data = pipeline / "data"
        b0, b1, scan = (str(data / name) for name in ("boundary0.csv", "boundary1.csv",
                                                      "rabi.csv"))
        model = tmp_path / "model.txt"
        if case == "trained-on-the-swapped-pair":
            assert run("train", "--mode", "boundary", "--trace0", b1, "--trace1", b0,
                       "--out", str(model)) == 0
        else:
            lines = (pipeline / "model.txt").read_text().splitlines()
            k = lines.index("weight") + 1
            lines[k:] = [repr(float(w) * 1e-300) if case == "weights-times-1e-300" else "0.0"
                         for w in lines[k:]]
            model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        pair = ["--rabi", scan, "--model", str(model), "--trace0", b0, "--trace1", b1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("evaluate", *pair, "--truth", str(data / "rabi_truth.csv"),
                       "--out", str(tmp_path / "report.csv"),
                       "--summary", str(tmp_path / "summary.txt")) == 0
            assert run("repair", *pair, "--out", str(tmp_path / "repaired.csv")) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == \
            "nvreadout: values are constant: no oscillation to fit\n"
        assert not (tmp_path / "repaired.csv").exists()
        # V_ML = 0: a constant estimator compares with nothing, so each of its
        # reductions is nan, not 1 - 0/V = +100% or 1 - V/0 = -inf
        report = (tmp_path / "report.csv").read_text()
        assert "\n# reduction ML vs min-V gate=nan\n" in report
        assert "\n# reduction min-V gate vs ML=nan\n" in report
        summary = (tmp_path / "summary.txt").read_text()
        assert "  ML vs min-V gate: +nan% variance reduction\n" in summary
        assert "  min-V gate vs ML: +nan% variance reduction\n" in summary
        assert "  max-C gate vs min-V gate: +nan%" not in summary
        from nvreadout import io as nvio
        ml = nvio.read_report_csv(tmp_path / "report.csv").method("ML")
        assert ml.avg_formula_variance == 0.0 and np.isnan(ml.contrast_measured)


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
        # fitting or training process; no command imports configparser (about
        # 2.6 ms), and numpy.random is for simulate alone
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

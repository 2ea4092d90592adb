"""Command-line surface tying the pipeline together.

Subcommands: simulate, sweep, train, fit-rabi, predict, evaluate, repair.
Exit status is 0 on success, 1 on usage errors, 2 on data/domain errors
and when memory runs out.  All randomness is controlled by ``--seed``;
rerunning any pipeline with the same inputs and seeds produces
byte-identical output files.

Run settings are flags.  ``simulate --config`` reads only the emission
profile, the [profile] section of a key=value config file; any other
section is an error (see docs/config-format.md).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

import numpy as np
from dataclasses import MISSING, fields as dataclass_fields
from pathlib import Path

from . import __version__
from . import io as nvio
from .errors import ParameterError, ParseError, ReadoutError
from .evaluation import evaluate, repair
from .gating import sweep_gate
from .rabi import _check_scan, fit_count_sums, simulate_rabi_dataset
from .regression import (gated_equivalent_model, predict, prediction_variance,
                         train_boundary, train_rabi)
from .traces import (PhotodynamicsParams, _check_repetitions, make_profiles,
                     paper_like_params, simulate_trace)

__all__ = ["main", "load_config"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# seed offsets so every simulated file gets its own deterministic stream
_SEED_BRIGHT = 0
_SEED_DARK = 1
_SEED_RABI_BASE = 1000


def _count(value, name: str) -> int:
    """A step count given as a float, so that 1e7 is accepted."""
    if not (math.isfinite(value) and value >= 1 and value == int(value)):
        raise ParameterError(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)


def load_config(path) -> PhotodynamicsParams:
    """The emission parameters of a config file's [profile] section, or the
    paper-like preset if it has none.  Any other section, and a [profile] key
    that is not a PhotodynamicsParams field ([DEFAULT]'s included), is a ParseError."""
    import configparser         # here: only simulate --config reads a config file

    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ReadoutError(f"config file not found: {path}")
    for section in parser.sections():
        if section != "profile":
            raise ParseError(f"{path}: [{section}] is not a known section (only [profile] "
                             "is; run settings are flags)")
    if not parser.has_section("profile"):
        parser.add_section("profile")       # empty, or holding [DEFAULT]'s keys

    profile = {f.name: f for f in dataclass_fields(PhotodynamicsParams)}
    values = {}
    for key in parser.options("profile"):
        if key not in profile:
            where = " (from [DEFAULT])" if key in parser.defaults() else ""
            raise ParseError(f"{path}: [profile] {key}{where} is not a known key")
        raw = parser.get("profile", key)
        try:
            values[key] = float(raw)
        except ValueError:
            raise ParseError(f"{path}: [profile] {key}={raw!r} is not a number") from None
    if not values:
        return paper_like_params()
    missing = [n for n, f in profile.items() if f.default is MISSING and n not in values]
    if missing:
        raise ParseError(f"{path}: [profile] sets some keys but not {', '.join(missing)}")
    try:
        return PhotodynamicsParams(**values)
    except ParameterError as exc:
        raise ParseError(f"{path}: [profile] {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nvreadout",
                     description="Time-resolved photon trace readout toolkit")
    schemas = " ".join(f"{k}=v{v}" for k, v in sorted(nvio.FORMAT_VERSIONS.items()))
    parser.add_argument("--version", action="version",
                        version=f"nvreadout {__version__} (file schemas: {schemas})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit boundary and/or oscillation trace files")
    p.add_argument("--preset", default="paper-like", choices=["paper-like"],
                   help="simulator calibration preset")
    p.add_argument("--config", help="config file with a [profile] section")
    p.add_argument("--reps", dest="repetitions", type=float, default=1e6,
                   help="measurement repetitions")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--what", default="boundary", choices=["boundary", "rabi", "both"])
    p.add_argument("--rabi-points", type=int, default=60)
    p.add_argument("--rabi-period-ns", type=float, default=200.0)
    p.add_argument("--rabi-span-ns", type=float, default=600.0)
    p.add_argument("--rabi-reps", dest="rabi_repetitions", type=float,
                   help="repetitions for oscillation points (default: --reps)")

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--trace0", required=True, help="bright boundary trace CSV")
    pair.add_argument("--trace1", required=True, help="dark boundary trace CSV")
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--rabi", required=True, help="test dataset CSV")
    scan.add_argument("--model", required=True)

    p = sub.add_parser("sweep", parents=[pair], help="gate-width sweep over boundary traces")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a weighted readout model")
    p.add_argument("--mode", required=True, choices=["boundary", "rabi"])
    p.add_argument("--trace0", help="bright boundary trace CSV (boundary mode)")
    p.add_argument("--trace1", help="dark boundary trace CSV (boundary mode)")
    p.add_argument("--rabi", help="oscillation dataset CSV (rabi mode)")
    p.add_argument("--max-iterations", type=float, default=100,
                   help="no effect: the trainer is closed-form (kept until ROADMAP item 5)")
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("fit-rabi", help="sinusoid fit of an oscillation dataset")
    p.add_argument("--rabi", required=True)
    p.add_argument("--out", required=True, help="fit report CSV")

    p = sub.add_parser("predict", help="apply a model to one trace")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)

    p = sub.add_parser("evaluate", parents=[scan, pair],
                       help="compare gated baselines and a model")
    p.add_argument("--truth", help="truth CSV for ground-truth errors")
    p.add_argument("--out", required=True, help="report CSV")
    p.add_argument("--summary", help="optional human-readable summary file")

    p = sub.add_parser("repair", parents=[scan, pair],
                       help="original vs model-repaired oscillation")
    p.add_argument("--out", required=True, help="repair CSV")
    return parser


def _check_distinct_output(out_path, *other_paths) -> None:
    """Reject an output path that is one of the paths a command reads or writes."""
    out = Path(out_path).resolve()
    for p in other_paths:
        if p and Path(p).resolve() == out:
            raise ReadoutError(f"output path {out_path} would overwrite {p}")


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    params = load_config(args.config) if args.config else paper_like_params()
    profile0, profile1 = make_profiles(params)
    reps = args.repetitions
    rabi_reps = reps if args.rabi_repetitions is None else args.rabi_repetitions
    # the simulator's own checks, made here so that the messages name the flags
    for flag, value in (("--reps", reps), ("--rabi-reps", rabi_reps)):
        for profile in (profile0, profile1):
            _check_repetitions(value, profile, flag)
    _check_scan(args.rabi_points, args.rabi_period_ns, args.rabi_span_ns,
                names=("--rabi-points", "--rabi-period-ns", "--rabi-span-ns"))

    out = Path(args.out_dir)
    for name in ("boundary0.csv", "boundary1.csv", "rabi.csv", "rabi_truth.csv"):
        _check_distinct_output(out / name, args.config)
    boundary, rabi = args.what in ("boundary", "both"), args.what in ("rabi", "both")
    # every draw before the output directory, so a failing one writes nothing
    if boundary:
        bright = simulate_trace(profile0, reps, args.seed + _SEED_BRIGHT,
                                label="boundary bright")
        dark = simulate_trace(profile1, reps, args.seed + _SEED_DARK, label="boundary dark")
    if rabi:
        dataset, truth = simulate_rabi_dataset(
            profile0, profile1, rabi_reps, args.seed + _SEED_RABI_BASE,
            points=args.rabi_points, period_ns=args.rabi_period_ns, span_ns=args.rabi_span_ns)

    out.mkdir(parents=True, exist_ok=True)
    if boundary:
        nvio.write_trace_csv(out / "boundary0.csv", bright)
        nvio.write_trace_csv(out / "boundary1.csv", dark)
        print(f"wrote {out / 'boundary0.csv'} and {out / 'boundary1.csv'}")
    if rabi:
        nvio.write_rabi_csv(out / "rabi.csv", dataset)
        nvio.write_truth_csv(out / "rabi_truth.csv", dataset.durations, truth)
        print(f"wrote {out / 'rabi.csv'} and {out / 'rabi_truth.csv'}")
    return EXIT_OK


def _pair(args):
    """The boundary traces of ``--trace0`` (bright) and ``--trace1`` (dark)."""
    return nvio.read_trace_csv(args.trace0), nvio.read_trace_csv(args.trace1)


def _cmd_sweep(args) -> int:
    _check_distinct_output(args.out, args.trace0, args.trace1)
    result = sweep_gate(*_pair(args))
    nvio.write_sweep_csv(args.out, result)
    if result.max_contrast is None:
        print("sweep: every width degenerate")
    else:
        mc, mv = result.max_contrast, result.min_variance
        print(f"max contrast {mc.contrast:.4f} at "
              f"{mc.window.width_bins * result.bin_width_ns:g} ns; "
              f"min total variance {mv.total_variance:.6g} at "
              f"{mv.window.width_bins * result.bin_width_ns:g} ns")
    return EXIT_OK


def _cmd_train(args) -> int:
    _check_distinct_output(args.out, args.trace0, args.trace1, args.rabi)
    _count(args.max_iterations, "--max-iterations")
    if args.mode == "boundary":
        if not args.trace0 or not args.trace1:
            raise ReadoutError("boundary mode needs --trace0 and --trace1")
        model = train_boundary(*_pair(args))
    else:
        if not args.rabi:
            raise ReadoutError("rabi mode needs --rabi")
        model = train_rabi(nvio.read_rabi_csv(args.rabi))
    if not model.weights.any():         # the trainer's branch for swapped labels
        hint = "; check for swapped boundary traces" if args.mode == "boundary" else ""
        print(f"warning: the trained model is flat (every weight zero){hint}", file=sys.stderr)
    nvio.write_model(args.out, model)
    print(f"wrote {args.out} ({model.trained_on})")
    return EXIT_OK


def _cmd_fit_rabi(args) -> int:
    _check_distinct_output(args.out, args.rabi)
    dataset = nvio.read_rabi_csv(args.rabi)
    sums, fit = fit_count_sums(dataset)
    nvio.write_fit_csv(args.out, dataset.durations, sums, fit)
    print(f"fit: frequency={fit.frequency:.6g}/ns "
          f"period={1.0 / fit.frequency:.6g} ns residual_rms={fit.residual_rms:.4g}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = nvio.read_model(args.model)
    trace = nvio.read_trace_csv(args.trace)
    p = predict(model, trace)
    v = prediction_variance(model, trace)
    print(f"population={p!r} variance={v!r}")
    return EXIT_OK


def _scan_inputs(args):
    """The scan, the model and the max-C and min-V gates of one boundary sweep."""
    test = nvio.read_rabi_csv(args.rabi)
    model = nvio.read_model(args.model)
    trace0, trace1 = _pair(args)
    sweep = sweep_gate(trace0, trace1)
    if sweep.max_contrast is None:
        raise ReadoutError("boundary sweep is fully degenerate; cannot pick windows")
    max_c, min_v = (gated_equivalent_model(trace0, trace1, m.window)
                    for m in (sweep.max_contrast, sweep.min_variance))
    return test, model, max_c, min_v


def _cmd_evaluate(args) -> int:
    inputs = (args.rabi, args.model, args.trace0, args.trace1, args.truth)
    _check_distinct_output(args.out, *inputs)
    if args.summary:
        _check_distinct_output(args.summary, args.out, *inputs)
    test, model, max_c, min_v = _scan_inputs(args)
    truth = None
    if args.truth:
        durations, truth = nvio.read_truth_csv(args.truth)
        if not np.array_equal(durations, test.durations):
            raise ParseError("durations differ from the test dataset's", path=args.truth)
    report = evaluate(test, max_c, min_v, model, truth)
    nvio.write_report_csv(args.out, report)
    if args.summary:
        nvio.write_report_summary(args.summary, report)
    for m in report.methods:
        print(f"{m.method}: variance={m.avg_formula_variance:.6e} "
              f"mse={m.empirical_mse:.6e} contrast={m.contrast_measured:.4f}")
    return EXIT_OK


def _cmd_repair(args) -> int:
    _check_distinct_output(args.out, args.rabi, args.model, args.trace0, args.trace1)
    test, model, _, min_v = _scan_inputs(args)
    result = repair(test, min_v, model)
    nvio.write_repair_csv(args.out, result)
    print(f"rms vs own fit: original={result.rms_original:.6g} "
          f"repaired={result.rms_repaired:.6g}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "train": _cmd_train,
    "fit-rabi": _cmd_fit_rabi,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "repair": _cmd_repair,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:          # argparse --version/-h exit 0, errors exit 1
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ReadoutError, OSError) as exc:
        print(f"nvreadout: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:      # e.g. a scan too large for this machine
        print("nvreadout: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return EXIT_DATA


def _script() -> None:
    """Process entry point, for ``python -m nvreadout.cli`` and the installed
    ``nvreadout`` script.  Freezing the start-up heap spares the collector a
    walk over the imported modules at exit; :func:`main` itself changes no
    process-wide state, as tests call it in-process."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    _script()

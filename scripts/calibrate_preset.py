#!/usr/bin/env python3
"""Tuning procedure behind ``nvreadout.traces.paper_like_params``.

The two-transient emission model has more freedom than the published
anchors pin down, so the default preset is calibrated numerically against
these targets (evaluated on noiseless profiles, 2 ns bins, 1000 ns traces):

  T1. mean photons per measurement (average of both states) = 0.020
  T2. gated contrast at its optimal window = 0.30
  T3. the swept contrast peaks at an interior window near ~230 ns and the
      swept total variance bottoms out at a larger interior window near
      ~480 ns (the qualitative gate-width tradeoff the toolkit studies)
  T4. total variance at the max-contrast window ~1.65x its minimum, so the
      two traditional operating points are meaningfully different

Shape constants (bright transient, shelving recovery 250 ns, deficit
onset) are optimized by Nelder-Mead from a deterministic start grid,
rounded to two significant figures for readability, and the steady rate
is then set exactly from T1.  Run this script to reproduce the numbers
frozen into the library preset; it exits nonzero if the shipped preset
drifts from the targets.
"""

import sys

import numpy as np
from scipy.optimize import minimize

sys.path.insert(0, "src")

from nvreadout.traces import PhotodynamicsParams, make_profiles, paper_like_params

BIN_NS = 2.0
TRACE_NS = 1000.0
TAU_ISC_NS = 250.0

TARGET_PHOTONS = 0.020
TARGET_CONTRAST = 0.30
TARGET_WIDTH_C_NS = 234.0
TARGET_WIDTH_V_NS = 476.0
TARGET_V_RATIO = 1.65


def sweep_geometry(params: PhotodynamicsParams):
    profile0, profile1 = make_profiles(params)
    cum0 = np.cumsum(profile0.rates)
    cum1 = np.cumsum(profile1.rates)
    c = (cum0 - cum1) / cum0
    v = (cum0 + cum1) / (2.0 * (cum0 - cum1) ** 2)
    i_c, i_v = int(np.argmax(c)), int(np.argmin(v))
    return {
        "width_c_ns": (i_c + 1) * params.bin_width_ns,
        "width_v_ns": (i_v + 1) * params.bin_width_ns,
        "contrast": float(c[i_c]),
        "v_ratio": float(v[i_c] / v[i_v]),
        "mean_photons": float(0.5 * (profile0.rates.sum() + profile1.rates.sum())),
        "interior": 0 < i_c < c.size - 1 and 0 < i_v < v.size - 1,
        "ordered": i_c < i_v,
    }


def shape_params(bright_boost, dark_dip, tau_bright, tau_onset,
                 steady_rate=1.0):
    return PhotodynamicsParams(
        steady_rate=steady_rate, bright_boost=bright_boost, dark_dip=dark_dip,
        tau_bright_ns=tau_bright, tau_isc_ns=TAU_ISC_NS,
        tau_onset_ns=tau_onset, trace_length_ns=TRACE_NS, bin_width_ns=BIN_NS)


def objective(x):
    bright_boost, dark_dip, log_onset, log_bright = x
    if not (0.0 <= bright_boost <= 2.0 and 0.05 <= dark_dip <= 0.9):
        return 1e6
    tau_onset, tau_bright = np.exp(log_onset), np.exp(log_bright)
    if not (5.0 <= tau_onset <= 200.0 and 20.0 <= tau_bright <= 200.0):
        return 1e6
    g = sweep_geometry(shape_params(bright_boost, dark_dip, tau_bright, tau_onset))
    return (((g["contrast"] - TARGET_CONTRAST) / 0.02) ** 2
            + ((g["v_ratio"] - TARGET_V_RATIO) / 0.10) ** 2
            + ((g["width_c_ns"] - TARGET_WIDTH_C_NS) / 60.0) ** 2
            + ((g["width_v_ns"] - TARGET_WIDTH_V_NS) / 90.0) ** 2)


def optimize_shape():
    best = None
    for b0 in (0.05, 0.2, 0.5, 1.0):
        for d0 in (0.4, 0.6, 0.85):
            for onset0 in (10.0, 30.0, 80.0):
                for bright0 in (40.0, 80.0):
                    res = minimize(
                        objective, [b0, d0, np.log(onset0), np.log(bright0)],
                        method="Nelder-Mead",
                        options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000})
                    if best is None or res.fun < best.fun:
                        best = res
    return best


def main() -> int:
    best = optimize_shape()
    bright_boost, dark_dip, log_onset, log_bright = best.x
    print("optimizer result (objective %.4f):" % best.fun)
    print(f"  bright_boost={bright_boost:.4f} dark_dip={dark_dip:.4f} "
          f"tau_bright={np.exp(log_bright):.2f} tau_onset={np.exp(log_onset):.2f}")

    # round the shape constants for readability; targets are insensitive to it.
    # Plain floats, so that the printed preset pastes into paper_like_params.
    rounded = dict(bright_boost=round(float(bright_boost), 2),
                   dark_dip=round(float(dark_dip), 2),
                   tau_bright=round(float(np.exp(log_bright)), 0),
                   tau_onset=round(float(np.exp(log_onset)) / 10) * 10.0)
    raw = shape_params(rounded["bright_boost"], rounded["dark_dip"],
                       rounded["tau_bright"], rounded["tau_onset"])
    steady = round(TARGET_PHOTONS / sweep_geometry(raw)["mean_photons"], 9)
    final = shape_params(rounded["bright_boost"], rounded["dark_dip"],
                         rounded["tau_bright"], rounded["tau_onset"], steady)
    g = sweep_geometry(final)
    print("rounded preset:")
    print(f"  steady_rate={steady!r} bright_boost={rounded['bright_boost']!r} "
          f"dark_dip={rounded['dark_dip']!r} tau_bright_ns={rounded['tau_bright']!r} "
          f"tau_isc_ns={TAU_ISC_NS!r} tau_onset_ns={rounded['tau_onset']!r}")
    print(f"  -> {g}")

    shipped = paper_like_params()
    gs = sweep_geometry(shipped)
    print(f"shipped preset -> {gs}")
    ok = (abs(gs["mean_photons"] - TARGET_PHOTONS) < 2e-4
          and abs(gs["contrast"] - TARGET_CONTRAST) < 0.02
          and gs["interior"] and gs["ordered"]
          and 1.4 < gs["v_ratio"] < 2.0)
    print("shipped preset satisfies calibration targets:", ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Shared fixtures for the test suite.

The acceptance scenarios reuse one boundary-trained setup (simulating
10^7-repetition boundaries and training takes a few seconds), so it is
built once per session.
"""

from dataclasses import dataclass

import pytest

from nvreadout import (gated_equivalent_model, make_profiles, paper_like_params,
                       simulate_rabi_dataset, simulate_trace, sweep_gate,
                       train_boundary)

# committed seeds for the deterministic acceptance scenarios
SEED_BOUNDARY_CLEAN = 501       # criterion 5/9: 1e7-repetition boundaries
SEED_BOUNDARY_NOISY = 601       # criterion 6: 1e5-repetition boundaries
SEED_TEST_SET = 900             # shared 60-point test set at 1e5 repetitions
SEED_RABI_TRAINING = 10         # criterion 7 pipeline (test set at +10000)


def gates(trace0, trace1):
    """The max-C and min-V gates of a boundary pair's sweep, in model form."""
    sweep = sweep_gate(trace0, trace1)
    return tuple(gated_equivalent_model(trace0, trace1, m.window)
                 for m in (sweep.max_contrast, sweep.min_variance))


def noise_per_contrast(model, profile0, profile1):
    """N = sum w^2 m / (w . delta)^2 on the true profiles at p = 1/2."""
    delta = profile0.rates - profile1.rates
    mean = 0.5 * (profile0.rates + profile1.rates)
    w = model.weights
    return float(w * w @ mean / (w @ delta) ** 2)


@dataclass
class BoundarySetup:
    params: object
    profile0: object
    profile1: object
    trace0: object
    trace1: object
    sweep: object
    model: object


def _boundary_setup(repetitions, seed):
    params = paper_like_params()
    profile0, profile1 = make_profiles(params)
    trace0 = simulate_trace(profile0, repetitions, seed)
    trace1 = simulate_trace(profile1, repetitions, seed + 1)
    sweep = sweep_gate(trace0, trace1)
    model = train_boundary(trace0, trace1)
    return BoundarySetup(params, profile0, profile1, trace0, trace1, sweep, model)


@pytest.fixture(scope="session")
def clean_boundary_setup():
    """Default-config training on 10^7-repetition boundary traces."""
    return _boundary_setup(10**7, SEED_BOUNDARY_CLEAN)


@pytest.fixture(scope="session")
def test_set_1e5():
    """60-point oscillation test set at 10^5 repetitions, with ground truth."""
    params = paper_like_params()
    profile0, profile1 = make_profiles(params)
    return simulate_rabi_dataset(profile0, profile1, repetitions=10**5,
                                 seed=SEED_TEST_SET, points=60)

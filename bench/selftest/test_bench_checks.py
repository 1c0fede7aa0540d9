"""Each output check passes the program's output and rejects a perturbed copy."""

import math

import numpy as np
import pytest

import checks
import workloads
from stepharm import (PotentialConfig, WavePacketSpec, bound_eigenfunction,
                      delay_time, evolve, find_resonances, measure_delay,
                      solve_levels)


def levels_of(beta0):
    return [(lv.n, lv.beta_n, lv.k_n)
            for lv in solve_levels(PotentialConfig.from_beta0(beta0))]


def test_levels():
    rows = levels_of(9.3)
    assert checks.check_levels(9.3, rows) == []
    n, beta_n, k_n = rows[2]
    shifted = rows[:2] + [(n, beta_n + 1e-6, math.sqrt(2 * (9.3 - beta_n - 1e-6)))] + rows[3:]
    assert checks.check_levels(9.3, shifted)
    assert checks.check_levels(9.3, rows[:-1])


def test_levels_printed_to_twelve_digits():
    # beta0 = 21.0347... has a level 0.017 below the threshold, where the
    # rounding of beta_n moves sqrt(2(beta0 - beta_n)) by 1.5e-9 of itself
    beta0 = 21.03470512517797
    rows = [(n, float(f"{b:.12g}"), float(f"{k:.12g}")) for n, b, k in levels_of(beta0)]
    assert checks.check_levels(beta0, rows) == []
    n, beta_n, k_n = rows[-1]
    assert checks.check_levels(beta0, rows[:-1] + [(n, beta_n, k_n * 1.001)])


@pytest.fixture(scope="module")
def delay_table():
    beta0 = 5.3
    betas = beta0 + workloads.DELAY_OFFSETS
    return beta0, betas, delay_time(betas, PotentialConfig.from_beta0(beta0))


def test_delay_curve(delay_table):
    beta0, betas, taus = delay_table
    assert checks.check_delay_curve(beta0, betas, taus) == []
    assert checks.check_delay_curve(beta0, betas, taus * 1.001)
    flat = np.where(betas - beta0 > 100.0, 1.2 * math.pi, taus)
    assert checks.check_delay_curve(beta0, betas, flat)


def test_resonances():
    beta0, beta_max = 1.5, 21.5
    rows = [(r.beta_peak, r.tau_peak, r.width)
            for r in find_resonances(PotentialConfig.from_beta0(beta0), beta_max)]
    assert rows and checks.check_resonances(beta0, beta_max, rows) == []
    b, tau, w = rows[0]
    assert checks.check_resonances(beta0, beta_max, [(b + 0.01, tau, w)])
    assert checks.check_resonances(beta0, beta_max, [(b, tau * 1.001, w)])
    # a missing peak, or all of them, is caught as well
    assert checks.check_resonances(beta0, beta_max, rows[1:])
    assert checks.check_resonances(beta0, beta_max, rows[:1] + rows[2:])
    assert checks.check_resonances(beta0, beta_max, [])
    assert checks.check_resonances(beta0, beta_max, rows + rows[:1])


@pytest.fixture(scope="module")
def bound_state():
    beta0, n = 6.5, 1
    config = PotentialConfig.from_beta0(beta0)
    level = solve_levels(config)[n]
    xs = workloads.state_grid(beta0)
    return beta0, n, level.beta_n, level.k_n, xs, bound_eigenfunction(level, config, xs)


def test_bound_state_passes(bound_state):
    assert checks.check_bound_state(*bound_state) == []


def test_bound_state_scaled(bound_state):
    beta0, n, beta_n, k_n, xs, u = bound_state
    assert checks.check_bound_state(beta0, n, beta_n, k_n, xs, u * 1.001)


def test_bound_state_junction_step(bound_state):
    beta0, n, beta_n, k_n, xs, u = bound_state
    stepped = np.where(xs < 0.0, u * 1.001, u)
    problems = checks.check_bound_state(beta0, n, beta_n, k_n, xs, stepped)
    assert any("junction" in p for p in problems)


def test_bound_state_wrong_level(bound_state):
    beta0, n, beta_n, k_n, xs, u = bound_state
    assert checks.check_bound_state(beta0, n, beta_n + 1e-6, k_n, xs, u)
    assert checks.check_bound_state(beta0, n + 1, beta_n, k_n, xs, u)


@pytest.fixture(scope="module")
def packet():
    beta0, beta_center = 1.5, 6.0
    spec = WavePacketSpec.for_beta(PotentialConfig.from_beta0(beta0), beta_center)
    xs = workloads.packet_grid(beta0, beta_center)
    times = np.linspace(0.0, workloads.return_time(beta0, beta_center), 5)
    return beta0, spec, measure_delay(spec), xs, evolve(spec, xs, times).psi


def test_packet_delay(packet):
    beta0, spec, delay, _, _ = packet
    assert checks.check_packet_delay(beta0, spec.k_center, spec.sigma_k, delay, False) == []
    assert checks.check_packet_delay(beta0, spec.k_center, spec.sigma_k, 1.06 * delay, False)
    assert checks.check_packet_delay(beta0, spec.k_center, spec.sigma_k, 0.0, True) == []
    assert checks.check_packet_delay(beta0, spec.k_center, spec.sigma_k, 0.01, True)


def test_frame_norms(packet):
    _, _, _, xs, psi = packet
    assert checks.check_frame_norms(xs, psi) == []
    damped = psi.copy()
    damped[2] *= 1.01
    assert checks.check_frame_norms(xs, damped)


def test_verify_summary():
    report = {"data": [{"name": "a", "passed": True}]}
    assert checks.check_verify("PASS  a\nall checks passed (1/1)\n", report) == []
    assert checks.check_verify("FAIL  a\nSOME CHECKS FAILED (0/1)\n", report)
    assert checks.check_verify("all checks passed (1/1)\n",
                               {"data": [{"name": "a", "passed": False}]})

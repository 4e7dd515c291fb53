"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and match the package's verification suite.
"""

import math
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xxteleport.entanglement import concurrence, thermal_concurrence, \
    zero_entanglement_temperature
from xxteleport.model import ModelParams, gibbs_state, gibbs_state_oracle_stack
from xxteleport.phase import (ARCSINH_1, TABLE1_REFERENCE, better_than_classical,
                              critical_temperature, reproduce_table1)
from xxteleport.teleport import (BELL_PROJECTORS, apply_channel, average_fidelity,
                                 bell_weights, channel_fidelity_stack, mc_average_fidelity,
                                 output_fidelity, protocol_oracle,
                                 quadrature_average_fidelity_stack)
from xxteleport.verify import random_density, random_params, random_pure_qubit


def report(num, label, ok, detail):
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    points = reproduce_table1()
    elapsed = time.perf_counter() - start
    dev_t = max(abs(p.t_critical_over_j - t_ref) / t_ref
                for p, (_, t_ref, _) in zip(points, TABLE1_REFERENCE))
    dev_cr = max(abs(p.residual_concurrence - cr_ref)
                 for p, (_, _, cr_ref) in zip(points, TABLE1_REFERENCE))
    ok = len(points) == 9 and dev_t < 1e-5 and dev_cr < 1e-5 and elapsed < 1.0
    report(1, "table1-reproduction", ok,
           f"rel dev T={dev_t:.2e}, abs dev C_r={dev_cr:.2e}, {elapsed:.3f}s")


def test_criterion_2_zero_entanglement_temperature():
    dev = max(abs(zero_entanglement_temperature(j) - 1.13459 * j) / (1.13459 * j)
              for j in (0.5, 1.0, 2.0, 7.3))
    vanished = all(
        thermal_concurrence(ModelParams(j=1.0, b_m=b, t=zero_entanglement_temperature(1.0)
                                        * (1 + 1e-6))) == 0.0
        for b in (0.0, 0.5, 1.0, 2.0))
    ok = dev < 1e-5 and vanished
    report(2, "zero-entanglement-temperature", ok,
           f"rel dev={dev:.2e}, field-independent vanishing={vanished}")


def test_criterion_3_oracle_equivalences():
    rng = np.random.default_rng(2024)
    n = 1000
    params = [random_params(rng) for _ in range(n)]

    dev_a = max(np.abs(gibbs_state(p).rho - oracle).max()
                for p, oracle in zip(params, gibbs_state_oracle_stack(params)))
    dev_b = max(abs(thermal_concurrence(p) - concurrence(gibbs_state(p).rho).value)
                for p in params)
    dev_c = 0.0
    for _ in range(n):
        rho = random_density(rng)
        psi = random_pure_qubit(rng)
        dev_c = max(dev_c, float(np.abs(protocol_oracle(rho, psi)
                                        - apply_channel(rho, psi)).max()))
    dev_d = 0.0
    for p in params:
        psi = random_pure_qubit(rng)
        dev_d = max(dev_d, abs(output_fidelity(p, psi.theta)
                               - channel_fidelity_stack(gibbs_state(p).rho[None], [psi])[0]))

    ok = dev_a < 1e-10 and dev_b < 1e-10 and dev_c < 1e-10 and dev_d < 1e-12
    report(3, "oracle-equivalences", ok,
           f"gibbs={dev_a:.2e}, concurrence={dev_b:.2e}, "
           f"protocol={dev_c:.2e}, pointwise={dev_d:.2e} on {n}-point grids")


def test_criterion_4_average_fidelity_triple_agreement():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    dev_quad = 0.0
    mc_ok = True
    worst_pull = 0.0
    for _ in range(20):
        p = random_params(rng)
        rho = gibbs_state(p).rho
        closed = average_fidelity(p).average
        dev_quad = max(dev_quad, abs(closed - quadrature_average_fidelity_stack(rho[None])[0]))
        mc = mc_average_fidelity(rho, 1_000_000, seed=int(rng.integers(2**31)))
        gap = abs(closed - mc.average)
        if mc.stderr > 0.0:
            worst_pull = max(worst_pull, gap / mc.stderr)
            mc_ok = mc_ok and gap <= 3 * mc.stderr
        else:
            mc_ok = mc_ok and gap == 0.0
    elapsed = time.perf_counter() - start
    ok = dev_quad < 1e-10 and mc_ok and elapsed < 10.0
    report(4, "average-fidelity-triple-agreement", ok,
           f"quadrature dev={dev_quad:.2e}, worst MC pull={worst_pull:.2f} sigma, "
           f"{elapsed:.2f}s for 20 points")


def test_criterion_5_threshold_equivalence():
    rng = np.random.default_rng(99)
    mismatches = 0
    checked = 0
    for _ in range(2000):
        p = random_params(rng)
        beta = p.beta
        if abs(math.sinh(beta * p.j) - math.cosh(beta * p.b_m)) < 1e-9:
            continue
        checked += 1
        if better_than_classical(p) != (average_fidelity(p).average > 2.0 / 3.0):
            mismatches += 1
    dev_boundary = max(abs(average_fidelity(
        ModelParams(j=1.0, b_m=eta, t=critical_temperature(eta).t_critical_over_j)
    ).average - 2.0 / 3.0) for eta, _, _ in TABLE1_REFERENCE)
    ok = mismatches == 0 and dev_boundary < 1e-10
    report(5, "threshold-equivalence", ok,
           f"{mismatches}/{checked} mismatches, boundary fidelity dev={dev_boundary:.2e}")


def test_criterion_6_symmetry_and_limits():
    exact = True
    for j in (0.3, 1.0, 2.5):
        for b in (0.0, 0.7, 1.9):
            for t in (0.1, 1.0, 4.0):
                c = thermal_concurrence(ModelParams(j, b, t))
                exact = exact and thermal_concurrence(ModelParams(-j, b, t)) == c
                exact = exact and thermal_concurrence(ModelParams(j, -b, t)) == c
    t_inf = 1e9
    dev_f = max(abs(average_fidelity(ModelParams(j, b, t_inf * j)).average - 0.5)
                for j in (0.5, 1.0, 2.0) for b in (0.0, 1.0))
    dev_c = max(thermal_concurrence(ModelParams(j, b, t_inf * j))
                for j in (0.5, 1.0, 2.0) for b in (0.0, 1.0))
    ok = exact and dev_f < 1e-9 and dev_c < 1e-9
    report(6, "symmetry-and-limits", ok,
           f"sign-flip exact={exact}, |F-1/2|={dev_f:.2e}, C={dev_c:.2e} at T=1e9*J")


def test_criterion_7_randomized_properties():
    rng = np.random.default_rng(31415)
    n = 10_000

    # Bell projector completeness applied to random 4-dim states
    dev_complete = 0.0
    for _ in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        total = sum(float(np.real(v.conj() @ e @ v)) for e in BELL_PROJECTORS)
        dev_complete = max(dev_complete, abs(total - 1.0))

    # channel trace preservation
    dev_trace = 0.0
    for _ in range(n):
        out = apply_channel(random_density(rng), random_pure_qubit(rng))
        dev_trace = max(dev_trace, abs(float(np.trace(out).real) - 1.0))

    # concurrence range on random mixed states
    range_ok = True
    for _ in range(n):
        val = concurrence(random_density(rng)).value
        range_ok = range_ok and 0.0 <= val <= 1.0

    # bisection bracket validity over eta in (0, 1)
    bracket_ok = True
    for eta in rng.uniform(1e-9, 1.0 - 1e-12, n):
        bracket_ok = bracket_ok and (
            math.sinh(ARCSINH_1) - math.cosh(eta * ARCSINH_1) <= 0.0
            and np.sinh(50.0) - np.cosh(eta * 50.0) > 0.0)

    ok = dev_complete < 1e-12 and dev_trace < 1e-12 and range_ok and bracket_ok
    report(7, "randomized-properties", ok,
           f"completeness dev={dev_complete:.2e}, trace dev={dev_trace:.2e}, "
           f"range ok={range_ok}, bracket ok={bracket_ok} on {n} cases each")


def test_criterion_8_more_entanglement_lower_fidelity():
    # (eta, T/J) -> (C, F) at J = 1, to the five decimals quoted for them.
    quoted = {"A": ((0.99, 0.18), (0.50990, 0.67592)),
              "B": ((0.0, 0.53), (0.50820, 0.83607))}
    got = {}
    for name, ((eta, t), (c_ref, f_ref)) in quoted.items():
        p = ModelParams(j=1.0, b_m=eta, t=t)
        got[name] = (thermal_concurrence(p), average_fidelity(p).average,
                     better_than_classical(p))
    close = all(abs(got[k][0] - c) < 5e-6 and abs(got[k][1] - f) < 5e-6
                for k, (_, (c, f)) in quoted.items())
    beats = got["A"][2] and got["B"][2]
    ranked = got["A"][0] > got["B"][0] and got["A"][1] < got["B"][1]
    ok = close and beats and ranked
    report(8, "more-entanglement-lower-fidelity", ok,
           f"A: C={got['A'][0]:.5f} F={got['A'][1]:.5f}, "
           f"B: C={got['B'][0]:.5f} F={got['B'][1]:.5f}, both beat 2/3={beats}")


@settings(max_examples=200, deadline=None)
@given(j=st.floats(-3.0, 3.0), b_m=st.floats(-3.0, 3.0), t=st.floats(0.05, 20.0))
def test_fidelity_and_concurrence_from_bell_weights(j, b_m, t):
    """F = (2 p_Psi- + 1)/3 (Pauli channel) and C = max(0, |p_Psi- - p_Psi+|
    - 2 sqrt(rho_00 rho_33)) (X state), from the Bell weights of the Gibbs state."""
    p = ModelParams(j=j, b_m=b_m, t=t)
    rho = gibbs_state(p).rho
    p_psi_minus, _, _, p_psi_plus = bell_weights(rho)
    rho_00, rho_33 = rho[0, 0].real, rho[3, 3].real
    assert abs(average_fidelity(p).average - (2.0 * p_psi_minus + 1.0) / 3.0) < 1e-12
    c = max(0.0, abs(p_psi_minus - p_psi_plus) - 2.0 * math.sqrt(rho_00 * rho_33))
    assert abs(thermal_concurrence(p) - c) < 1e-12

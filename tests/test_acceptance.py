"""Acceptance gate: one test per criterion, tolerances pinned inline.

Run with ``pytest -v tests/test_acceptance.py`` for one line per
criterion; each test also prints a PASS/FAIL summary line with the
observed worst deviation.
"""

import math
import time

import numpy as np
import pytest

from munorm import (
    OperatorMatrix,
    koopman,
    avg_trace,
    quantum_entropy_closed,
    rho_window_max,
)
from munorm.operators import Endomorphism
from munorm.verify_circle import (
    dt_integral,
    norm_chain,
    random_seq,
    trace_invariance,
    two_tail_integral,
)
from munorm.verify_finite import (
    closed_entropy,
    cyclic_dimension,
    finest_formula,
    homogeneity,
    koopman_bridge,
    left_subadditivity,
    left_unitary,
    lipschitz,
    multiplication,
    projector_measure,
    right_additivity,
    right_koopman,
    triangle,
    uniform_space,
    weighted_additivity,
)


def _line(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def _assert_checks(num: int, name: str, checks, tolerances) -> None:
    worst = max(c.max_violation for c in checks)
    ok = all(c.max_violation <= tol for c, tol in zip(checks, tolerances, strict=True))
    _line(num, name, ok, f"worst deviation {worst:.3e}")
    for c, tol in zip(checks, tolerances, strict=True):
        assert c.max_violation <= tol, f"{c.name}: {c.max_violation} > {tol}"


def test_criterion_01_projector_law():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checks = projector_measure(rng, 200)
    elapsed = time.perf_counter() - start
    _assert_checks(1, "projector m_chi is the measure of the met blocks (200 trials)",
                   checks, [1e-12])
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"


def test_criterion_02_finite_formula():
    rng = np.random.default_rng(102)
    fin_u, _, unitary = finest_formula(rng, 100)
    _assert_checks(2, "uniform finite formula and unitary m_chi (100 matrices, J<=16)",
                   [fin_u, unitary], [1e-10, 1e-12])


def test_criterion_03_multiplication_law():
    rng = np.random.default_rng(103)
    _assert_checks(3, "multiplier m_chi is the block-max mass (100 trials)",
                   multiplication(rng, 100), [1e-12])


def test_criterion_04_invariance_battery():
    rng = np.random.default_rng(104)
    checks = []
    for suite in (triangle, homogeneity, left_unitary, right_koopman,
                  right_additivity, left_subadditivity, weighted_additivity, lipschitz):
        checks.extend(suite(rng, 100))
    _assert_checks(4, "invariance battery (8 x 100 trials)", checks, [1e-9] * len(checks))


def test_criterion_05_koopman_bridge():
    rng = np.random.default_rng(105)
    checks = koopman_bridge(rng, 50)
    _assert_checks(5, "composition-operator bridge (50 trials)", checks, [1e-10, 1e-10])


def test_criterion_06_closed_entropy():
    rng = np.random.default_rng(106)
    sp = uniform_space(4)
    perm = koopman(Endomorphism(sp, [2, 0, 3, 1]))
    exact_zero = quantum_entropy_closed(perm)
    h = 1 / math.sqrt(2.0)
    balanced = quantum_entropy_closed(
        OperatorMatrix(uniform_space(2), np.array([[h, h], [h, -h]]))
    )
    perm0, hada, markov, chain = closed_entropy(rng, 50)
    ok = (exact_zero == 0.0
          and abs(balanced - math.log(2.0)) <= 1e-12
          and perm0.max_violation == 0.0
          and hada.max_violation <= 1e-12
          and markov.max_violation <= 1e-12
          and chain.max_violation <= 1e-12)
    _line(6, "closed entropy formula (50 unitaries)", ok,
          f"markov agreement worst {markov.max_violation:.3e}")
    assert exact_zero == 0.0
    assert balanced == pytest.approx(math.log(2.0), abs=1e-12)
    assert perm0.max_violation == 0.0
    assert hada.max_violation <= 1e-12
    assert markov.max_violation <= 1e-12
    assert chain.trials == 50 and chain.max_violation <= 1e-12


def test_criterion_07_cyclic_dimension():
    rng = np.random.default_rng(107)
    # 2 rounds x all (q, orbit-count) combos x every residue
    checks = cyclic_dimension(rng, 24)
    _assert_checks(7, "cyclic eigenspace dimension (q in 2,3,4,6; m in 1,2,3)",
                   checks, [1e-10])


def test_criterion_08_rho_oracle():
    rng = np.random.default_rng(108)
    worst4 = worst5 = 0.0
    for _ in range(50):
        seq = random_seq(rng)
        closed = avg_trace(seq)
        worst4 = max(worst4, abs(closed - rho_window_max(seq, 10**4)))
        worst5 = max(worst5, abs(closed - rho_window_max(seq, 10**5)))
    ok = worst4 <= 1e-2 and worst5 <= 1e-3
    _line(8, "window-density oracle (50 sequences)", ok,
          f"worst {worst4:.3e} at 1e4, {worst5:.3e} at 1e5")
    assert worst4 <= 1e-2
    assert worst5 <= 1e-3


def test_criterion_09_dt_integral():
    rng = np.random.default_rng(109)
    agree, cosine = dt_integral(rng, 100)
    _assert_checks(9, "band-operator quadrature (100 operators, tau<=8, band<=8)",
                   [agree, cosine], [1e-10, 1e-12])


def test_criterion_10_trace_bound_and_invariance():
    rng = np.random.default_rng(110)
    bound = two_tail_integral(rng, 100)
    invariance = trace_invariance(rng, 100)
    _assert_checks(10, "two-tail integral, strict average-trace bound and unitary invariance",
                   bound + invariance, [1e-10, 1e-12, 1e-10, 1e-14, 1e-10])


def test_criterion_11_norm_chain():
    rng = np.random.default_rng(111)
    checks = norm_chain(rng, 100)
    _assert_checks(11, "norm chain: sections and submultiplicativity (100 operators)",
                   checks, [1e-10, 1e-10])

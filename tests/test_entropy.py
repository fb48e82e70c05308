import itertools
import math

import numpy as np
import pytest

from munorm import (
    CapExceeded,
    Endomorphism,
    FiniteMeasureSpace,
    OperatorMatrix,
    Partition,
    finest_partition,
    identity,
    koopman,
    ks_entropy_at,
    ks_entropy_rate,
    ks_path_measure_table,
    markov_entropy_rate,
    mu_norm_sq,
    path_mass_table,
    path_mass_total,
    path_operator,
    projector,
    quantum_entropy_at,
    quantum_entropy_closed,
    quantum_entropy_rate,
    trivial_partition,
)
from munorm import entropy, verify_finite
from munorm.verify import run_suite
from munorm.verify_finite import random_partition, random_standard_unitary, uniform_space

U2 = uniform_space(2)
U3 = uniform_space(3)
U4 = uniform_space(4)

HADAMARD = OperatorMatrix(U2, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))


def test_path_operator_single_digit_is_projector():
    chi = Partition(3, [[0, 1], [2]])
    np.testing.assert_array_equal(
        path_operator(identity(U3), chi, [1]).entries, projector(U3, [2]).entries
    )


def test_path_operator_identity_disjoint_blocks_vanishes():
    chi = Partition(3, [[0, 1], [2]])
    op = path_operator(identity(U3), chi, [0, 1])
    np.testing.assert_array_equal(op.entries, np.zeros((3, 3)))


def test_path_operator_digit_out_of_range():
    chi = Partition(3, [[0, 1], [2]])
    with pytest.raises(ValueError, match="out of range"):
        path_operator(identity(U3), chi, [0, 2])


def test_path_operator_koopman_mass_is_itinerary_measure():
    cycle = Endomorphism(U3, [1, 2, 0])
    u = koopman(cycle)
    chi = finest_partition(U3)
    # digits (a, b): mass = mu({b} cap F^{-1}({a}))
    for a in range(3):
        for b in range(3):
            got = mu_norm_sq(path_operator(u, chi, [a, b]))
            expected = 1 / 3 if cycle(b) == a else 0.0
            assert got == pytest.approx(expected, abs=1e-15)


def test_quantum_entropy_identity_finest():
    for j in (2, 3, 4):
        sp = uniform_space(j)
        chi = finest_partition(sp)
        assert quantum_entropy_at(identity(sp), chi, 1) == pytest.approx(
            math.log(j), abs=1e-12
        )


def test_quantum_entropy_permutation_constant_log_j():
    rng = np.random.default_rng(0)
    for j in (2, 3, 5):
        sp = uniform_space(j)
        u = koopman(Endomorphism(sp, rng.permutation(j)))
        chi = finest_partition(sp)
        for n in range(4):
            assert quantum_entropy_at(u, chi, n) == pytest.approx(math.log(j), abs=1e-12)


def test_term_cap_reports_required_count():
    sp = uniform_space(10)
    chi = finest_partition(sp)
    with pytest.raises(CapExceeded, match="100000000"):
        quantum_entropy_at(identity(sp), chi, 7)
    with pytest.raises(CapExceeded):
        ks_entropy_at(Endomorphism(sp, list(range(10))), chi, 7)


def test_term_cap_refuses_exactly_the_counts_past_it():
    # the count K^(N+1) is bounded through bit lengths first; the refusal must not move
    _check_horizon = entropy._check_horizon
    for k, n, cap in itertools.product(range(1, 9), range(12), [1, 2, 7, 8, 9, 64, 65, 4096]):
        if k ** (n + 1) <= cap:
            _check_horizon(k, n, cap)
        else:
            with pytest.raises(CapExceeded, match=f"needs {k ** (n + 1)} multiindex terms"):
                _check_horizon(k, n, cap)
    with pytest.raises(CapExceeded, match=r"needs 3\^100 multiindex terms"):
        _check_horizon(3, 99, 10**6)
    with pytest.raises(ValueError, match="term cap must be at least 1, got 0"):
        _check_horizon(2, 1, 0)


def test_rate_report_permutation():
    u = koopman(Endomorphism(U3, [1, 2, 0]))
    rep = quantum_entropy_rate(u, finest_partition(U3), 4)
    assert rep.lengths == (1, 2, 3, 4, 5)
    assert all(abs(d) <= 1e-12 for d in rep.differences)
    assert rep.rates[-1] == pytest.approx(math.log(3) / 5, abs=1e-12)
    assert rep.closed_form == pytest.approx(0.0, abs=1e-15)
    assert all(v >= 0.0 for v in rep.values)


def test_rate_report_hadamard_differences_log2():
    rep = quantum_entropy_rate(HADAMARD, finest_partition(U2), 5)
    for d in rep.differences:
        assert d == pytest.approx(math.log(2.0), abs=1e-10)
    assert rep.closed_form == pytest.approx(math.log(2.0), abs=1e-12)


def test_rate_report_requires_n_max_two():
    with pytest.raises(ValueError, match="at least 2"):
        quantum_entropy_rate(HADAMARD, finest_partition(U2), 1)


def test_closed_entropy_values():
    perm = koopman(Endomorphism(U3, [2, 0, 1]))
    assert quantum_entropy_closed(perm) == 0.0
    assert quantum_entropy_closed(HADAMARD) == pytest.approx(math.log(2.0), abs=1e-12)
    assert quantum_entropy_closed(identity(U4)) == 0.0


def test_closed_entropy_rejects_nonuniform_and_non_unitary():
    with pytest.raises(ValueError, match="uniform"):
        quantum_entropy_closed(identity(FiniteMeasureSpace([0.2, 0.3, 0.5])))
    with pytest.raises(ValueError, match="not unitary"):
        quantum_entropy_closed(OperatorMatrix(U2, np.ones((2, 2))))


def test_ks_identity_finest_is_log_j():
    ident = Endomorphism(U4, [0, 1, 2, 3])
    chi = finest_partition(U4)
    for n in range(4):
        assert ks_entropy_at(ident, chi, n) == pytest.approx(math.log(4), abs=1e-12)


def test_ks_trivial_partition_vanishes():
    cycle = Endomorphism(U3, [1, 2, 0])
    assert ks_entropy_at(cycle, trivial_partition(U3), 3) == 0.0


def test_ks_cycle_three_atoms():
    cycle = Endomorphism(U3, [1, 2, 0])
    assert ks_entropy_at(cycle, finest_partition(U3), 2) == pytest.approx(
        math.log(3), abs=1e-12
    )


def test_ks_subadditive_in_path_length():
    rng = np.random.default_rng(8)
    sp = uniform_space(5)
    endo = Endomorphism(sp, rng.permutation(5))
    chi = Partition(5, [[0, 1], [2, 3], [4]])
    # path-length subadditivity: h(n+m) <= h(n) + h(m), lengths >= 1
    h = {length: ks_entropy_at(endo, chi, length - 1) for length in range(1, 7)}
    for n in range(1, 4):
        for m in range(1, 4):
            assert h[n + m] <= h[n] + h[m] + 1e-12


def test_koopman_bridge_term_by_term():
    rng = np.random.default_rng(21)
    for _ in range(10):
        j = int(rng.integers(2, 7))
        sp = uniform_space(j)
        endo = Endomorphism(sp, rng.permutation(j))
        u = koopman(endo)
        chi = random_partition(rng, j)
        n = int(rng.integers(1, 4))
        q = path_mass_table(u, chi, n)
        k = ks_path_measure_table(endo, chi, n)
        keys = set(q) | {tuple(reversed(key)) for key in k}
        for key in keys:
            assert q.get(key, 0.0) == pytest.approx(
                k.get(tuple(reversed(key)), 0.0), abs=1e-12
            )
        assert quantum_entropy_at(u, chi, n) == pytest.approx(
            ks_entropy_at(endo, chi, n), abs=1e-12
        )


def _assert_tables_match_dense_oracle(u, chi, n):
    table = path_mass_table(u, chi, n)
    for digits in itertools.product(range(len(chi.blocks)), repeat=n + 1):
        expected = mu_norm_sq(path_operator(u, chi, digits))
        assert table.get(digits, 0.0) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        if digits not in table:
            assert expected == 0.0  # only exact zeros are pruned


def test_path_mass_table_matches_dense_path_operator():
    rng = np.random.default_rng(17)
    sp = FiniteMeasureSpace([0.1, 0.05, 0.2, 0.15, 0.3, 0.2])
    w = OperatorMatrix(sp, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    chi = Partition(6, [[0, 4], [1], [2, 3, 5]])
    for n in range(4):
        _assert_tables_match_dense_oracle(w, chi, n)
    rep = quantum_entropy_rate(w, chi, 3)
    for n in range(4):
        assert rep.values[n] == quantum_entropy_at(w, chi, n)


def test_path_mass_table_prunes_disjoint_blocks():
    sp = FiniteMeasureSpace([0.2, 0.3, 0.5])
    chi = Partition(3, [[0, 1], [2]])
    for n in range(4):
        _assert_tables_match_dense_oracle(identity(sp), chi, n)
    # the identity never leaves its block, so only constant itineraries survive
    assert set(path_mass_table(identity(sp), chi, 3)) == {(0,) * 4, (1,) * 4}


def test_split_frontiers_match_dense_oracle(monkeypatch):
    rng = np.random.default_rng(18)
    sp = FiniteMeasureSpace([0.1, 0.05, 0.2, 0.15, 0.3, 0.2])
    w = OperatorMatrix(sp, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    chi = Partition(6, [[0, 4], [1], [2, 3, 5]])
    whole = quantum_entropy_rate(w, chi, 3).values
    # one, two or five states per step: every level with more states is split
    for entries in (1, 40, 100):
        monkeypatch.setattr(entropy, "FRONTIER_ENTRIES", entries)
        for n in range(4):
            _assert_tables_match_dense_oracle(w, chi, n)
            _assert_tables_match_dense_oracle(identity(sp), chi, n)
        rep = quantum_entropy_rate(w, chi, 3)
        for n in range(4):
            assert rep.values[n] == quantum_entropy_at(w, chi, n)
            assert rep.values[n] == pytest.approx(whole[n], rel=1e-12)


def test_underflowed_mass_is_still_expanded():
    sp = FiniteMeasureSpace([0.5, 0.5])
    u = OperatorMatrix(sp, np.array([[0.0, 1e150], [1e-170, 0.0]]))
    chi = finest_partition(sp)
    # the state of (0, 1) is 1e-170: nonzero, but its mass underflows to 0.0
    assert path_mass_table(u, chi, 1)[(0, 1)] == 0.0
    assert path_mass_table(u, chi, 2)[(0, 1, 0)] == pytest.approx(0.5e-40, rel=1e-12)
    for n in range(4):
        _assert_tables_match_dense_oracle(u, chi, n)


def test_ks_table_matches_preimage_intersections():
    # atom 5 weighs 1e-14 and has no preimage, so F is measure-preserving
    # within tolerance but not injective
    b = (0.25 - 1e-14) / 2
    sp = FiniteMeasureSpace([0.25, 0.25, 0.25, b, b, 1e-14])
    endo = Endomorphism(sp, [1, 2, 0, 4, 3, 3])
    chi = Partition(6, [[0, 3], [1, 5], [2, 4]])
    masks = [np.isin(np.arange(6), block) for block in chi.blocks]
    for n in range(4):
        table = ks_path_measure_table(endo, chi, n)
        preimages = [[endo.iterate(s).preimage_mask(m) for m in masks] for s in range(n + 1)]
        nonempty = 0
        for digits in itertools.product(range(3), repeat=n + 1):
            cell = np.logical_and.reduce([preimages[s][d] for s, d in enumerate(digits)])
            if cell.any():
                nonempty += 1
                assert table[digits] == pytest.approx(sp.weights[cell].sum(), rel=1e-12)
            else:
                assert digits not in table
        assert len(table) == nonempty


def test_tables_reject_negative_horizon():
    chi = finest_partition(U3)
    with pytest.raises(ValueError, match="nonnegative"):
        path_mass_table(identity(U3), chi, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        ks_path_measure_table(Endomorphism(U3, [1, 2, 0]), chi, -1)


def test_ks_rate_report():
    cycle = Endomorphism(U3, [1, 2, 0])
    chi = Partition(3, [[0, 1], [2]])
    rep = ks_entropy_rate(cycle, chi, 3)
    assert rep.lengths == (1, 2, 3, 4)
    assert rep.closed_form is None
    assert rep.values == tuple(ks_entropy_at(cycle, chi, n) for n in range(4))
    assert rep.differences == tuple(rep.values[i + 1] - rep.values[i] for i in range(3))
    assert rep.rates == tuple(v / length for v, length in zip(rep.values, rep.lengths))
    assert rep.to_dict()["closed_form"] is None
    for n_max in (1, -1):
        with pytest.raises(ValueError, match="at least 2"):
            ks_entropy_rate(cycle, chi, n_max)


def test_path_masses_total_one_for_unitaries_any_partition():
    # enumeration-verified resolution of the normalization question:
    # the total is 1 at every partition and horizon, not just the finest
    rng = np.random.default_rng(42)
    sp = U4
    u = OperatorMatrix(sp, random_standard_unitary(rng, 4))
    for chi in (finest_partition(sp), Partition(4, [[0, 1], [2, 3]]), trivial_partition(sp)):
        for n in (1, 2, 3):
            assert path_mass_total(u, chi, n) == pytest.approx(1.0, abs=1e-10)


def test_finest_markov_route_passes_and_can_fail(monkeypatch):
    checks = run_suite("finest-markov-route", 10, 4)
    assert len(checks) == 2
    assert all(c.passed and c.trials == 10 for c in checks)

    def without_mu_a(u):
        return np.abs(u.entries.T) ** 2 / u.space.weights[:, None]

    monkeypatch.setattr(verify_finite, "_finest_transition", without_mu_a)
    assert not any(c.passed for c in run_suite("finest-markov-route", 10, 4))


def test_markov_rate_examples():
    assert markov_entropy_rate(np.eye(3)[[1, 2, 0]], [1 / 3] * 3) == 0.0
    j = 4
    assert markov_entropy_rate(np.full((j, j), 1 / j), [1 / j] * j) == pytest.approx(
        math.log(j), abs=1e-12
    )


def test_markov_rate_matches_closed_entropy():
    rng = np.random.default_rng(33)
    for _ in range(10):
        j = int(rng.integers(2, 7))
        sp = uniform_space(j)
        u = OperatorMatrix(sp, random_standard_unitary(rng, j))
        rate = markov_entropy_rate(np.abs(u.entries) ** 2, np.full(j, 1 / j))
        assert rate == pytest.approx(quantum_entropy_closed(u), abs=1e-12)


def _shannon(probs):
    return -sum(x * math.log(x) for x in np.ravel(probs) if x > 0)


def _markov_rate_gap():
    # rows of unequal entropy under a non-uniform nu; the chain rule gives the
    # rate as H(X0, X1) - H(X0) with X0 ~ nu and X1 one step of P
    p = np.array([[0.5, 0.5, 0.0], [0.1, 0.9, 0.0], [0.2, 0.3, 0.5]])
    nu = np.array([0.6, 0.3, 0.1])
    return abs(entropy.markov_entropy_rate(p, nu) - (_shannon(nu[:, None] * p) - _shannon(nu)))


def test_markov_rate_weights_rows_by_nu(monkeypatch):
    assert _markov_rate_gap() <= 1e-12
    # a rate that averages the row entropies uniformly, ignoring nu, is caught
    rate = entropy.markov_entropy_rate
    monkeypatch.setattr(entropy, "markov_entropy_rate",
                        lambda p, nu: rate(p, np.full(len(nu), 1.0 / len(nu))))
    assert _markov_rate_gap() > 1e-3


def test_closed_entropy_suite_catches_a_rate_that_ignores_nu(monkeypatch):
    chain = run_suite("closed-entropy", 20, 0)[-1]
    assert chain.name == "markov-rate-matches-chain-rule"
    assert chain.trials == 20 and chain.passed
    rate = entropy.markov_entropy_rate
    monkeypatch.setattr(entropy, "markov_entropy_rate",
                        lambda p, nu: rate(p, np.full(len(nu), 1.0 / len(nu))))
    checks = run_suite("closed-entropy", 20, 0)
    assert [c.passed for c in checks] == [True, True, True, False]


def test_markov_rate_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        markov_entropy_rate([[0.5, 0.4], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        markov_entropy_rate([[1.5, -0.5], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="distribution"):
        markov_entropy_rate([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.5])


def test_markov_rate_refuses_non_finite_entries():
    p, nu = np.full((2, 2), 0.5), np.full(2, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        q, v = p.copy(), nu.copy()
        q[0, 1], v[1] = bad, bad
        with pytest.raises(ValueError, match="^p: numbers must be finite"):
            markov_entropy_rate(q, nu)
        with pytest.raises(ValueError, match="^nu: numbers must be finite"):
            markov_entropy_rate(p, v)


def test_markov_rate_refuses_nonzero_imaginary_parts():
    # an imaginary part is refused, not cast away with a ComplexWarning
    rows = [[0.5 + 0.5j, 0.5], [0.5, 0.5]]
    for p in (rows, np.array(rows)):
        with pytest.raises(ValueError, match="^transition matrix must be real$"):
            markov_entropy_rate(p, [0.5, 0.5])
    with pytest.raises(ValueError, match="^nu must be real$"):
        markov_entropy_rate(np.full((2, 2), 0.5), np.array([0.5 + 1e-300j, 0.5]))
    # zero imaginary parts read as the real table
    real = markov_entropy_rate(np.full((2, 2), 0.5), [0.5, 0.5])
    assert markov_entropy_rate(np.full((2, 2), 0.5 + 0j), [0.5 + 0j, 0.5]) == real == math.log(2)


def test_weighted_permutation_entropy_is_weight_entropy():
    sp = FiniteMeasureSpace([0.5, 0.25, 0.25])
    endo = Endomorphism(sp, [0, 2, 1])  # swaps the two equal-weight atoms
    u = koopman(endo)
    chi = finest_partition(sp)
    expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
    for n in (0, 1, 2):
        assert quantum_entropy_at(u, chi, n) == pytest.approx(expected, abs=1e-12)
        assert ks_entropy_at(endo, chi, n) == pytest.approx(expected, abs=1e-12)

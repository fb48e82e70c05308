import math
import warnings

import numpy as np
import pytest

from munorm import (
    CyclicAction,
    Endomorphism,
    FiniteMeasureSpace,
    OperatorMatrix,
    Partition,
    cyclic_projector,
    finest_partition,
    identity,
    m_chi,
    mu_dim,
    mu_norm_sq,
    operator_norm,
    projector,
    weighted_gram_schmidt,
)
from munorm.verify_finite import (
    finest_markov_route,
    homogeneity,
    koopman_bridge,
    left_subadditivity,
    left_unitary,
    lipschitz,
    multiplication,
    operator_identities,
    partition_monotone,
    projector_measure,
    projector_product,
    right_additivity,
    right_koopman,
    right_unitary_uniform,
    submultiplicative,
    triangle,
    weighted_additivity,
)

from munorm import norm, operators, verify_finite
from munorm.verify import run_suite

W3 = FiniteMeasureSpace([0.2, 0.3, 0.5])
U2 = FiniteMeasureSpace([0.5, 0.5])


def test_m_chi_projector_two_block():
    chi = Partition(3, [[0], [1, 2]])
    assert m_chi(projector(W3, [0]), chi) == pytest.approx(0.2, abs=1e-14)


def test_m_chi_identity_and_zero():
    chi = Partition(3, [[0, 1], [2]])
    assert m_chi(identity(W3), chi) == pytest.approx(1.0, abs=1e-12)
    assert m_chi(OperatorMatrix(W3, np.zeros((3, 3))), chi) == 0.0


def test_m_chi_rejects_mismatched_partition():
    with pytest.raises(ValueError, match="does not match"):
        m_chi(identity(W3), Partition(2, [[0], [1]]))


def test_mu_norm_sq_projector_law():
    assert mu_norm_sq(projector(W3, [1, 2])) == pytest.approx(0.8, abs=1e-15)


def test_mu_norm_sq_all_ones_uniform():
    # four unit-modulus entries averaged over J=2 gives 2
    w = OperatorMatrix(U2, np.ones((2, 2)))
    assert mu_norm_sq(w) == pytest.approx(2.0, abs=1e-15)


def test_mu_norm_sq_identity():
    assert mu_norm_sq(identity(W3)) == pytest.approx(1.0, abs=1e-15)


def test_closed_form_verified_against_finest_partition():
    # the design contract: the row-weighted entry mass must equal the
    # partition functional at the singleton partition
    rng = np.random.default_rng(17)
    for _ in range(20):
        j = int(rng.integers(2, 9))
        raw = rng.uniform(0.2, 1.0, j)
        sp = FiniteMeasureSpace(raw / raw.sum())
        w = OperatorMatrix(sp, rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j)))
        assert mu_norm_sq(w) == pytest.approx(m_chi(w, finest_partition(sp)), abs=1e-10)


def _m_chi_by_block(w, chi):
    # one numpy spectral norm per block, its term formed in Python floats from
    # the block's measure, summed in block order
    s, total = np.sqrt(w.space.weights), 0.0
    for block in chi.blocks:
        y = list(block)
        sub = s[:, None] * w.entries[:, y] / s[y]
        total += w.space.measure(block) * float(np.linalg.norm(sub, 2)) ** 2
    return total


@pytest.mark.parametrize("stack_entries", [None, 1, 40])
def test_operator_norm_is_numpy_spectral_norm(monkeypatch, stack_entries):
    # the draws of test_m_chi_matches_per_block_norms, against numpy itself
    if stack_entries is not None:
        monkeypatch.setattr(operators, "M_CHI_STACK_ENTRIES", stack_entries)
    rng = np.random.default_rng(41)
    for trial in range(320 if stack_entries is None else 60):
        j = int(rng.integers(1, 40))
        raw = rng.uniform(0.05, 1.0, j)
        sp = FiniteMeasureSpace(raw / raw.sum() if trial % 4 else np.full(j, 1.0 / j))
        w = OperatorMatrix(sp, rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j)))
        s = np.sqrt(sp.weights)
        assert operator_norm(w) == float(np.linalg.norm(s[:, None] * w.entries / s, 2))


@pytest.mark.parametrize("stack_entries", [None, 1, 40])
def test_m_chi_matches_per_block_norms(monkeypatch, stack_entries):
    # stacks of one block, of a few blocks, and of every block of a size
    if stack_entries is not None:
        monkeypatch.setattr(operators, "M_CHI_STACK_ENTRIES", stack_entries)
    rng = np.random.default_rng(41)
    for trial in range(320 if stack_entries is None else 60):
        j = int(rng.integers(1, 40))
        raw = rng.uniform(0.05, 1.0, j)
        sp = FiniteMeasureSpace(raw / raw.sum() if trial % 4 else np.full(j, 1.0 / j))
        w = OperatorMatrix(sp, rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j)))
        if trial % 3 == 0:
            chi = finest_partition(sp)
        else:
            labels = rng.integers(0, int(rng.integers(1, j + 1)), j)
            chi = Partition(j, [np.flatnonzero(labels == b) for b in np.unique(labels)])
        assert m_chi(w, chi) == _m_chi_by_block(w, chi)
        trivial = Partition(j, [range(j)])
        assert m_chi(w, trivial) == _m_chi_by_block(w, trivial)


def _m_chi_uniform_block_weights(w, chi):
    g = operators._block_norms(w.entries, w.space.weights, chi.blocks)
    return sum(len(b) / w.space.size * x ** 2 for b, x in zip(chi.blocks, g.tolist()))


_BLOCK_NORMS = operators._block_norms

#: Mutant -> (the name it replaces in every module that binds it, replacement).
NORM_MUTANTS = {
    "mu-norm-sq-without-mu": ("mu_norm_sq", lambda w: float(np.sum(np.abs(w.entries) ** 2))),
    "m-chi-uniform-block-weights": ("m_chi", _m_chi_uniform_block_weights),
    "block-norms-inverted-weights": (
        "_block_norms", lambda entries, mu, blocks: _BLOCK_NORMS(entries, 1.0 / mu, blocks)),
}


def _definition_suites_pass() -> bool:
    suites = ("projector-measure", "finest-formula", "multiplication")
    return all(c.passed for s in suites for c in run_suite(s, 5, 0))


@pytest.mark.parametrize("name, mutant", NORM_MUTANTS.values(), ids=list(NORM_MUTANTS))
def test_definition_suites_kill_the_norm_mutants(monkeypatch, name, mutant):
    assert _definition_suites_pass()
    for module in (operators, norm, verify_finite):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, mutant)
    assert not _definition_suites_pass()


def _gram_schmidt_by_vector(space, vectors, drop_tol=1e-12):
    # modified Gram-Schmidt taking one vector at a time through every q so far
    mu, cols = space.weights, []
    for v in vectors:
        u = np.asarray(v, dtype=complex).copy()
        original = np.sqrt(np.sum(mu * np.abs(u) ** 2))
        if original == 0.0:
            continue
        for q in cols:
            u -= np.sum(mu * u * q.conj()) * q
        residual = np.sqrt(max(np.sum(mu * np.abs(u) ** 2).real, 0.0))
        if residual > drop_tol * original:
            cols.append(u / residual)
    return np.stack(cols, axis=1)


def test_weighted_gram_schmidt_matches_vector_at_a_time_loop():
    rng = np.random.default_rng(43)
    for trial in range(300):
        j = int(rng.integers(1, 33))
        m = int(rng.integers(1, 2 * j + 3))
        raw = rng.uniform(0.05, 1.0, j)
        sp = FiniteMeasureSpace(raw / raw.sum() if trial % 4 else np.full(j, 1.0 / j))
        v = rng.standard_normal((m, j)) + 1j * rng.standard_normal((m, j))
        if m > 2 and trial % 2:
            v[1] = 2 * v[0] - 1j * v[m // 2]  # dependent
        if m > 1 and trial % 3 == 0:
            v[m // 3] = 0.0
        if m > 3 and trial % 5 == 0:
            v[-1] = v[0] + 1e-9 * v[1]  # nearly dependent
        vectors = list(v.real if trial % 7 == 0 else v)
        got = weighted_gram_schmidt(sp, vectors)
        want = _gram_schmidt_by_vector(sp, vectors)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_weighted_gram_schmidt_drops_relative_to_each_vector():
    # the residual of the second vector is tiny against its own size, not the first's
    x, y = np.array([1.0, 2.0, 3.0]), np.array([3.0, 0.0, -1.0])
    assert weighted_gram_schmidt(W3, [1e-8 * x, 1e4 * x + 1e-10 * y]).shape == (3, 1)
    assert weighted_gram_schmidt(W3, [1e-8 * x, 1e4 * x + 1e-6 * y]).shape == (3, 2)


def test_weighted_gram_schmidt_refuses_a_norm_that_overflows():
    # the squared norm of 1e200 overflows to inf, and inf <= 1e-12 * inf would call
    # the vector dependent: the overflow is the reason given, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            weighted_gram_schmidt(FiniteMeasureSpace([0.5, 0.5]), [[1e200, 0.0]])


def test_weighted_gram_schmidt_refusals():
    with pytest.raises(ValueError, match="length does not match"):
        weighted_gram_schmidt(W3, [[1.0, 0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="no independent vector"):
        weighted_gram_schmidt(W3, [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="no independent vector"):
        weighted_gram_schmidt(W3, [])


@pytest.mark.parametrize("orthonormalize", [False, True])
def test_mu_dim_refuses_as_weighted_gram_schmidt(orthonormalize):
    # one basis reader: ragged and empty bases get the library's messages
    # on both paths, not numpy's "same shape" or "at least one array"
    with pytest.raises(ValueError, match="^basis vector length does not match the space$"):
        mu_dim(W3, [[1.0, 0.0, 0.0], [1.0, 0.0]], orthonormalize=orthonormalize)
    with pytest.raises(ValueError, match="^spanning set contains no independent vector$"):
        mu_dim(W3, [], orthonormalize=orthonormalize)


def test_non_finite_vectors_are_refused_before_any_arithmetic():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        for bad in (math.nan, math.inf, -math.inf):
            vectors = [[bad, 0.0, 0.0], [0.0, 1.0, 0.0]]
            for call in (lambda: weighted_gram_schmidt(W3, vectors),
                         lambda: mu_dim(W3, vectors, orthonormalize=True),
                         lambda: mu_dim(W3, vectors)):
                with pytest.raises(ValueError, match="^vectors: numbers must be finite"):
                    call()


def test_mu_norm_between_zero_and_operator_norm_for_projectors():
    chi = Partition(3, [list(range(3))])
    p = projector(W3, [0, 1])
    assert mu_norm_sq(p) <= m_chi(p, chi) + 1e-12


def test_mu_dim_projector_range():
    # orthonormal basis of the range of a coordinate projector
    vecs = [np.array([1 / math.sqrt(0.2), 0, 0]), np.array([0, 0, 1 / math.sqrt(0.5)])]
    assert mu_dim(W3, vecs) == pytest.approx(0.7, abs=1e-12)


def test_mu_dim_full_basis_is_one():
    vecs = np.eye(3) / np.sqrt(np.array([0.2, 0.3, 0.5]))[None, :]
    assert mu_dim(W3, list(vecs.T)) == pytest.approx(1.0, abs=1e-12)


def test_mu_dim_uniform_equals_relative_dimension():
    rng = np.random.default_rng(11)
    j, d = 6, 3
    sp = FiniteMeasureSpace([1 / j] * j)
    span = rng.standard_normal((d, j)) + 1j * rng.standard_normal((d, j))
    assert mu_dim(sp, list(span), orthonormalize=True) == pytest.approx(d / j, abs=1e-10)


def test_mu_dim_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="not orthonormal"):
        mu_dim(W3, [np.array([2.0, 0.0, 0.0])])


def test_weighted_gram_schmidt_drops_dependent_vectors():
    v = np.array([1.0, 2.0, 3.0])
    basis = weighted_gram_schmidt(W3, [v, 2 * v, np.array([1.0, 0.0, 0.0])])
    assert basis.shape == (3, 2)
    gram = (basis.conj().T * W3.weights[None, :]) @ basis
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_cyclic_projector_order_one_is_identity():
    sp = FiniteMeasureSpace([0.2, 0.3, 0.5])
    action = CyclicAction(Endomorphism(sp, [0, 1, 2]), 1)
    np.testing.assert_allclose(cyclic_projector(action, 0).entries, np.eye(3), atol=1e-15)


def test_cyclic_projector_swap():
    action = CyclicAction(Endomorphism(U2, [1, 0]), 2)
    p0 = cyclic_projector(action, 0)
    np.testing.assert_allclose(p0.entries, np.full((2, 2), 0.5), atol=1e-15)
    assert mu_norm_sq(p0) == pytest.approx(0.5, abs=1e-12)
    p1 = cyclic_projector(action, 1)
    np.testing.assert_allclose(p1.entries, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)
    assert mu_norm_sq(p1) == pytest.approx(0.5, abs=1e-12)


def test_cyclic_projector_idempotent_self_adjoint():
    from munorm import adjoint, compose
    from munorm.verify_finite import random_cyclic_setup

    action = random_cyclic_setup(np.random.default_rng(2), 3, 2)
    p = cyclic_projector(action, 1)
    np.testing.assert_allclose(compose(p, p).entries, p.entries, atol=1e-12)
    np.testing.assert_allclose(adjoint(p).entries, p.entries, atol=1e-12)


def test_cyclic_action_rejects_wrong_orbit_size():
    sp = FiniteMeasureSpace([0.25] * 4)
    swap_two = Endomorphism(sp, [1, 0, 2, 3])  # one 2-orbit, two fixed points
    with pytest.raises(ValueError, match="not almost free"):
        CyclicAction(swap_two, 2)


@pytest.mark.parametrize("suite", [
    partition_monotone, triangle, homogeneity, left_unitary, right_koopman,
    right_unitary_uniform, right_additivity, left_subadditivity,
    weighted_additivity, lipschitz, submultiplicative, projector_product,
    projector_measure, multiplication, operator_identities, koopman_bridge, finest_markov_route,
])
def test_invariance_properties(suite):
    rng = np.random.default_rng(99)
    for check in suite(rng, 40):
        assert check.passed, f"{check.name}: {check.max_violation} > {check.tolerance}"


def test_a_law_fails_under_a_mutant_and_records_its_trial(monkeypatch):
    from munorm import scale

    compose = verify_finite.compose
    monkeypatch.setattr(verify_finite, "compose", lambda a, b: scale(1.01, compose(a, b)))
    [check] = right_unitary_uniform(np.random.default_rng(5), 6)
    assert check.trials == 6 and not check.passed
    assert set(check.worst) == {"trial", "J"}
    assert type(check.worst["trial"]) is int and 0 <= check.worst["trial"] < 6


def test_a_law_that_returns_too_few_violations_raises():
    from munorm.verify import _per_trial

    @_per_trial(("first", 1.0), ("second", 1.0))
    def short(rng):
        return {"x": rng.random()}, 0.0

    assert short.__name__ == short.__qualname__ == "short"
    with pytest.raises(ValueError, match="shorter"):
        short(np.random.default_rng(0), 3)


def test_group_reports_what_its_members_report_alone():
    from munorm.verify import GROUPS, run_suite

    group = run_suite("invariance-battery", 5, 3)
    alone = [c for member in GROUPS["invariance-battery"] for c in run_suite(member, 5, 3)]
    assert group == alone


def _dense_cyclic_projector(space, action, n):
    # the group average by dense matrix powers of the composition operator
    from munorm import koopman

    q = action.order
    n = int(n) % q
    u = koopman(action.generator).entries
    acc = np.zeros((space.size, space.size), dtype=complex)
    power = np.eye(space.size, dtype=complex)
    r = np.exp(2j * np.pi / q)
    for k in range(q):
        acc += r ** (-n * k) * power
        power = power @ u
    return acc / q


def _shuffled_cyclic_action(rng, q, orbits):
    # orbits of size q on randomly relabelled atoms, with weights constant on orbits
    size = q * orbits
    perm = rng.permutation(size)
    table = np.empty(size, dtype=int)
    for o in range(orbits):
        atoms = perm[o * q:(o + 1) * q]
        table[atoms] = np.roll(atoms, -1)
    raw = rng.uniform(0.2, 1.0, orbits)
    weights = np.empty(size)
    weights[perm] = np.repeat(raw / (raw.sum() * q), q)
    sp = FiniteMeasureSpace(weights)
    return sp, CyclicAction(Endomorphism(sp, table), q)


def test_cyclic_projector_matches_dense_power_sum():
    rng = np.random.default_rng(31)
    for _ in range(320):
        q, orbits = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        sp, action = _shuffled_cyclic_action(rng, q, orbits)
        n = int(rng.integers(-2 * q, 2 * q + 1))
        got = cyclic_projector(action, n).entries
        assert got.tobytes() == _dense_cyclic_projector(sp, action, n).tobytes()


def _orbit_walk_refusal(space, generator, order):
    # the message of the first atom, in index order, whose orbit walk fails
    seen = np.zeros(space.size, dtype=bool)
    for start in range(space.size):
        if seen[start]:
            continue
        j, length = start, 0
        while True:
            seen[j] = True
            length += 1
            j = generator(j)
            if j == start:
                break
            if length > space.size:
                return "generator table does not close into orbits"
        if length != order:
            return (f"action is not almost free: orbit of atom {start} has size {length}, "
                    f"expected {order}")
    return None


def test_cyclic_action_refusals_match_the_orbit_walk():
    rng = np.random.default_rng(32)
    refused = {"close": 0, "free": 0, None: 0}
    for _ in range(300):
        order = int(rng.integers(1, 5))
        free = rng.random() < 0.3  # every cycle of length order
        cyclic = order * int(rng.integers(1, 4)) if free else int(rng.integers(1, 10))
        orphans = int(rng.integers(0, 3)) if rng.random() < 0.4 else 0
        size = cyclic + orphans
        atoms = rng.permutation(size)
        on, off = atoms[:cyclic], atoms[cyclic:]
        table = np.empty(size, dtype=int)
        if free:
            table[on] = on.reshape(-1, order)[:, np.r_[1:order, 0]].ravel()
        else:
            table[on] = on[rng.permutation(cyclic)]
        table[off] = rng.choice(on, orphans)  # orphans have no preimage
        weights = np.full(size, 1e-14)
        weights[on] = (1.0 - orphans * 1e-14) / cyclic
        sp = FiniteMeasureSpace(weights)
        gen = Endomorphism(sp, table)
        want = _orbit_walk_refusal(sp, gen, order)
        if want is None:
            assert CyclicAction(gen, order).order == order
        else:
            with pytest.raises(ValueError) as exc:
                CyclicAction(gen, order)
            assert str(exc.value) == want
        refused["close" if want and "close" in want else "free" if want else None] += 1
    assert min(refused.values()) >= 20, refused


def test_cyclic_action_refusal_messages():
    b = (0.25 - 1e-14) / 2
    sp = FiniteMeasureSpace([1e-14, 0.25, 0.25, 0.25, b, b])
    # atom 0 has no preimage and leads into the 2-cycle (4 5)
    with pytest.raises(ValueError, match="^generator table does not close into orbits$"):
        CyclicAction(Endomorphism(sp, [4, 2, 3, 1, 5, 4]), 3)
    sp = FiniteMeasureSpace([0.25, 0.25, 0.25, 0.125, 0.125])
    with pytest.raises(ValueError, match="orbit of atom 3 has size 2, expected 3"):
        CyclicAction(Endomorphism(sp, [1, 2, 0, 4, 3]), 3)

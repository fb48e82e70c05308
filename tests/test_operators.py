import numpy as np
import pytest

from munorm import (
    Endomorphism,
    FiniteMeasureSpace,
    OperatorMatrix,
    add,
    adjoint,
    compose,
    identity,
    inner,
    koopman,
    multiplication,
    operator_norm,
    projector,
    scale,
    unitarity_defect,
)

U3 = FiniteMeasureSpace([1 / 3] * 3)
W3 = FiniteMeasureSpace([0.2, 0.3, 0.5])


def test_projector_examples():
    np.testing.assert_array_equal(projector(U3, [1]).entries, np.diag([0, 1, 0]).astype(complex))
    np.testing.assert_array_equal(projector(U3, [0, 1, 2]).entries, np.eye(3))
    np.testing.assert_array_equal(projector(U3, []).entries, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="out of range"):
        projector(U3, [3])


def test_multiplication_examples():
    ind = multiplication(W3, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(ind.entries, projector(W3, [0, 2]).entries)
    np.testing.assert_array_equal(multiplication(U3, [2j] * 3).entries, 2j * np.eye(3))
    u2 = FiniteMeasureSpace([0.5, 0.5])
    np.testing.assert_array_equal(multiplication(u2, [1, 1j]).entries, np.diag([1, 1j]))
    with pytest.raises(ValueError, match="length"):
        multiplication(u2, [1.0])


def test_koopman_identity_and_cycle():
    ident = Endomorphism(U3, [0, 1, 2])
    np.testing.assert_array_equal(koopman(ident).entries, np.eye(3))
    cycle = Endomorphism(U3, [1, 2, 0])
    u = koopman(cycle)
    # row j has its 1 at column F(j)
    np.testing.assert_array_equal(u.entries, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert unitarity_defect(u) <= 1e-14


def test_koopman_is_unitary_exactly_for_a_permutation():
    perm = Endomorphism(FiniteMeasureSpace([0.5, 0.25, 0.25]), [0, 2, 1])
    assert unitarity_defect(koopman(perm)) <= 1e-12
    # atom 2 has no preimage but weighs less than the preservation tolerance
    merge = Endomorphism(FiniteMeasureSpace([0.5, 0.5 - 1e-13, 1e-13]), [0, 1, 1])
    assert unitarity_defect(koopman(merge)) == 1.0


def test_koopman_rejects_non_measure_preserving():
    sp = FiniteMeasureSpace([0.25, 0.25, 0.5])
    # F(0)=F(1)=2 forces preimage mass 0.5 at atom 0 or 1 regardless of F(2)
    for target in (0, 1):
        with pytest.raises(ValueError, match="not measure-preserving"):
            Endomorphism(sp, [2, 2, target])


def test_endomorphism_accepts_orphan_atoms_only_below_the_tolerance():
    # atom 5 has no preimage; atoms 3 and 4 map onto atom 3 or 4 and absorb its weight
    for orphan, accepted in ((1e-14, True), (1e-9, False)):
        b = (0.25 - orphan) / 2
        sp = FiniteMeasureSpace([0.25, 0.25, 0.25, b, b, orphan])
        table = [1, 2, 0, 4, 3, 3]
        if accepted:
            endo = Endomorphism(sp, table)
            assert len(set(endo.table.tolist())) < sp.size  # not injective
        else:
            with pytest.raises(ValueError, match="not measure-preserving"):
                Endomorphism(sp, table)


def test_endomorphism_table_entries_go_through_int():
    sp = FiniteMeasureSpace([0.25] * 4)
    want = Endomorphism(sp, [1, 2, 3, 0])
    source = np.array([1, 2, 3, 0])
    for table in (source, source.astype(np.int32), [True, 2, 3, False],
                  (j for j in [1, 2, 3, 0])):
        endo = Endomorphism(sp, table)
        assert endo == want and endo.table.dtype == int
    with pytest.raises(TypeError):  # a float entry is refused, not truncated
        Endomorphism(sp, [1.0, 2.9, 3, 0])
    endo = Endomorphism(sp, source)
    source[0] = 0
    assert endo == want  # the table is copied
    for table in (np.array([[0, 1], [2, 3]]), [[0, 1], [2, 3]]):
        with pytest.raises(TypeError):
            Endomorphism(sp, table)


def test_endomorphism_reports_violated_atom():
    sp = FiniteMeasureSpace([0.25, 0.25, 0.5])
    with pytest.raises(ValueError, match="atom 0"):
        Endomorphism(sp, [2, 2, 0])


def test_operator_norm_examples():
    assert operator_norm(projector(W3, [1, 2])) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(OperatorMatrix(U3, np.zeros((3, 3)))) == 0.0
    u2 = FiniteMeasureSpace([0.5, 0.5])
    assert operator_norm(multiplication(u2, [2, 3])) == pytest.approx(3.0, rel=1e-12)


def test_operator_norm_is_weighted():
    # a rank-1 column matrix: ||W pi_j|| depends on the weights
    w = OperatorMatrix(W3, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    # sup over ||f||=1 of |f_1| * ||e_0|| = sqrt(mu_0) / sqrt(mu_1)
    assert operator_norm(w) == pytest.approx(np.sqrt(0.2 / 0.3), rel=1e-12)


def test_adjoint_pairing_and_projector_self_adjoint():
    rng = np.random.default_rng(5)
    w = OperatorMatrix(W3, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = inner(W3, w.apply(f), g)
    rhs = inner(W3, f, adjoint(w).apply(g))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    p = projector(W3, [0, 2])
    np.testing.assert_allclose(adjoint(p).entries, p.entries, atol=1e-15)


def test_projector_lattice_identities():
    a, b = [0, 1], [1, 2]
    lhs = compose(projector(U3, a), projector(U3, b))
    np.testing.assert_array_equal(lhs.entries, projector(U3, [1]).entries)
    s = add(projector(U3, a), projector(U3, b))
    expected = add(projector(U3, [0, 1, 2]), projector(U3, [1]))
    np.testing.assert_array_equal(s.entries, expected.entries)


def test_algebra_space_mismatch():
    with pytest.raises(ValueError, match="different spaces"):
        add(identity(U3), identity(FiniteMeasureSpace([0.5, 0.25, 0.25])))


def test_scale():
    np.testing.assert_array_equal(scale(2j, identity(U3)).entries, 2j * np.eye(3))


def test_entries_are_immutable():
    w = identity(U3)
    with pytest.raises(ValueError):
        w.entries[0, 0] = 5.0


def test_endomorphism_iterate_and_preimage():
    cycle = Endomorphism(U3, [1, 2, 0])
    assert cycle.iterate(3) == Endomorphism(U3, [0, 1, 2])
    np.testing.assert_array_equal(cycle.preimage([1]), [0])

"""Partition-based operator norm on finite spaces and derived quantities.

For a partition ``chi = {Y_1..Y_J}`` the functional

    m_chi(W) = sum_j mu(Y_j) * ||W pi_{Y_j}||^2

decreases under refinement, so its infimum over all partitions is
attained at the partition into singletons.  There it collapses to the
weighted Frobenius form ``sum_{k,j} mu_k |W_{kj}|^2`` (row-weighted
squared entry mass), which this module uses as the closed form; tests
verify the closed form against ``m_chi`` at the finest partition.

Also here: the dimension of a subspace measured by this norm, and the
averaged projectors of an almost-free cyclic group action.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from . import _LAYERS
from .operators import Endomorphism, OperatorMatrix, _block_norms
from .spaces import FiniteMeasureSpace, Partition

__all__ = list(_LAYERS["norm"])

ORTHONORMALITY_TOL = 1e-10


def m_chi(w: OperatorMatrix, chi: Partition) -> float:
    """Weighted sum of squared block-restricted operator norms.

    The norms ``||W pi_Y||`` come from the kernel of ``operator_norm``;
    the terms are formed in float64 and summed in block order.
    """
    chi._check_space(w.space)
    mu = w.space.weights
    total = 0.0
    for block, g in zip(chi.blocks, _block_norms(w.entries, mu, chi.blocks)):
        total += mu[list(block)].sum() * g ** 2  # the blocks are in range, sorted, unique
    return float(total)


def mu_norm_sq(w: OperatorMatrix) -> float:
    """Exact infimum of ``m_chi`` over all partitions.

    Closed form at the finest partition: ``sum_{k,j} mu_k |W_{kj}|^2``.
    On a uniform space this is ``(1/J) sum |W_{kj}|^2``.
    """
    row_mass = np.sum(np.abs(w.entries) ** 2, axis=1)
    return float(np.sum(w.space.weights * row_mass))


def _basis_rows(space: FiniteMeasureSpace, vectors: Sequence[Sequence[complex]]) -> np.ndarray:
    """The vectors as the rows of a complex array: each of the space's
    length, all finite, at least one."""
    rows = []
    for v in vectors:
        rows.append(np.asarray(v, dtype=complex))
        if rows[-1].shape != (space.size,):
            raise ValueError("basis vector length does not match the space")
    if not rows:
        raise ValueError("spanning set contains no independent vector")
    rows = np.array(rows)
    if not np.isfinite(rows).all():
        raise ValueError("vectors: numbers must be finite")
    return rows


def weighted_gram_schmidt(space: FiniteMeasureSpace,
                          vectors: Sequence[Sequence[complex]]) -> np.ndarray:
    """Orthonormalize a spanning set in the weighted inner product.

    Modified Gram-Schmidt; vectors whose residual drops to 1e-12 times
    their original size or below are discarded as dependent.
    Returns a matrix whose columns are orthonormal.
    """
    mu = space.weights
    rows = _basis_rows(space, vectors)
    original = np.sqrt(np.sum(mu * np.abs(rows) ** 2, axis=1))
    rows = rows[original != 0.0]
    original = original[original != 0.0]
    # right-looking: once row k is q_k, its component leaves every later
    # row at once, so each row meets q_0, q_1, ... in the order the
    # one-vector-at-a-time loop applies them, with the same arithmetic
    cols = []
    for k, u in enumerate(rows):
        residual = np.sqrt(max(np.sum(mu * np.abs(u) ** 2).real, 0.0))
        if residual <= 1e-12 * original[k]:
            continue
        q = u / residual
        cols.append(q)
        rest = rows[k + 1:]
        rest -= np.sum(mu * rest * q.conj(), axis=1)[:, None] * q
    if not cols:
        raise ValueError("spanning set contains no independent vector")
    return np.stack(cols, axis=1)


def mu_dim(space: FiniteMeasureSpace, vectors: Sequence[Sequence[complex]],
           orthonormalize: bool = False) -> float:
    """Dimension of the span of ``vectors`` as measured by the norm.

    Builds the orthogonal projector ``P f = sum_i <f, v_i> v_i`` onto the
    span and returns its squared norm; the value lies in [0, 1].  By
    default the vectors must already be orthonormal in the weighted
    product (within 1e-10); with ``orthonormalize=True`` a spanning set
    is accepted and orthonormalized first (convenience layer).
    """
    if orthonormalize:
        v = weighted_gram_schmidt(space, vectors)
    else:
        v = np.ascontiguousarray(_basis_rows(space, vectors).T)
        gram = (v.conj().T * space.weights[None, :]) @ v
        defect = np.max(np.abs(gram - np.eye(v.shape[1])))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis is not orthonormal in the weighted product (defect {defect:.3e}); "
                "pass orthonormalize=True to accept a spanning set"
            )
    proj = (v @ v.conj().T) * space.weights[None, :]
    return mu_norm_sq(OperatorMatrix(space, proj))


class CyclicAction:
    """An almost-free action of a cyclic group of order q by automorphisms.

    Stored as the generator F_1; F_s is the s-fold iterate.  Almost free
    means every atom orbit has size exactly q.
    """

    __slots__ = ("_order", "_generator")

    def __init__(self, generator: Endomorphism, order: int):
        order = operator.index(order)
        if order < 1:
            raise ValueError("group order must be >= 1")
        # walk each orbit from its least atom, in index order; a walk that has
        # not returned within the space's size never will
        table, size = generator.table.tolist(), generator.space.size
        seen = [False] * size
        for start in range(size):
            if seen[start]:
                continue
            j, length = table[start], 1
            while j != start and length <= size:
                seen[j] = True
                j, length = table[j], length + 1
            if j != start:
                raise ValueError("generator table does not close into orbits")
            if length != order:
                raise ValueError(
                    f"action is not almost free: orbit of atom {start} has size "
                    f"{length}, expected {order}"
                )
        self._order = order
        self._generator = generator

    @property
    def space(self) -> FiniteMeasureSpace:
        return self._generator.space

    @property
    def order(self) -> int:
        return self._order

    @property
    def generator(self) -> Endomorphism:
        return self._generator


def cyclic_projector(action: CyclicAction, n: int) -> OperatorMatrix:
    """Projector onto the weight-n eigenspace of an almost-free cyclic action.

    With ``r = exp(2 pi i / q)`` this is the group average
    ``(1/q) sum_k r^(-n k) U^k`` where U is the composition operator of
    the generator.  It is idempotent, self-adjoint, and its squared norm
    is 1/q for every residue n.
    """
    space = action.space
    q = action.order
    n = operator.index(n) % q
    # U^k has a single 1 per row, at (j, F^k(j)), and the orbits have size
    # q, so the q terms of the average fill distinct entries
    table = action.generator.table
    rows = np.arange(space.size)
    acc = np.zeros((space.size, space.size), dtype=complex)
    image = rows
    r = np.exp(2j * np.pi / q)
    for k in range(q):
        acc[rows, image] += r ** (-n * k)
        image = table[image]
    return OperatorMatrix(space, acc / q)

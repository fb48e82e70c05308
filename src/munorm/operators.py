"""Dense complex matrices acting on a weighted finite space.

The space carries the inner product ``<f, g> = sum_j mu_j f_j conj(g_j)``.
Operators are J x J matrices in the atom basis; the operator norm and the
adjoint are taken with respect to this weighted product.  Row index =
output atom, column index = input atom.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from . import _LAYERS
from .spaces import FiniteMeasureSpace

__all__ = list(_LAYERS["operators"])


class OperatorMatrix:
    """A dense complex operator tied to its measure space."""

    __slots__ = ("_space", "_entries")

    def __init__(self, space: FiniteMeasureSpace, entries):
        arr = np.array(entries, dtype=complex)
        if arr.shape != (space.size, space.size):
            raise ValueError(
                f"entries shape {arr.shape} does not match a space with {space.size} atoms"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        self._space = space
        self._entries = arr

    @property
    def space(self) -> FiniteMeasureSpace:
        return self._space

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"OperatorMatrix(J={self._space.size})"

    def apply(self, f: Sequence[complex]) -> np.ndarray:
        """Apply the operator to a coefficient vector."""
        v = np.asarray(f, dtype=complex)
        if v.shape != (self._space.size,):
            raise ValueError("vector length does not match the space")
        return self._entries @ v


class Endomorphism:
    """A measure-preserving self-map of the atoms, stored as a forward table.

    Preservation means ``mu_j = sum(mu_k for k with F(k) = j)`` for every
    atom j, checked within ``PRESERVATION_TOL`` per atom.  Exact
    preservation with strictly positive weights forces every preimage to
    be nonempty, so F would be a weight-preserving permutation; within
    the tolerance, a map may also leave atoms without a preimage when
    each of them weighs at most ``PRESERVATION_TOL``, and is then not
    injective.  Code that needs a permutation must check for one.
    """

    __slots__ = ("_space", "_table")

    PRESERVATION_TOL = 1e-12

    def __init__(self, space: FiniteMeasureSpace, table: Sequence[int]):
        t = np.array([operator.index(x) for x in table], dtype=int)
        if t.shape != (space.size,):
            raise ValueError(f"map table length {t.size} does not match {space.size} atoms")
        bad = np.nonzero((t < 0) | (t >= space.size))[0]
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"map table sends atom {j} to atom {t[j]}, "
                             f"out of range for {space.size} atoms")
        preimage_mass = np.bincount(t, space.weights, space.size)
        dev = np.abs(preimage_mass - space.weights)
        if np.max(dev) > self.PRESERVATION_TOL:
            j = int(np.argmax(dev))
            raise ValueError(
                "map is not measure-preserving: atom "
                f"{j} has weight {space.weights[j]:.12g} but preimage mass {preimage_mass[j]:.12g}"
            )
        t.setflags(write=False)
        self._space = space
        self._table = t

    @property
    def space(self) -> FiniteMeasureSpace:
        return self._space

    @property
    def table(self) -> np.ndarray:
        return self._table

    def __call__(self, j: int) -> int:
        return int(self._table[self._space.validate_subset([j])[0]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self._space == other._space and np.array_equal(self._table, other._table)

    def __hash__(self) -> int:
        return hash((self._space, self._table.tobytes()))

    def __repr__(self) -> str:
        return f"Endomorphism({self._table.tolist()!r})"

    def iterate(self, n: int) -> "Endomorphism":
        """The n-fold composition F^n, n >= 0."""
        n = operator.index(n)
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        t = np.arange(self._space.size)
        for _ in range(n):
            t = self._table[t]
        return Endomorphism(self._space, t)

    def preimage_mask(self, mask: np.ndarray) -> np.ndarray:
        """Boolean mask of the full preimage of a boolean atom mask."""
        return mask[self._table]

    def preimage(self, subset: Iterable[int]) -> np.ndarray:
        """Sorted indices of the full preimage of a subset."""
        idx = self._space.validate_subset(subset)
        mask = np.zeros(self._space.size, dtype=bool)
        mask[idx] = True
        return np.nonzero(self.preimage_mask(mask))[0]


def _same_space(a: OperatorMatrix, b: OperatorMatrix) -> FiniteMeasureSpace:
    if a.space != b.space:
        raise ValueError("operators live on different spaces")
    return a.space


def projector(space: FiniteMeasureSpace, subset: Iterable[int]) -> OperatorMatrix:
    """Orthogonal projector onto functions supported on ``subset``.

    Diagonal matrix with 1 at the subset indices and 0 elsewhere.
    """
    idx = space.validate_subset(subset)
    diag = np.zeros(space.size)
    diag[idx] = 1.0
    return OperatorMatrix(space, np.diag(diag))


def multiplication(space: FiniteMeasureSpace, g: Sequence[complex]) -> OperatorMatrix:
    """Pointwise multiplication operator ``f -> g * f``, i.e. diag(g)."""
    gv = np.asarray(g, dtype=complex)
    if gv.shape != (space.size,):
        raise ValueError(f"multiplier length {gv.shape} does not match {space.size} atoms")
    return OperatorMatrix(space, np.diag(gv))


def koopman(endo: Endomorphism) -> OperatorMatrix:
    """Composition operator ``f -> f o F`` on the space of a measure-preserving map F.

    The matrix has a single 1 per row: entry (j, F(j)).  It preserves the
    weighted inner product within the map's preservation tolerance, and it
    is unitary exactly when F is a permutation; ``Endomorphism`` also
    accepts maps that are not injective, whose operator is not unitary.
    """
    space = endo.space
    u = np.zeros((space.size, space.size))
    u[np.arange(space.size), endo.table] = 1.0
    return OperatorMatrix(space, u)


def identity(space: FiniteMeasureSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.size))


#: Complex entries of one stack in ``_block_norms`` (256 KB), so that the
#: stacks of a fine partition do not copy all of W at once.
M_CHI_STACK_ENTRIES = 2**14


def _block_norms(entries: np.ndarray, weights: np.ndarray, blocks) -> np.ndarray:
    """Weighted norm ``||W pi_Y||`` of each column block Y: the largest singular
    value of ``D^(1/2) W[:, Y] D_Y^(-1/2)``; blocks of one size share an SVD call."""
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    sigma = np.empty(len(blocks))
    s = np.sqrt(weights)
    for k in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma, ~15 ms cold
        which = np.flatnonzero(sizes == k)
        per_stack = max(1, M_CHI_STACK_ENTRIES // (len(s) * k))
        for lo in range(0, len(which), per_stack):
            part = which[lo:lo + per_stack]
            cols = np.array([blocks[i] for i in part])
            stack = s[:, None, None] * entries[:, cols] / s[cols]
            sigma[part] = np.linalg.svd(stack.transpose(1, 0, 2), compute_uv=False).max(axis=1)
    return sigma


def operator_norm(w: OperatorMatrix) -> float:
    """Operator norm on the weighted space.

    Equals the largest singular value of ``D^(1/2) W D^(-1/2)`` with
    ``D = diag(mu)``, which reduces the weighted problem to the standard
    spectral norm.
    """
    return float(_block_norms(w.entries, w.space.weights, [np.arange(w.space.size)])[0])


def add(w1: OperatorMatrix, w2: OperatorMatrix) -> OperatorMatrix:
    space = _same_space(w1, w2)
    return OperatorMatrix(space, w1.entries + w2.entries)


def scale(lam: complex, w: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(w.space, lam * w.entries)


def compose(w1: OperatorMatrix, w2: OperatorMatrix) -> OperatorMatrix:
    """The product ``w1 w2`` (w2 acts first)."""
    space = _same_space(w1, w2)
    return OperatorMatrix(space, w1.entries @ w2.entries)


def adjoint(w: OperatorMatrix) -> OperatorMatrix:
    """Adjoint w.r.t. the weighted inner product: ``D^(-1) W^H D``."""
    mu = w.space.weights
    return OperatorMatrix(w.space, (w.entries.conj().T * mu[None, :]) / mu[:, None])


def inner(space: FiniteMeasureSpace, f, g) -> complex:
    """Weighted inner product ``sum_j mu_j f_j conj(g_j)``."""
    fv = np.asarray(f, dtype=complex)
    gv = np.asarray(g, dtype=complex)
    if fv.shape != (space.size,) or gv.shape != (space.size,):
        raise ValueError("vector length does not match the space")
    return complex(np.sum(space.weights * fv * gv.conj()))

def vector_norm(space: FiniteMeasureSpace, f) -> float:
    return float(np.sqrt(max(inner(space, f, f).real, 0.0)))


def unitarity_defect(w: OperatorMatrix) -> float:
    """Max-entry deviation of ``W* W`` and ``W W*`` from the identity."""
    eye = np.eye(w.space.size)
    ws = adjoint(w)
    left = np.max(np.abs(compose(ws, w).entries - eye))
    right = np.max(np.abs(compose(w, ws).entries - eye))
    return float(max(left, right))

"""Finite measure spaces, measurable sets as index subsets, and partitions.

Atoms are indexed ``0..J-1``.  Weights are strictly positive and sum to
one, so every atom carries mass and a measurable set is simply a subset
of indices; null sets do not exist and partitions are exact set
partitions.  All values are immutable after construction.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import _LAYERS, WEIGHT_SUM_TOL

__all__ = list(_LAYERS["spaces"])


class FiniteMeasureSpace:
    """A probability space on finitely many atoms.

    Parameters
    ----------
    weights : sequence of float
        Strictly positive atom masses ``mu_0..mu_{J-1}`` summing to 1
        within ``WEIGHT_SUM_TOL``.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Sequence[float]):
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty one-dimensional sequence")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        bad = np.nonzero(w <= 0.0)[0]
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"nonpositive weight {float(w[j])} at atom {j}; all weights must be > 0")
        deviation = abs(float(w.sum()) - 1.0)
        if deviation > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}; deviation is {deviation:.3e}"
            )
        w.setflags(write=False)
        self._weights = w

    @property
    def weights(self) -> np.ndarray:
        """Read-only weight vector."""
        return self._weights

    @property
    def size(self) -> int:
        """Number of atoms J."""
        return int(self._weights.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasureSpace):
            return NotImplemented
        return self.size == other.size and bool(np.array_equal(self._weights, other._weights))

    def __hash__(self) -> int:
        return hash(self._weights.tobytes())

    def __repr__(self) -> str:
        return f"FiniteMeasureSpace({self._weights.tolist()!r})"

    def is_uniform(self) -> bool:
        """Whether all atoms carry the same mass 1/J within 1e-12."""
        return bool(np.max(np.abs(self._weights - 1.0 / self.size)) <= 1e-12)

    def validate_subset(self, subset: Iterable[int]) -> np.ndarray:
        """Canonicalize ``subset`` to a sorted array of unique atom indices.

        Raises ``ValueError`` on out-of-range entries and ``TypeError`` on
        entries that are not integers.
        """
        idx = np.array(sorted(set(map(operator.index, subset))), dtype=int)
        if idx.size and (idx[0] < 0 or idx[-1] >= self.size):
            off = idx[0] if idx[0] < 0 else idx[-1]
            raise ValueError(f"atom index {off} out of range for a space with {self.size} atoms")
        return idx

    def measure(self, subset: Iterable[int]) -> float:
        """Total mass of a subset of atoms."""
        idx = self.validate_subset(subset)
        return float(self._weights[idx].sum())


class Partition:
    """An exact set partition of the atom indices ``0..size-1``.

    Blocks are stored canonically: each block sorted, blocks ordered by
    their smallest element, so equality is structural.
    """

    __slots__ = ("_size", "_blocks")

    def __init__(self, size: int, blocks: Iterable[Iterable[int]]):
        size = operator.index(size)
        if size <= 0:
            raise ValueError("partition universe must be nonempty")
        canon = []
        for b in blocks:
            tb = tuple(sorted(set(map(operator.index, b))))
            if not tb:
                raise ValueError("empty block in partition")
            if tb[0] < 0 or tb[-1] >= size:
                j = tb[0] if tb[0] < 0 else tb[-1]
                raise ValueError(f"atom {j} out of range for universe of size {size}")
            canon.append(tb)
        canon.sort(key=operator.itemgetter(0))
        atoms = list(chain.from_iterable(canon))
        # the atoms are in range, so size distinct ones cover the space
        if len(atoms) != size or len(set(atoms)) != size:
            counts = np.bincount(np.array(atoms, dtype=np.intp), minlength=size)
            if np.any(counts > 1):
                j = int(np.argmax(counts > 1))
                raise ValueError(f"blocks are not disjoint: atom {j} appears more than once")
            j = int(np.argmin(counts))
            raise ValueError(f"blocks do not cover the space: atom {j} is missing")
        self._size = size
        self._blocks = tuple(canon)

    @property
    def size(self) -> int:
        return self._size

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    def _check_space(self, space: FiniteMeasureSpace) -> None:
        """Refuse a space whose atoms are not the universe of this partition."""
        if self._size != space.size:
            raise ValueError(
                f"partition over {self._size} atoms does not match a space with {space.size}")

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self):
        return iter(self._blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._size == other._size and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash((self._size, self._blocks))

    def __repr__(self) -> str:
        return f"Partition({self._size}, {list(map(list, self._blocks))!r})"


def join(chi: Partition, kappa: Partition) -> Partition:
    """Common refinement: all nonempty pairwise intersections of blocks.

    The result is a subpartition of both arguments.
    """
    if chi.size != kappa.size:
        raise ValueError(f"mismatched sizes: {chi.size} vs {kappa.size}")
    blocks = []
    for y in chi.blocks:
        ys = set(y)
        for x in kappa.blocks:
            cap = ys.intersection(x)
            if cap:
                blocks.append(cap)
    return Partition(chi.size, blocks)


def finest_partition(space: FiniteMeasureSpace) -> Partition:
    """The partition into singletons."""
    return Partition(space.size, [(j,) for j in range(space.size)])


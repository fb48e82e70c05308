"""Path entropies: operator entropy, measure entropy, Markov rate.

A multiindex ``j = (j_0..j_N)`` over the blocks of a partition selects
the alternating product ``pi_{X_{j_N}} U ... U pi_{X_{j_0}}`` (rightmost
factor acts first).  The operator entropy at horizon N sums
``-v log v`` over the squared partition norms v of these products; the
measure entropy of a map F does the same with the masses of the
itinerary sets ``F^(-N)(X_{j_N}) cap ... cap X_{j_0}``, computed by
direct preimage intersections, never through matrices.

Natural logarithm throughout; ``0 log 0 = 0`` by explicit branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .operators import Endomorphism, OperatorMatrix, projector, unitarity_defect
from .spaces import FiniteMeasureSpace, Partition

__all__ = [
    "DEFAULT_TERM_CAP",
    "EntropyReport",
    "path_operator",
    "path_mass_table",
    "path_mass_total",
    "quantum_entropy_at",
    "quantum_entropy_rate",
    "quantum_entropy_closed",
    "ks_entropy_at",
    "ks_entropy_rate",
    "ks_path_measure_table",
    "markov_entropy_rate",
]

DEFAULT_TERM_CAP = 10**6

UNITARITY_TOL = 1e-8


def _check_horizon(num_blocks: int, n: int, term_cap: int) -> None:
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    total = num_blocks ** (n + 1)
    if total > term_cap:
        raise CapExceeded(
            f"enumeration needs {total} multiindex terms "
            f"({num_blocks} blocks, horizon {n}); cap is {term_cap}"
        )


def _check_inputs(space: FiniteMeasureSpace, chi: Partition) -> None:
    if chi.size != space.size:
        raise ValueError("partition does not match the space")


def path_operator(u: OperatorMatrix, chi: Partition, digits: Sequence[int]) -> OperatorMatrix:
    """Alternating projector/operator product selected by a multiindex.

    ``digits = (j_0..j_N)`` yields ``pi_{X_{j_N}} U ... U pi_{X_{j_0}}``
    with N copies of U; a single digit gives the bare block projector.
    """
    _check_inputs(u.space, chi)
    digits = [int(d) for d in digits]
    if not digits:
        raise ValueError("multiindex must have at least one digit")
    for d in digits:
        if d < 0 or d >= len(chi.blocks):
            raise ValueError(f"digit {d} out of range for a partition with {len(chi.blocks)} blocks")
    projs = [projector(u.space, b).entries for b in chi.blocks]
    acc = projs[digits[0]]
    for d in digits[1:]:
        acc = projs[d] @ (u.entries @ acc)
    return OperatorMatrix(u.space, acc)


def _walk(roots, step, mass, n_max: int):
    """Depth-first ``(digits, mass)`` for every multiindex of 1..n_max+1 digits.

    ``roots[b]`` is the state of ``(b,)`` and ``step(digits, state, b)``
    that of ``digits + (b,)``.  An exactly zero state is pruned with its
    completions (all of mass 0).  Children go in ascending digit order,
    so each horizon's masses come out in lexicographic order.
    """
    num_blocks = len(roots)
    stack = [((b,), roots[b]) for b in range(num_blocks - 1, -1, -1)]
    while stack:
        digits, state = stack.pop()
        if not state.any():
            continue
        yield digits, mass(digits, state)
        if len(digits) <= n_max:
            for b in range(num_blocks - 1, -1, -1):
                stack.append((digits + (b,), step(digits, state, b)))


def _operator_walk(u: OperatorMatrix, chi: Partition, n_max: int, term_cap: int):
    """Path masses of U for horizons 0..n_max.

    The state of a multiindex is the ``|X_last| x |X_first|`` sub-block of
    its path operator, the only place where that operator is nonzero.
    """
    _check_inputs(u.space, chi)
    _check_horizon(len(chi.blocks), n_max, term_cap)
    blocks = [np.array(b) for b in chi.blocks]
    weights = [u.space.weights[b] for b in blocks]
    # sub[b][a] = U restricted to rows X_b and columns X_a
    sub = [[u.entries[np.ix_(rows, cols)] for cols in blocks] for rows in blocks]
    return _walk(
        [np.eye(len(b)) for b in blocks],
        lambda digits, m, b: sub[b][digits[-1]] @ m,
        lambda digits, m: float(weights[digits[-1]] @ np.sum(np.abs(m) ** 2, axis=1)),
        n_max,
    )


def _entropies(masses, n_max: int) -> list[float]:
    """``-sum v log v`` per horizon 0..n_max over a walk's masses."""
    acc = [0.0] * (n_max + 1)
    for digits, v in masses:
        if v > 0.0:
            acc[len(digits) - 1] -= v * math.log(v)
    return acc


def _table(masses, n: int) -> dict[tuple[int, ...], float]:
    return {digits: v for digits, v in masses if len(digits) == n + 1}


def path_mass_table(u: OperatorMatrix, chi: Partition, n: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> dict[tuple[int, ...], float]:
    """All path masses at horizon n, keyed by multiindex (pruned zeros omitted)."""
    return _table(_operator_walk(u, chi, n, term_cap), n)


def path_mass_total(u: OperatorMatrix, chi: Partition, n: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Sum of all path masses at horizon n.

    For a unitary this equals 1 at every partition and every horizon:
    summing a block digit over its atoms and then over blocks restores
    the full orthonormality relation, so all cross terms cancel.  The
    enumeration is exposed so the identity is checked, not assumed.
    """
    return float(sum(_table(_operator_walk(u, chi, n, term_cap), n).values()))


def quantum_entropy_at(u: OperatorMatrix, chi: Partition, n: int,
                       term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Operator path entropy ``-sum_j v_j log v_j`` at horizon n (N copies of U)."""
    return _entropies(_operator_walk(u, chi, n, term_cap), n)[n]


@dataclass(frozen=True)
class EntropyReport:
    """Per-horizon entropy values and the derived rate estimates.

    ``lengths[i]`` is the path length (number of digits) of ``values[i]``;
    ``rates`` divides by the path length; ``differences`` are the
    successive increments, reported instead of an extrapolated limit.
    ``closed_form`` carries the single-step rate formula when the
    operator admits it (unitary on a uniform space), else None.
    """

    lengths: tuple[int, ...]
    values: tuple[float, ...]
    rates: tuple[float, ...]
    differences: tuple[float, ...]
    closed_form: float | None

    def to_dict(self, log_base: str = "e") -> dict:
        conv = 1.0 if log_base == "e" else 1.0 / math.log(2.0)
        return {
            "lengths": list(self.lengths),
            "values": [v * conv for v in self.values],
            "rates": [r * conv for r in self.rates],
            "differences": [d * conv for d in self.differences],
            "closed_form": None if self.closed_form is None else self.closed_form * conv,
            "unit": "nats" if log_base == "e" else "bits",
        }


def _rate_report(walk, n_max: int, closed: float | None) -> EntropyReport:
    """Values for horizons 0..n_max of ``walk(n_max)`` with rates and differences."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    values = _entropies(walk(n_max), n_max)
    lengths = tuple(range(1, n_max + 2))
    rates = tuple(v / length for v, length in zip(values, lengths))
    diffs = tuple(values[i + 1] - values[i] for i in range(n_max))
    return EntropyReport(lengths, tuple(values), rates, diffs, closed)


def quantum_entropy_rate(u: OperatorMatrix, chi: Partition, n_max: int,
                         term_cap: int = DEFAULT_TERM_CAP) -> EntropyReport:
    """Entropy values for horizons 0..n_max with rates and differences.

    No extrapolation is performed: the successive differences are the
    rate estimate, and convergence is left for the caller to judge.
    """
    try:
        closed = quantum_entropy_closed(u)
    except ValueError:
        closed = None
    return _rate_report(lambda n: _operator_walk(u, chi, n, term_cap), n_max, closed)


def quantum_entropy_closed(u: OperatorMatrix) -> float:
    """Single-step entropy rate of a unitary on a uniform space.

    ``-(1/J) sum_{a,b} |U_ab|^2 log |U_ab|^2`` with the 0 log 0 = 0
    convention.  Requires a uniform space and unitarity within 1e-8.
    """
    if not u.space.is_uniform():
        raise ValueError("closed entropy formula requires a uniform space")
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise ValueError(f"operator is not unitary (defect {defect:.3e} > {UNITARITY_TOL:g})")
    p = np.abs(u.entries) ** 2
    nz = p > 0.0
    return float(-np.sum(p[nz] * np.log(p[nz])) / u.space.size)


def _itinerary_walk(endo: Endomorphism, chi: Partition, n_max: int, term_cap: int):
    """Itinerary-set measures of F for horizons 0..n_max.

    The state of digits (j_0..j_N) is the mask of the intersection of the
    n-step preimages ``F^(-n)(X_{j_n})``; empty intersections are pruned.
    """
    space = endo.space
    _check_inputs(space, chi)
    _check_horizon(len(chi.blocks), n_max, term_cap)
    masks = np.zeros((len(chi.blocks), chi.size), dtype=bool)
    for b, block in enumerate(chi.blocks):
        masks[b, list(block)] = True
    # preimages[s][b] is the mask of the s-step preimage of block b
    preimages = []
    table_s = np.arange(space.size)
    for _ in range(n_max + 1):
        preimages.append(masks[:, table_s])
        table_s = endo.table[table_s]
    return _walk(
        preimages[0],
        lambda digits, mask, b: mask & preimages[len(digits)][b],
        lambda digits, mask: float(space.weights[mask].sum()),
        n_max,
    )


def ks_entropy_at(endo: Endomorphism, chi: Partition, n: int,
                  term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Measure entropy of the itinerary sets of F at horizon n."""
    return _entropies(_itinerary_walk(endo, chi, n, term_cap), n)[n]


def ks_entropy_rate(endo: Endomorphism, chi: Partition, n_max: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> EntropyReport:
    """``quantum_entropy_rate`` for the itinerary sets of F; no closed form."""
    return _rate_report(lambda n: _itinerary_walk(endo, chi, n, term_cap), n_max, None)


def ks_path_measure_table(endo: Endomorphism, chi: Partition, n: int,
                          term_cap: int = DEFAULT_TERM_CAP) -> dict[tuple[int, ...], float]:
    """Itinerary-set measures keyed by multiindex (empty sets omitted)."""
    return _table(_itinerary_walk(endo, chi, n, term_cap), n)


def markov_entropy_rate(p, nu) -> float:
    """Entropy rate ``-sum_{j,k} nu_j P_jk log P_jk`` of a Markov chain.

    ``p`` must be row-stochastic within 1e-10 and ``nu`` a probability
    vector; ``nu`` is used as given (typically a stationary distribution).
    """
    pm = np.asarray(p, dtype=float)
    if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(pm < -1e-12):
        raise ValueError("transition matrix has a negative entry")
    row_dev = np.max(np.abs(pm.sum(axis=1) - 1.0))
    if row_dev > 1e-10:
        raise ValueError(f"rows must sum to 1 within 1e-10; worst deviation {row_dev:.3e}")
    nv = np.asarray(nu, dtype=float)
    if nv.shape != (pm.shape[0],):
        raise ValueError("distribution length does not match the matrix")
    if np.any(nv < -1e-12) or abs(float(nv.sum()) - 1.0) > 1e-9:
        raise ValueError("nu must be a probability distribution")
    pm = np.clip(pm, 0.0, None)
    nz = pm > 0.0
    terms = np.zeros_like(pm)
    terms[nz] = pm[nz] * np.log(pm[nz])
    return float(-np.sum(nv * terms.sum(axis=1)))

"""Path entropies: operator entropy, measure entropy, Markov rate.

A multiindex ``j = (j_0..j_N)`` over the blocks of a partition selects
the alternating product ``pi_{X_{j_N}} U ... U pi_{X_{j_0}}`` (rightmost
factor acts first).  The operator entropy at horizon N sums
``-v log v`` over the squared partition norms v of these products; the
measure entropy of a map F does the same with the masses of the
itinerary sets ``F^(-N)(X_{j_N}) cap ... cap X_{j_0}``, computed by
refining a cell label per atom along its orbit, never through matrices.

Natural logarithm throughout; ``0 log 0 = 0`` by explicit branch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DEFAULT_TERM_CAP, CapExceeded

# Only the dense oracle and the closed form call into operators, and they
# import it when called, so markov-rate loads neither operators nor spaces.
if TYPE_CHECKING:
    from .operators import Endomorphism, OperatorMatrix
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

UNITARITY_TOL = 1e-8


def _check_horizon(num_blocks: int, n: int, term_cap: int) -> None:
    n, term_cap = operator.index(n), operator.index(term_cap)
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    if term_cap < 1:
        raise ValueError(f"term cap must be at least 1, got {term_cap}")
    bits = (n + 1) * (num_blocks.bit_length() - 1)  # 2^bits <= the count K^(n+1)
    if bits > term_cap.bit_length() or num_blocks ** (n + 1) > term_cap:  # no huge power
        need = num_blocks ** (n + 1) if bits <= 64 else f"{num_blocks}^{n + 1}"
        raise CapExceeded(f"enumeration needs {need} multiindex terms "
                          f"({num_blocks} blocks, horizon {n}); cap is {term_cap}")


def _check_inputs(space: FiniteMeasureSpace, chi: Partition) -> None:
    if chi.size != space.size:
        raise ValueError(f"partition over {chi.size} atoms does not match a space with {space.size}")


def path_operator(u: OperatorMatrix, chi: Partition, digits: Sequence[int]) -> OperatorMatrix:
    """Alternating projector/operator product selected by a multiindex.

    ``digits = (j_0..j_N)`` yields ``pi_{X_{j_N}} U ... U pi_{X_{j_0}}``
    with N copies of U; a single digit gives the bare block projector.
    """
    from .operators import OperatorMatrix, projector

    _check_inputs(u.space, chi)
    digits = [operator.index(d) for d in digits]
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


#: Complex entries one batched operator step may produce (4 MB).  A
#: larger frontier is split into chunks that are walked depth-first, so
#: a step stays within this bound whatever the horizon; the pending
#: chunks hold at most about as much again per level below the split.
FRONTIER_ENTRIES = 2**18


def _operator_levels(u: OperatorMatrix, chi: Partition, n_max: int, term_cap: int):
    """Path masses of U for horizons 0..n_max as ``(digits, masses)`` blocks.

    The state of a multiindex is the ``|X_last| x |X_first|`` sub-block of
    its path operator, the only place where that operator is nonzero.  A
    frontier is the digit rows of some states of one level and a list of
    parts ``(b, F)``: the states with last block b sit side by side in
    the columns of F, each taking ``|X_first|`` of them, in the order of
    the digit rows.  One product ``U[:, X_b] @ F``, its rows grouped
    block by block, steps a part to every next block.  Only exactly zero
    states are pruned: a mass can underflow to 0.0 while the state's
    completions do not vanish.
    """
    _check_inputs(u.space, chi)
    num_blocks = len(chi.blocks)
    _check_horizon(num_blocks, n_max, term_cap)
    blocks = [np.array(b) for b in chi.blocks]
    sizes = np.array([len(b) for b in blocks])
    starts = np.concatenate(([0], np.cumsum(sizes)))
    bounds = list(zip(starts[:-1], starts[1:]))
    order = np.concatenate(blocks)
    # cols[b] = U restricted to columns X_b, rows grouped block by block
    grouped = u.entries[order]
    cols = [grouped[:, b] for b in blocks]
    weights = u.space.weights[order]
    digits = np.arange(num_blocks)[:, None]
    yield digits, np.add.reduceat(weights, starts[:-1])
    eye = np.eye(sizes.max(), dtype=complex)
    chunk = max(1, FRONTIER_ENTRIES // (chi.size * sizes.max()))
    stack = [(digits, [(b, eye[:size, :size]) for b, size in enumerate(sizes)])]
    while stack:
        digits, parts = stack.pop()
        if digits.shape[1] > n_max:
            continue
        widths = sizes[digits[:, 0]]
        if len(digits) > chunk:
            stack.extend(reversed(_split(digits, parts, widths, chunk)))
            continue
        ends = np.cumsum(widths)
        offsets = ends - widths
        g = np.empty((chi.size, ends[-1]), dtype=complex)
        col = 0
        for b, f in parts:
            np.matmul(cols[b], f, out=g[:, col:col + f.shape[1]])
            col += f.shape[1]
        g2 = g.view(np.float64)  # re, im side by side
        # masses[c, i]: state i stepped to block c
        masses = np.array([weights[lo:hi] @ (g2[lo:hi] * g2[lo:hi]) for lo, hi in bounds])
        masses = np.add.reduceat(masses, 2 * offsets, axis=1)
        keep = masses > 0.0
        if not keep.all():
            keep = np.logical_or.reduceat(
                np.logical_or.reduceat(g != 0.0, offsets, axis=1), starts[:-1], axis=0)
        parts = []
        for c, (lo, hi) in enumerate(bounds):
            if keep[c].all():
                parts.append((c, g[lo:hi]))
            elif keep[c].any():
                parts.append((c, g[lo:hi, np.repeat(keep[c], widths)]))
        step, state = np.nonzero(keep)
        digits = np.column_stack((digits[state], step))
        yield digits, masses[keep]
        if parts:
            stack.append((digits, parts))


def _split(digits: np.ndarray, parts, widths: np.ndarray, chunk: int) -> list:
    """A frontier cut, in order, into frontiers of at most ``chunk`` states."""
    ends = np.cumsum(widths)
    pieces = [(digits[lo:lo + chunk], []) for lo in range(0, len(digits), chunk)]
    first = col = 0  # first state and first column of the part
    for b, f in parts:
        stop = int(np.searchsorted(ends, col + f.shape[1])) + 1
        for p in range(first // chunk, (stop - 1) // chunk + 1):
            lo, hi = max(first, p * chunk), min(stop, (p + 1) * chunk)
            pieces[p][1].append((b, f[:, ends[lo] - widths[lo] - col:ends[hi - 1] - col]))
        first, col = stop, col + f.shape[1]
    return pieces


def _entropies(levels, n_max: int) -> list[float]:
    """``-sum v log v`` per horizon 0..n_max over a walk's ``(digits, masses)`` blocks."""
    acc = [0.0] * (operator.index(n_max) + 1)
    for digits, masses in levels:
        v = masses[masses > 0.0]
        acc[digits.shape[1] - 1] -= float(v @ np.log(v))
    return acc


def _table(levels, n: int) -> dict[tuple[int, ...], float]:
    table = {}
    for digits, masses in levels:
        if digits.shape[1] == n + 1:
            table.update(zip(map(tuple, digits.tolist()), masses.tolist()))
    return table


def path_mass_table(u: OperatorMatrix, chi: Partition, n: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> dict[tuple[int, ...], float]:
    """All path masses at horizon n, keyed by multiindex (pruned zeros omitted)."""
    return _table(_operator_levels(u, chi, n, term_cap), n)


def path_mass_total(u: OperatorMatrix, chi: Partition, n: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Sum of all path masses at horizon n.

    For a unitary this equals 1 at every partition and every horizon:
    summing a block digit over its atoms and then over blocks restores
    the full orthonormality relation, so all cross terms cancel.  The
    enumeration is exposed so the identity is checked, not assumed.
    """
    return float(sum(_table(_operator_levels(u, chi, n, term_cap), n).values()))


def quantum_entropy_at(u: OperatorMatrix, chi: Partition, n: int,
                       term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Operator path entropy ``-sum_j v_j log v_j`` at horizon n (N copies of U)."""
    return _entropies(_operator_levels(u, chi, n, term_cap), n)[n]


def log_unit(log_base: str) -> tuple[float, str]:
    """Factor that takes a value in nats to ``log_base`` ("e" or "2"), and the unit's name."""
    if log_base not in ("e", "2"):
        raise ValueError(f"log base must be 'e' or '2', got {log_base!r}")
    return (1.0, "nats") if log_base == "e" else (1.0 / math.log(2.0), "bits")


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
        conv, unit = log_unit(log_base)
        return {
            "lengths": list(self.lengths),
            "values": [v * conv for v in self.values],
            "rates": [r * conv for r in self.rates],
            "differences": [d * conv for d in self.differences],
            "closed_form": None if self.closed_form is None else self.closed_form * conv,
            "unit": unit,
        }


def _rate_report(levels, n_max: int, closed: float | None) -> EntropyReport:
    """Values for horizons 0..n_max of a walk's ``levels`` with rates and differences."""
    if operator.index(n_max) < 2:
        raise ValueError("n_max must be at least 2")
    values = _entropies(levels, n_max)
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
    return _rate_report(_operator_levels(u, chi, n_max, term_cap), n_max, closed)


def quantum_entropy_closed(u: OperatorMatrix) -> float:
    """Single-step entropy rate of a unitary on a uniform space.

    ``-(1/J) sum_{a,b} |U_ab|^2 log |U_ab|^2`` with the 0 log 0 = 0
    convention.  Requires a uniform space and unitarity within 1e-8.
    """
    from .operators import unitarity_defect

    if not u.space.is_uniform():
        raise ValueError("closed entropy formula requires a uniform space")
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise ValueError(f"operator is not unitary (defect {defect:.3e} > {UNITARITY_TOL:g})")
    p = np.abs(u.entries) ** 2
    nz = p > 0.0
    return float(-np.sum(p[nz] * np.log(p[nz])) / u.space.size)


def _itinerary_levels(endo: Endomorphism, chi: Partition, n_max: int, term_cap: int):
    """Itinerary-set measures of F for horizons 0..n_max as ``(digits, masses)`` blocks.

    The itinerary sets of one horizon partition the space, so a level is
    one cell label per atom, refined by the block of ``F^n(x)``.  The
    refined codes ``cell*K + label`` are below ``ncells*K``, so a
    presence table of that length numbers the cells in ascending code
    order, which is lexicographic order of their digits; empty sets
    never get a label.
    """
    space = endo.space
    _check_inputs(space, chi)
    num_blocks = len(chi.blocks)
    _check_horizon(num_blocks, n_max, term_cap)
    label = np.empty(chi.size, dtype=np.intp)
    for b, block in enumerate(chi.blocks):
        label[list(block)] = b
    cell = np.zeros(chi.size, dtype=np.intp)
    digits = np.zeros((1, 0), dtype=np.intp)
    orbit = np.arange(chi.size)
    for _ in range(n_max + 1):
        refined = cell * num_blocks + label[orbit]
        present = np.zeros(len(digits) * num_blocks, dtype=bool)
        present[refined] = True
        codes = np.flatnonzero(present)
        cell = (np.cumsum(present) - 1)[refined]
        digits = np.column_stack((digits[codes // num_blocks], codes % num_blocks))
        yield digits, np.bincount(cell, space.weights, len(codes))
        orbit = endo.table[orbit]


def ks_entropy_at(endo: Endomorphism, chi: Partition, n: int,
                  term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Measure entropy of the itinerary sets of F at horizon n."""
    return _entropies(_itinerary_levels(endo, chi, n, term_cap), n)[n]


def ks_entropy_rate(endo: Endomorphism, chi: Partition, n_max: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> EntropyReport:
    """``quantum_entropy_rate`` for the itinerary sets of F; no closed form."""
    return _rate_report(_itinerary_levels(endo, chi, n_max, term_cap), n_max, None)


def ks_path_measure_table(endo: Endomorphism, chi: Partition, n: int,
                          term_cap: int = DEFAULT_TERM_CAP) -> dict[tuple[int, ...], float]:
    """Itinerary-set measures keyed by multiindex (empty sets omitted)."""
    return _table(_itinerary_levels(endo, chi, n, term_cap), n)


def _real(values, what: str) -> np.ndarray:
    """``values`` as a float array; a nonzero imaginary part is refused, not dropped."""
    a = np.asarray(values)
    if np.iscomplexobj(a):
        if np.any(a.imag):
            raise ValueError(f"{what} must be real")
        a = a.real
    return np.asarray(a, dtype=float)


def markov_entropy_rate(p, nu) -> float:
    """Entropy rate ``-sum_{j,k} nu_j P_jk log P_jk`` of a Markov chain.

    ``p`` must be real and row-stochastic within 1e-10 and ``nu`` a real
    probability vector; ``nu`` is used as given (typically a stationary
    distribution).
    """
    pm = _real(p, "transition matrix")
    if not np.isfinite(pm).all():
        raise ValueError("p: numbers must be finite")
    if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(pm < -1e-12):
        raise ValueError("transition matrix has a negative entry")
    row_dev = np.max(np.abs(pm.sum(axis=1) - 1.0))
    if row_dev > 1e-10:
        raise ValueError(f"rows must sum to 1 within 1e-10; worst deviation {row_dev:.3e}")
    nv = _real(nu, "nu")
    if not np.isfinite(nv).all():
        raise ValueError("nu: numbers must be finite")
    if nv.shape != (pm.shape[0],):
        raise ValueError("distribution length does not match the matrix")
    if np.any(nv < -1e-12) or abs(float(nv.sum()) - 1.0) > 1e-9:
        raise ValueError("nu must be a probability distribution")
    pm = np.clip(pm, 0.0, None)
    nz = pm > 0.0
    terms = np.zeros_like(pm)
    terms[nz] = pm[nz] * np.log(pm[nz])
    return float(-np.sum(nv * terms.sum(axis=1)))

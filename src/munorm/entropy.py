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

import operator
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _LAYERS, DEFAULT_TERM_CAP, WEIGHT_SUM_TOL, CapExceeded

# Only the closed form calls into operators, and it imports it when
# called, so markov-rate loads neither operators nor spaces.
if TYPE_CHECKING:
    from .operators import Endomorphism, OperatorMatrix
    from .spaces import Partition

__all__ = list(_LAYERS["entropy"])

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


def _labels(chi: Partition) -> np.ndarray:
    label = np.empty(chi.size, dtype=np.intp)
    for b, block in enumerate(chi.blocks):
        label[list(block)] = b
    return label


#: Complex entries one batched operator step may produce (4 MB).  A
#: larger frontier is split into chunks that are walked depth-first, so
#: a step stays within this bound whatever the horizon; the pending
#: chunks hold at most about as much again per level below the split.
FRONTIER_ENTRIES = 2**18


def _operator_levels(u: OperatorMatrix, chi: Partition, n_max: int, term_cap: int,
                     rows: bool = False):
    """Path masses of U for horizons 0..n_max as ``(depth, masses, link)`` blocks.

    The state of a multiindex is the ``|X_last| x |X_first|`` sub-block of
    its path operator, the only place where that operator is nonzero.  A
    frontier is the depth of some states of one level, their widths
    ``|X_first|``, their ``link`` (see ``_rows``) and a list of parts
    ``(b, F)``: the states with last block b sit side by side in the
    columns of F, each taking its width of them, in state order.  One
    product ``U[:, X_b] @ F``, its rows grouped block by block, steps a
    part to every next block.  Only exactly zero states are pruned: a
    mass can underflow to 0.0 while the state's completions do not
    vanish.  Links are kept only with ``rows``; without it a level costs
    nothing per digit of depth.
    """
    chi._check_space(u.space)
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
    link = (None, np.arange(num_blocks)) if rows else None
    yield 1, np.add.reduceat(weights, starts[:-1]), link
    eye = np.eye(sizes.max(), dtype=complex)
    chunk = max(1, FRONTIER_ENTRIES // (chi.size * sizes.max()))
    stack = [(1, link, sizes, [(b, eye[:size, :size]) for b, size in enumerate(sizes)])]
    while stack:
        depth, link, widths, parts = stack.pop()
        if depth > n_max:
            continue
        if len(widths) > chunk:
            stack.extend(reversed(_split(depth, link, widths, parts, chunk)))
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
        depth += 1
        link = (link, state * num_blocks + step) if rows else None
        yield depth, masses[keep], link
        if parts:
            stack.append((depth, link, widths[state], parts))


def _split(depth: int, link, widths: np.ndarray, parts, chunk: int) -> list:
    """A frontier cut, in order, into frontiers of at most ``chunk`` states."""
    ends = np.cumsum(widths)
    pieces = []
    for lo in range(0, len(widths), chunk):
        cut = None if link is None else (link[0], link[1][lo:lo + chunk])
        pieces.append((depth, cut, widths[lo:lo + chunk], []))
    first = col = 0  # first state and first column of the part
    for b, f in parts:
        stop = int(np.searchsorted(ends, col + f.shape[1])) + 1
        for p in range(first // chunk, (stop - 1) // chunk + 1):
            lo, hi = max(first, p * chunk), min(stop, (p + 1) * chunk)
            pieces[p][3].append((b, f[:, ends[lo] - widths[lo] - col:ends[hi - 1] - col]))
        first, col = stop, col + f.shape[1]
    return pieces


def _rows(link, depth: int, num_blocks: int) -> np.ndarray:
    """Digit rows of the states of one level from its link ``(parent link, codes)``.

    A state's code is ``parent * K + last digit``, where parent is its
    index in the level before (the first level's parent is the one empty
    row).  So the rows of a level cost one gather per digit, paid only
    for the level that is read.
    """
    rows = np.empty((len(link[1]), depth), dtype=np.intp)
    index = slice(None)
    for d in range(depth - 1, -1, -1):
        link, codes = link
        codes = codes[index]
        rows[:, d] = codes % num_blocks
        index = codes // num_blocks
    return rows


def _xlogx(v: np.ndarray) -> float:
    """``sum v log v`` over the positive entries of ``v``: products, then numpy's own
    sum, so no BLAS reduction, whose order follows its thread count, rounds it."""
    v = v[v > 0.0]
    return float(np.sum(v * np.log(v)))


def _entropies(levels, n_max: int) -> list[float]:
    """``-sum v log v`` per horizon 0..n_max over a walk's ``(depth, masses, link)`` blocks.

    The list is made after the walk, whose first step checks the horizon
    and the cap, so a refused horizon allocates nothing per horizon.
    """
    acc = {}
    for depth, masses, _ in levels:
        acc[depth] = acc.get(depth, 0.0) - _xlogx(masses)
    return [acc.get(depth, 0.0) for depth in range(1, n_max + 2)]


def _table(levels, n: int, num_blocks: int) -> dict[tuple[int, ...], float]:
    table = {}
    for depth, masses, link in levels:
        if depth == n + 1:
            table.update(zip(map(tuple, _rows(link, depth, num_blocks).tolist()), masses.tolist()))
    return table


def path_mass_table(u: OperatorMatrix, chi: Partition, n: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> dict[tuple[int, ...], float]:
    """All path masses at horizon n, keyed by multiindex (pruned zeros omitted)."""
    return _table(_operator_levels(u, chi, n, term_cap, rows=True), n, len(chi.blocks))


def quantum_entropy_at(u: OperatorMatrix, chi: Partition, n: int,
                       term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Operator path entropy ``-sum_j v_j log v_j`` at horizon n (N copies of U)."""
    return _entropies(_operator_levels(u, chi, n, term_cap), n)[n]


class EntropyReport(NamedTuple):
    """Per-horizon entropy values in nats and the derived rate estimates.

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


def _rate_report(levels, n_max: int) -> EntropyReport:
    """Values for horizons 0..n_max of a walk's ``levels`` with rates and differences."""
    if operator.index(n_max) < 2:
        raise ValueError("n_max must be at least 2")
    values = _entropies(levels, n_max)
    lengths = tuple(range(1, n_max + 2))
    rates = tuple(v / length for v, length in zip(values, lengths))
    diffs = tuple(values[i + 1] - values[i] for i in range(n_max))
    return EntropyReport(lengths, tuple(values), rates, diffs, None)


def quantum_entropy_rate(u: OperatorMatrix, chi: Partition, n_max: int,
                         term_cap: int = DEFAULT_TERM_CAP) -> EntropyReport:
    """Entropy values for horizons 0..n_max with rates and differences.

    No extrapolation is performed: the successive differences are the
    rate estimate, and convergence is left for the caller to judge.
    """
    report = _rate_report(_operator_levels(u, chi, n_max, term_cap), n_max)
    try:  # after the walk, whose checks refuse bad input before this O(J^3) work
        return report._replace(closed_form=quantum_entropy_closed(u))
    except ValueError:
        return report


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
    return -_xlogx(np.abs(u.entries) ** 2) / u.space.size


def _itinerary_levels(endo: Endomorphism, chi: Partition, n_max: int, term_cap: int,
                      rows: bool = False):
    """Itinerary-set measures of F for horizons 0..n_max as ``(depth, masses, link)`` blocks.

    The itinerary sets of one horizon partition the space, so a level is
    one cell label per atom, refined by the block of ``F^n(x)``.  The
    refined codes ``cell*K + label`` are below ``ncells*K``, so a
    presence table of that length numbers the cells in ascending code
    order, which is lexicographic order of their digits; empty sets
    never get a label.  Links (see ``_rows``) are kept only with ``rows``.
    """
    space = endo.space
    chi._check_space(space)
    num_blocks = len(chi.blocks)
    _check_horizon(num_blocks, n_max, term_cap)
    label = _labels(chi)
    cell = np.zeros(chi.size, dtype=np.intp)
    ncells, link = 1, None
    orbit = np.arange(chi.size)
    for depth in range(1, n_max + 2):
        refined = cell * num_blocks + label[orbit]
        present = np.zeros(ncells * num_blocks, dtype=bool)
        present[refined] = True
        codes = np.flatnonzero(present)
        cell = (np.cumsum(present) - 1)[refined]
        ncells = len(codes)
        if rows:
            link = (link, codes)
        yield depth, np.bincount(cell, space.weights, ncells), link
        orbit = endo.table[orbit]


def ks_entropy_at(endo: Endomorphism, chi: Partition, n: int,
                  term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Measure entropy of the itinerary sets of F at horizon n."""
    return _entropies(_itinerary_levels(endo, chi, n, term_cap), n)[n]


def ks_entropy_rate(endo: Endomorphism, chi: Partition, n_max: int,
                    term_cap: int = DEFAULT_TERM_CAP) -> EntropyReport:
    """``quantum_entropy_rate`` for the itinerary sets of F; no closed form."""
    return _rate_report(_itinerary_levels(endo, chi, n_max, term_cap), n_max)


def ks_path_measure_table(endo: Endomorphism, chi: Partition, n: int,
                          term_cap: int = DEFAULT_TERM_CAP) -> dict[tuple[int, ...], float]:
    """Itinerary-set measures keyed by multiindex (empty sets omitted)."""
    return _table(_itinerary_levels(endo, chi, n, term_cap, rows=True), n, len(chi.blocks))


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
    probability vector summing to 1 within ``WEIGHT_SUM_TOL``; ``nu`` is
    used as given (typically a stationary distribution).
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
    if np.any(nv < -1e-12) or abs(float(nv.sum()) - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError("nu must be a probability distribution")
    pm = np.clip(pm, 0.0, None)
    nz = pm > 0.0
    terms = np.zeros_like(pm)
    terms[nz] = pm[nz] * np.log(pm[nz])
    return float(-np.sum(nv * terms.sum(axis=1)))

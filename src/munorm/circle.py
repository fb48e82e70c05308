"""Operators on the circle through their Fourier coefficients.

One class covers the computable slice of the diagonal-type algebra:
banded bi-infinite matrices whose rows ``l < 0`` follow one periodic
pattern and rows ``l >= 0`` another, plus a finite perturbation.  A
convolution (``dt_from_seq``) is the band-0 case, a multiplier
(``dt_from_multiplier``) a one-pattern Toeplitz case.  The diagonal sups
``c_k = sup_j |W_{k+j,j}|`` give the algebra norm ``sum_k c_k``; the row
symbols ``w_l(a) = sum_j W_{l,j} e^{i(l-j)a}`` give each tail a density
``(1/tau) sum_l |w_l(a)|^2``, and the circle average of the larger one
is the squared partition norm.  Perturbations count toward the sups but
not toward the limsup-based density and average trace.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import reduce
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import _LAYERS
from .errors import CapExceeded

__all__ = list(_LAYERS["circle"])

#: Caps on the period and band radius of every operator, so that composed
#: operators cannot grow without bound.
MAX_TAU = MAX_BAND = 128


#: The phase table last kept, as ``(grid bytes, band, table)``; see ``_phases``.
_PHASES: tuple = (None, -1, None)


def _periodic_run(period: np.ndarray, start: int, count: int) -> np.ndarray:
    """``period[(start + i) % p]`` for ``i = 0..count-1``, along the first axis."""
    p = len(period)
    s = start % p
    reps = (s + count - 1) // p + 1
    return np.tile(period, (reps,) + (1,) * (period.ndim - 1))[s:s + count]


# ---------------------------------------------------------------------------
# Band operators with two periodic tails


def _pattern(tau: int, band: int, coeffs, side: str = "") -> tuple[int, np.ndarray]:
    """A validated periodic pattern ``(tau, coeffs)`` of band radius ``band``."""
    tau = operator.index(tau)
    if tau < 1:
        raise ValueError(f"{side}period tau must be >= 1")
    if tau > MAX_TAU:
        raise CapExceeded(f"{side}period {tau} exceeds the cap {MAX_TAU}")
    c = np.array(coeffs, dtype=complex)
    if c.shape != (tau, 2 * band + 1):
        raise ValueError(f"{side}coeffs shape {c.shape} does not match tau={tau}, "
                         f"band={band} (expected {(tau, 2 * band + 1)})")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    c.setflags(write=False)
    return tau, c


class PeriodicBandOperator:
    """Banded bi-infinite matrix with two periodic tails and a finite perturbation.

    ``coeffs[l % tau, d + band]`` holds ``W_{l, l+d}`` for rows ``l >= 0``
    and offsets ``|d| <= band``; rows ``l < 0`` read ``left = (tau_L,
    coeffs_L)`` the same way, so the seam is row 0.  A ``left`` equal to
    the right pattern, or none, keeps one ``tau``-periodic pattern.  The
    perturbation is a finite list of additive corrections ``(row, col,
    delta)`` at absolute positions.  Periods and bands are capped at
    ``MAX_TAU`` and ``MAX_BAND``.
    """

    __slots__ = ("_tau", "_band", "_coeffs", "_left", "_perturbation")

    def __init__(self, tau: int, band: int, coeffs,
                 perturbation: Iterable[tuple[int, int, complex]] | None = None,
                 left: tuple[int, object] | None = None):
        band = operator.index(band)
        if band < 0:
            raise ValueError("band radius must be >= 0")
        if band > MAX_BAND:
            raise CapExceeded(f"band radius {band} exceeds the cap {MAX_BAND}")
        self._tau, self._coeffs = _pattern(tau, band, coeffs)
        self._band = band
        if left is not None:
            left = _pattern(left[0], band, left[1], side="left ")
            if left[0] == self._tau and np.array_equal(left[1], self._coeffs):
                left = None
        self._left = left
        pert: dict[tuple[int, int], complex] = {}
        for row, col, delta in perturbation or ():  # summed per position from 0.0
            key = (operator.index(row), operator.index(col))
            pert[key] = pert.get(key, 0.0 + 0.0j) + complex(delta)
        if not all(map(cmath.isfinite, pert.values())):
            raise ValueError("perturbation values must be finite")
        self._perturbation = {k: v for k, v in pert.items() if v != 0}

    @property
    def tau(self) -> int:
        return self._tau

    @property
    def band(self) -> int:
        return self._band

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def left(self) -> tuple[int, np.ndarray]:
        """The pattern ``(tau_L, coeffs_L)`` of rows ``l < 0``."""
        return self._left or (self._tau, self._coeffs)

    @property
    def tails(self) -> tuple[tuple[int, np.ndarray], ...]:
        """The distinct patterns, left first: one when the tails are equal."""
        return ((self._left,) if self._left else ()) + ((self._tau, self._coeffs),)

    @property
    def perturbation(self) -> tuple[tuple[int, int, complex], ...]:
        return tuple((r, c, v) for (r, c), v in sorted(self._perturbation.items()))

    def __repr__(self) -> str:
        left = "" if self._left is None else f"tau_left={self._left[0]}, "
        return (f"PeriodicBandOperator(tau={self._tau}, {left}band={self._band}, "
                f"perturbed={len(self._perturbation)})")

    def _tail(self, row: int) -> tuple[int, np.ndarray]:
        return self.left if row < 0 else (self._tau, self._coeffs)

    def base_entry(self, row: int, col: int) -> complex:
        """Entry of the unperturbed two-tail part."""
        row, col = operator.index(row), operator.index(col)
        tau, coeffs = self._tail(row)
        d = col - row
        if abs(d) > self._band:
            return 0.0 + 0.0j
        return complex(coeffs[row % tau, d + self._band])

    def entry(self, row: int, col: int) -> complex:
        row, col = operator.index(row), operator.index(col)
        return self.base_entry(row, col) + self._perturbation.get((row, col), 0.0)

    def majorant(self) -> dict[int, float]:
        """Diagonal sup sequence ``c_k = sup_j |W_{k+j,j}|``, perturbations included.

        Every value of either tail on a diagonal is attained at infinitely
        many unperturbed positions, so a perturbation can only raise the sup.
        """
        sup = reduce(np.maximum, (np.abs(c).max(axis=0) for _, c in self.tails))[::-1]
        c = dict(zip(range(-self._band, self._band + 1), sup.tolist()))  # k = -band..band
        for (r, col), _ in self._perturbation.items():
            k = r - col
            c[k] = max(c.get(k, 0.0), abs(self.entry(r, col)))
        return {k: v for k, v in c.items() if v > 0.0}


def _tail_run(op: PeriodicBandOperator, lo: int, count: int, f=None) -> np.ndarray:
    """Rows ``lo..lo+count-1`` of each row's tail pattern, mapped by ``f``
    (an array map applied to each pattern once, before it is tiled)."""
    right = op.coeffs if f is None else f(op.coeffs)
    if op._left is None or lo >= 0:
        return _periodic_run(right, lo, count)
    left = op._left[1] if f is None else f(op._left[1])
    if lo + count <= 0:
        return _periodic_run(left, lo, count)
    return np.concatenate((_periodic_run(left, lo, -lo), _periodic_run(right, 0, lo + count)))


def _phases(band: int, angles: np.ndarray) -> np.ndarray:
    """``exp(-i d a)`` for offsets ``d = -band..band`` (rows) and ``angles`` (columns).

    Entries are computed one by one, so rows ``[B - band, B + band]`` of
    the band-``B`` table are exactly this table.  One table is kept, for
    the last grid and the widest band seen on it, so a repeated grid
    computes its exponentials once; a table of more than 2^15 entries
    holds no memory past its call.
    """
    global _PHASES
    key = angles.tobytes()
    kept, wide, table = _PHASES
    if kept == key and wide >= band:
        return table[wide - band:wide + band + 1]
    table = np.exp(-1j * np.outer(np.arange(-band, band + 1), angles))
    table.setflags(write=False)
    if table.size <= 2**15:
        _PHASES = (key, band, table)
    return table


def dt_from_seq(left, right, middle: Mapping[int, complex] | None = None,
                k0: int = 0) -> PeriodicBandOperator:
    """Convolution by an eventually periodic sequence: the band-0 operator ``W_{k,k} = lam_k``.

    ``lam_k = right[(k - k0) % len(right)]`` for ``k >= k0``, ``left[(-k0 -
    k) % len(left)]`` for ``k <= -k0`` (read outward), else ``middle[k]``
    or 0; with ``k0 = 0`` both tails cover k = 0 and must agree there.  The
    periods become the tails, re-indexed so that row ``l`` reads
    ``coeffs[l % tau]``, and the middle becomes perturbation entries.
    """
    lv, rv = np.array(left, dtype=complex), np.array(right, dtype=complex)
    if lv.ndim != 1 or lv.size == 0 or rv.ndim != 1 or rv.size == 0:
        raise ValueError("period lists must be nonempty one-dimensional sequences")
    if not (np.all(np.isfinite(lv)) and np.all(np.isfinite(rv))):
        raise ValueError("period values must be finite")
    k0 = operator.index(k0)
    if k0 < 0:
        raise ValueError("cutoff index k0 must be nonnegative")
    mid: dict[int, complex] = {}
    for key, val in (middle or {}).items():
        k = operator.index(key)
        if not (-k0 < k < k0):
            raise ValueError(f"middle index {k} is not strictly inside (-{k0}, {k0})")
        mid[k] = complex(val)
        if not cmath.isfinite(mid[k]):
            raise ValueError("middle values must be finite")
    if k0 == 0 and lv[0] != rv[0]:
        raise ValueError("with k0 = 0 both tails cover index 0, so left[0] must equal right[0]")
    p, q = lv.size, rv.size
    tails = lv[(-k0 - np.arange(p)) % p, None], rv[(np.arange(q) - k0) % q, None]
    pert = [(k, k, mid.get(k, 0.0) - complex(tails[k >= 0][k % len(tails[k >= 0]), 0]))
            for k in range(1 - k0, k0)]
    return PeriodicBandOperator(q, 0, tails[1], pert, left=(p, tails[0]))


def dt_from_multiplier(coeffs: Mapping[int, complex]) -> PeriodicBandOperator:
    """Multiplication by a trigonometric polynomial ``g(x) = sum_k g_k e^{ikx}``.

    A 1-periodic Toeplitz band matrix with ``W_{r,c} = g_{r-c}``.
    """
    ks = [operator.index(k) for k, v in coeffs.items() if complex(v) != 0]
    band = max((abs(k) for k in ks), default=0)
    row = np.zeros(2 * band + 1, dtype=complex)
    for k, v in coeffs.items():
        k = operator.index(k)
        if complex(v) != 0:
            row[band - k] = complex(v)  # offset d = -k puts g_k on diagonal r-c=k
    return PeriodicBandOperator(1, band, row.reshape(1, -1))


# ---------------------------------------------------------------------------
# Diagonal-type functionals


class DtMuNorm(NamedTuple):
    """Squared partition norm of a band operator by two routes; see ``dt_mu_norm_sq``."""

    quadrature: float
    closed_form: float


def dt_norm(op: PeriodicBandOperator) -> float:
    """Diagonal-type algebra norm ``sum_k sup_j |W_{k+j,j}|``, perturbations included;
    it dominates the operator norm."""
    return float(sum(op.majorant().values()))


def _lift_coeffs(tail: tuple[int, np.ndarray], tau: int, band: int) -> np.ndarray:
    out = np.zeros((tau, 2 * band + 1), dtype=complex)
    lo = band - (tail[1].shape[1] - 1) // 2
    out[:, lo:out.shape[1] - lo] = _periodic_run(tail[1], 0, tau)
    return out


def _tailwise(f, band: int, pert: list, *ops: PeriodicBandOperator) -> PeriodicBandOperator:
    """The operator with perturbation terms ``pert`` whose right tail is ``f`` of the
    operands' right tails and whose left one, if any operand has two, ``f`` of theirs."""
    tau, coeffs = f(*[(op._tau, op._coeffs) for op in ops])
    left = None if ops[0]._left is None and ops[-1]._left is None else f(*[op.left for op in ops])
    return PeriodicBandOperator(tau, band, coeffs, pert, left)


def dt_add(a: PeriodicBandOperator, b: PeriodicBandOperator) -> PeriodicBandOperator:
    """Sum, tail by tail; each period lifts to the lcm, the band to the max."""
    band = max(a.band, b.band)

    def add(ta, tb):
        tau = math.lcm(ta[0], tb[0])
        if tau > MAX_TAU:  # before the lift allocates the lcm period
            raise CapExceeded(f"sum period {tau} exceeds the cap {MAX_TAU}")
        return tau, _lift_coeffs(ta, tau, band) + _lift_coeffs(tb, tau, band)
    pert = [(r, c, v) for op in (a, b) for (r, c), v in op._perturbation.items()]
    return _tailwise(add, band, pert, a, b)


def dt_scale(lam: complex, a: PeriodicBandOperator) -> PeriodicBandOperator:
    lam = complex(lam)
    return _tailwise(lambda t: (t[0], lam * t[1]), a.band,
                     [(r, c, lam * v) for r, c, v in a.perturbation], a)


def dt_adjoint(a: PeriodicBandOperator) -> PeriodicBandOperator:
    """Conjugate transpose; the circle measure is uniform so no weights enter.

    Entry ``(l, l + d)`` is ``conj(W_{l+d, l})``, read in each tail at
    ``coeffs[(l + d) % tau, band - d]`` by one gather; ``_adjoint_seam``
    adds the entries whose row ``l + d`` lies across row 0.
    """
    d = np.arange(-a.band, a.band + 1)

    def adjoint(t):
        return t[0], np.conj(t[1][(np.arange(t[0])[:, None] + d) % t[0], a.band - d])
    pert = [(c, r, np.conj(v)) for r, c, v in a.perturbation]
    return _tailwise(adjoint, a.band, pert + _adjoint_seam(a), a)


def _seam_gaps(op: PeriodicBandOperator, width: int):
    """Each pair ``(l, m)`` with ``-width <= l < width``, ``|m - l| <= width``
    and ``m`` across row 0 from ``l``, as ``(l, m, gap)``: row ``m`` of its
    own pattern minus row ``m`` read in the tail of row ``l``."""
    if op._left is None:
        return
    for l in range(-width, width):
        for m in range(l - width, 0) if l >= 0 else range(0, l + width + 1):
            (t1, c1), (t2, c2) = op._tail(m), op._tail(l)
            yield l, m, c1[m % t1] - c2[m % t2]


def _adjoint_seam(a: PeriodicBandOperator) -> list[tuple[int, int, complex]]:
    """Terms that move the adjoint's rows ``-band <= l < band`` from the
    tail of row ``l`` to the tail of the row ``m`` each entry is read from."""
    return [(l, m, np.conj(v)) for l, m, gap in _seam_gaps(a, a.band)
            if (v := gap[l - m + a.band]) != 0]


def dt_compose(a: PeriodicBandOperator, b: PeriodicBandOperator) -> PeriodicBandOperator:
    """Product ``a b`` (b acts first), tail by tail; band radii add, periods take the lcm.

    The coefficient ``(r, d)`` sums ``a_{r, r+d1} b_{r+d1, r+d}`` over the
    offsets ``d1`` of ``a``.  Each ``d1`` adds one array product to a slice
    of the output, so every coefficient adds its terms to 0.0 in ascending
    ``d1``, and beyond its output a product needs O(tau * band) memory.
    ``_compose_seam`` corrects the rows that read ``b`` across row 0.
    """
    band = a.band + b.band
    if band > MAX_BAND:
        raise CapExceeded(f"product band {band} exceeds the cap {MAX_BAND}")

    def product(ta, tb):
        tau = math.lcm(ta[0], tb[0])
        if tau > MAX_TAU:  # before any array of the lcm period is made
            raise CapExceeded(f"product period {tau} exceeds the cap {MAX_TAU}")
        rows_a = _periodic_run(ta[1], 0, tau)
        rows_b = _periodic_run(tb[1], -a.band, tau + 2 * a.band)  # row r + d1 at r + d1 + a.band
        coeffs = np.zeros((tau, 2 * band + 1), dtype=complex)
        for i in range(2 * a.band + 1):  # d1 = i - a.band; output column d1 + d2 + band
            coeffs[:, i:i + 2 * b.band + 1] += rows_a[:, i, None] * rows_b[i:i + tau]
        return tau, coeffs
    return _tailwise(product, band, _product_perturbation(a, b) + _compose_seam(a, b), a, b)


def _product_perturbation(a: PeriodicBandOperator, b: PeriodicBandOperator
                          ) -> list[tuple[int, int, complex]]:
    """Perturbation terms of ``a b``: the nonzero terms of ``a b_pert``,
    ``a_pert b`` and ``a_pert b_pert``, in that order; the constructor
    sums them per position."""
    ap, bp = a._perturbation, b._perturbation
    terms = [(r, j, a.base_entry(r, m) * d2) for (m, j), d2 in bp.items()
             for r in range(m - a.band, m + a.band + 1)]
    terms += [(l, j, d1 * b.base_entry(m, j)) for (l, m), d1 in ap.items()
              for j in range(m - b.band, m + b.band + 1)]
    terms += [(l, j, d1 * d2) for (l, m), d1 in ap.items()
              for (m2, j), d2 in bp.items() if m2 == m]
    return [t for t in terms if t[2] != 0]


def _compose_seam(a: PeriodicBandOperator, b: PeriodicBandOperator
                  ) -> list[tuple[int, int, complex]]:
    """Terms that correct the product's rows ``-a.band <= l < a.band``:
    the tail-by-tail product reads each row ``m`` of ``b`` from the tail of
    row ``l``, which is the wrong one when ``m`` lies across row 0."""
    return [(l, m + d, x * v) for l, m, gap in _seam_gaps(b, a.band)
            if (x := a.base_entry(l, m)) != 0
            for d, v in zip(range(-b.band, b.band + 1), gap.tolist()) if v != 0]


def w_l(op: PeriodicBandOperator, l: int, a: float) -> complex:
    """Row symbol ``w_l(a) = sum_j W_{l,j} e^{i(l-j)a}``, perturbations in row ``l``
    included; bounded by ``dt_norm``."""
    l, a = operator.index(l), float(a)
    tau, coeffs = op._tail(l)
    w = complex(coeffs[l % tau] @ np.exp(-1j * np.arange(-op.band, op.band + 1) * a))
    for (r, c), delta in op._perturbation.items():
        if r == l:
            w += delta * np.exp(1j * (l - c) * a)
    return w


def rho_la(op: PeriodicBandOperator, a: float | np.ndarray) -> float | np.ndarray:
    """Window density of the row symbols at the angle ``a``, or at each angle of an array.

    The limsup of window averages of ``|w_l(a)|^2`` is the larger of the
    two tails' period averages; perturbations do not reach it.  A float
    angle gives a float, an array a flat array; the two forms round
    independently.
    """
    phases = _phases(op.band, np.asarray(a, dtype=float).ravel())
    density = reduce(np.maximum, (np.mean(np.abs(c @ phases) ** 2, axis=0) for _, c in op.tails))
    return float(density[0]) if np.ndim(a) == 0 else density


def _density_coefficients(tail: tuple[int, np.ndarray]) -> np.ndarray:
    """``r`` with ``(1/tau) sum_l |w_l(a)|^2 = sum_k r[k + 2*band] e^{-ika}``:
    the autocorrelations of the pattern's rows, averaged over the period."""
    tau, coeffs = tail
    return sum(np.correlate(row, row, "full") for row in coeffs) / tau


def _crossings(g: np.ndarray) -> np.ndarray:
    """Sorted angles in ``[0, 2pi)`` of the roots ``z = e^{-ia}`` of ``sum_k g[k] z^k``.

    Every root yields an angle, on the unit circle (a crossing) or not (it
    only splits an arc)."""
    angles = np.sort(np.mod(-np.angle(np.roots(g[::-1])), 2.0 * np.pi))
    return angles[np.diff(angles, prepend=-1.0) != 0.0]  # np.unique would import numpy.ma


def _arc_integrals(r: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``int_s^t sum_k r[k + K] e^{-ika} da`` for each arc, ``k = -K..K``."""
    half = (r.size - 1) // 2
    k = np.arange(-half, half + 1)
    k = k[k != 0]
    steps = (np.exp(-1j * np.outer(t, k)) - np.exp(-1j * np.outer(s, k))) / (-1j * k)
    return (t - s) * r[half].real + (steps @ r[k + half]).real


def dt_mu_norm_sq(op: PeriodicBandOperator) -> DtMuNorm:
    """Squared partition norm: circle average of the window density ``rho_la``.

    Equal tails: the quadrature is the mean over ``max(16, 8*band)``
    uniform points, exact for the density, a trigonometric polynomial of
    degree ``2*band``; the closed form is the Parseval sum ``avg_trace``.
    Unequal tails: the densities cross at the unit-circle roots of one
    polynomial of degree ``4*band``.  On each arc between the crossings,
    the closed form integrates exactly the density that wins at the arc's
    midpoint (a root off by ``e`` costs ``O(e^2)``), and the quadrature
    applies to ``rho_la`` a Gauss-Legendre rule of ``ceil(band * length) +
    16`` nodes, past the order where its error on ``e^{ika}``, ``|k| <=
    2*band``, falls below rounding.  Perturbations, a compact correction,
    do not contribute.
    """
    if op._left is None:
        n = max(16, 8 * op.band)
        grid = 2.0 * np.pi * np.arange(n) / n
        return DtMuNorm(float(np.mean(rho_la(op, grid))), avg_trace(op))
    r_left, r_right = map(_density_coefficients, op.tails)
    cuts = _crossings(r_left - r_right)
    ends = np.append(cuts, cuts[0] + 2.0 * np.pi) if cuts.size else np.array([0.0, 2.0 * np.pi])
    s, t = ends[:-1], ends[1:]
    k = np.arange(-2 * op.band, 2 * op.band + 1)
    left_wins = (np.exp(-1j * np.outer((s + t) / 2, k)) @ (r_left - r_right)).real > 0
    arcs = np.where(left_wins, _arc_integrals(r_left, s, t), _arc_integrals(r_right, s, t))
    half, mid = (t - s) / 2, (t + s) / 2
    rules = [np.polynomial.legendre.leggauss(math.ceil(op.band * 2 * h) + 16) for h in half]
    nodes = np.concatenate([m + h * x for m, h, (x, _) in zip(mid, half, rules)])
    weights = np.concatenate([h * w for h, (_, w) in zip(half, rules)])
    quad = float(weights @ rho_la(op, nodes))
    return DtMuNorm(quad / (2.0 * np.pi), float(np.sum(arcs)) / (2.0 * np.pi))


def tail_masses(op: PeriodicBandOperator) -> tuple[float, float]:
    """Row mass per row of each tail, ``(1/tau) sum_{l,j} |W_{l,j}|^2``: left, right."""
    masses = [float((np.abs(c) ** 2).sum() / tau) for tau, c in op.tails]
    return masses[0], masses[-1]


def avg_trace(op: PeriodicBandOperator) -> float:
    """Average trace: limsup of windowed row-mass averages, the larger ``tail_masses``.

    A lower bound for the squared partition norm, attained when the tails
    are equal; ``rho_window_max`` is its sliding-window oracle.
    """
    return max(tail_masses(op))


def _row_masses(op: PeriodicBandOperator, lo: int, hi: int):
    """Tail row masses ``sum_j |W_{l,j}|^2`` of rows ``lo..hi``, and perturbed ``(row, change)``."""
    if hi < lo:
        raise ValueError("empty row window")
    masses = _tail_run(op, lo, hi - lo + 1, lambda c: np.sum(np.abs(c) ** 2, axis=1))
    changes = [(r, abs(op.entry(r, c)) ** 2 - abs(op.base_entry(r, c)) ** 2)
               for r, c in op._perturbation if lo <= r <= hi]
    return masses, changes


def avg_trace_window(op: PeriodicBandOperator, lo: int, hi: int) -> float:
    """Finite-window row-mass average (perturbations included); an oracle."""
    masses, changes = _row_masses(op, lo, hi)
    return sum((change for _, change in changes), float(np.sum(masses))) / (hi - lo + 1)


def rho_window_max(op: PeriodicBandOperator, window: int) -> float:
    """Brute-force oracle for ``avg_trace``: best average row mass over sliding windows.

    Scans the windows inside ``[-(s + 2*window), s + 2*window]``, ``s`` one
    past the largest perturbed ``|row|`` (else 0), with the row masses of
    ``avg_trace_window``.  Converges at rate O(period/window).
    """
    window = operator.index(window)
    if window < 1:
        raise ValueError("window length must be positive")
    reach = max((abs(r) + 1 for r, _ in op._perturbation), default=0) + 2 * window
    sq, changes = _row_masses(op, -reach, reach)
    for r, change in changes:
        sq[r + reach] += change
    csum = np.concatenate(([0.0], np.cumsum(sq)))
    # rounding is monotone, so the largest window sum gives the largest average
    return float(np.max(csum[window:] - csum[:-window]) / window)


def finite_section(op: PeriodicBandOperator, rows: range) -> np.ndarray:
    """Dense submatrix over ``rows`` x ``rows`` (perturbations included).

    ``rows`` is a nonempty ``range`` of step 1, a contiguous window.  The
    window's coefficient rows are read once, and each of the at most
    ``2*band + 1`` diagonals is filled by one strided slice, so beyond
    the dense output the band costs O(n * band).
    """
    if not (isinstance(rows, range) and rows.step == 1 and len(rows) > 0):
        raise ValueError("section rows must be a nonempty range of step 1")
    n, lo, band = len(rows), rows.start, op.band
    width = 2 * band + 1
    coeffs = _tail_run(op, lo, n).ravel()  # entry (i, i + d) at i*width + band + d
    out = np.zeros((n, n), dtype=complex)
    flat = out.ravel()  # entry (i, i + d) at i*(n + 1) + d
    for d in range(-min(band, n - 1), min(band, n - 1) + 1):
        first, last = max(0, -d), min(n, n - d) - 1  # the rows that reach diagonal d
        flat[first * (n + 1) + d:last * (n + 1) + d + 1:n + 1] = \
            coeffs[first * width + band + d:last * width + band + d + 1:width]
    for (r, c), delta in op._perturbation.items():
        if lo <= r < lo + n and lo <= c < lo + n:
            out[r - lo, c - lo] += delta
    return out

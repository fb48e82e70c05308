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

import math
import operator
from functools import reduce
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import _LAYERS, CapExceeded

__all__ = list(_LAYERS["circle"])

#: Caps on the period and band radius of every operator, so that composed
#: operators cannot grow without bound.
MAX_TAU = MAX_BAND = 128

#: Cap on the cells of a perturbation window, rows times offsets (16 MB).
MAX_WINDOW = 2**20

#: Window length of ``_window_gap``'s oracle check, which the CLI's
#: ``window-oracle-agrees`` and the ``rho-oracle`` suite run.
ORACLE_WINDOW = 10**4

#: Window sums per block of ``rho_window_max``'s scan, and cells per block of
#: the perturbation window it reads (whole rows, at least one).
_SCAN_BLOCK = 8192

#: The phase table last kept, as ``(grid bytes, band, table)``; see ``_phases``.
_PHASES: tuple = (None, -1, None)


def _periodic_run(period: np.ndarray, start: int, count: int) -> np.ndarray:
    """``period[(start + i) % p]`` for ``i = 0..count-1``, along the first axis."""
    p = len(period)
    s = start % p
    reps = (s + count - 1) // p + 1
    return np.tile(period, (reps,) + (1,) * (period.ndim - 1))[s:s + count]


# A perturbation window is ``(r0, d0, cells)``: ``cells[i, j]`` is the entry at
# row ``r0 + i`` and offset ``d0 + j``, so at column ``r0 + i + d0 + j``.  An
# operator's window is the bounding box of its nonzero cells.
_EMPTY = (0, 0, np.zeros((0, 0), dtype=complex))


def _place(box: tuple, *windows: tuple, base: PeriodicBandOperator | None = None) -> tuple:
    """The window on ``box = (r0, d0, rows, offsets)`` whose cells sum from 0.0
    ``base``'s unperturbed entries, if given, and then each of ``windows``, all cut
    to the box.  A box past ``MAX_WINDOW`` cells is refused before it is allocated."""
    r0, d0, n, m = box
    if n * m > MAX_WINDOW:
        raise CapExceeded(f"perturbation window of {n} rows x {m} offsets "
                          f"exceeds the cap {MAX_WINDOW} cells")
    if base is not None:  # the band's offsets in the box, read from each row's tail
        b, lo = base.band, max(d0, -base.band)
        hi = max(lo, min(d0 + m, b + 1))
        windows = ((r0, lo, _tail_run(base, r0, n, lambda c: c[:, lo + b:hi + b])),) + windows
    out = np.zeros((n, m), dtype=complex)
    for r, d, c in windows:
        i, j = max(r, r0), max(d, d0)
        k, l = min(r + c.shape[0], r0 + n), min(d + c.shape[1], d0 + m)
        if i < k and j < l:
            out[i - r0:k - r0, j - d0:l - d0] += c[i - r:k - r, j - d:l - d]
    return r0, d0, out


def _trim(w: tuple) -> tuple:
    """Window ``w`` cut to the bounding box of its nonzero cells."""
    r0, d0, cells = w
    (rows,), (offsets,) = np.nonzero(cells.any(axis=1)), np.nonzero(cells.any(axis=0))
    if not rows.size:
        return _EMPTY
    return (r0 + int(rows[0]), d0 + int(offsets[0]),
            cells[rows[0]:rows[-1] + 1, offsets[0]:offsets[-1] + 1])


def _cells(w: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, offsets and values of the nonzero cells of window ``w``, by position."""
    r0, d0, cells = w
    i, j = np.nonzero(cells)
    return i + r0, j + d0, cells[i, j]


def _transpose(w: tuple, op: PeriodicBandOperator) -> tuple:
    """The conjugate transpose of window ``w``, cell ``(m, e)`` moved to ``(m + e, -e)``,
    on a box whose cells that no cell of ``w`` reaches hold ``op``'s unperturbed entries."""
    r0, d0, cells = w
    if not cells.size:
        return w
    (n, m), (i, j) = cells.shape, np.indices(cells.shape)
    _, _, out = _place((r0 + d0, 1 - d0 - m, n + m - 1, m), base=op)
    out[i + j, m - 1 - j] = np.conj(cells)
    return r0 + d0, 1 - d0 - m, out


def _rows(op: PeriodicBandOperator, *spans: tuple[int, int]) -> tuple:
    """The window of ``op``'s entries, perturbation included, on the rows from the
    first to the last of the nonempty ``spans`` ``(lo, hi)`` and the offsets of its
    band and perturbation window."""
    spans = [s for s in spans if s[0] < s[1]]
    if not spans:
        return _EMPTY
    (lo, _), hi = min(spans), max(s[1] for s in spans)
    _, d0, cells = op._window
    e0 = min(d0, -op.band)
    box = (lo, e0, hi - lo, max(d0 + cells.shape[1], op.band + 1) - e0)
    return _place(box, op._window, base=op)


def _window_product(x: tuple, y: tuple) -> tuple:
    """Window ``x`` times the rows it reads, window ``y`` from its first row on:
    ``out[i, j + k]`` sums ``x[i, j] y[i + j, k]`` to 0.0 in ascending ``j``, one
    array product per ``j``, so beyond its output it needs its operands' memory only."""
    (rx, dx, cx), (_, e0, cy) = x, y
    if not cx.size:
        return x
    n, m = cx.shape
    _, _, out = _place((0, 0, n, m + cy.shape[1] - 1))
    for j in range(m):
        out[:, j:j + cy.shape[1]] += cx[:, j, None] * cy[j:j + n]
    return rx, dx + e0, out


def _excess(op: PeriodicBandOperator, w: tuple) -> PeriodicBandOperator:
    """``op`` with the perturbation that makes its entries on window ``w`` those of ``w``."""
    r0, d0, cells = w
    if cells.size:
        op._window = _trim((r0, d0, cells - _place((r0, d0) + cells.shape, base=op)[2]))
    return op


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
    perturbation is given as additive corrections ``(row, col, delta)`` at
    absolute positions and kept as one dense window by row and offset.
    Periods and bands are capped at ``MAX_TAU`` and ``MAX_BAND``, the window
    at ``MAX_WINDOW`` cells.
    """

    __slots__ = ("_tau", "_band", "_coeffs", "_left", "_window")

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
        self._window, items = _EMPTY, tuple(perturbation or ())
        if items:  # zero deltas add nothing, so they do not widen the window
            rows, cols, deltas = zip(*items, strict=True)
            rows = tuple(map(operator.index, rows))
            d = np.fromiter(map(operator.sub, map(operator.index, cols), rows), np.int64, len(rows))
            r, v = np.fromiter(rows, np.int64, len(rows)), np.array(deltas, dtype=complex)
            r, d, v = r[v != 0], d[v != 0], v[v != 0]
            if r.size:
                r0, d0 = int(r.min()), int(d.min())
                _, _, cells = _place((r0, d0, int(r.max()) - r0 + 1, int(d.max()) - d0 + 1))
                np.add.at(cells, (r - r0, d - d0), v)  # summed per cell from 0.0 in list order
                if not np.isfinite(cells).all():
                    raise ValueError("perturbation values must be finite")
                self._window = _trim((r0, d0, cells))

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
        """The nonzero cells of the window as ``(row, col, delta)``, sorted by position."""
        r, d, v = _cells(self._window)
        return tuple(zip(r.tolist(), (r + d).tolist(), v.tolist()))

    def __repr__(self) -> str:
        left = "" if self._left is None else f"tau_left={self._left[0]}, "
        return (f"PeriodicBandOperator(tau={self._tau}, {left}band={self._band}, "
                f"perturbed={np.count_nonzero(self._window[2])})")

    def base_entry(self, row: int, col: int) -> complex:
        """Entry of the unperturbed two-tail part."""
        row, col = operator.index(row), operator.index(col)
        tau, coeffs = self.left if row < 0 else (self._tau, self._coeffs)
        if abs(col - row) > self._band:
            return 0.0 + 0.0j
        return complex(coeffs[row % tau, col - row + self._band])

    def entry(self, row: int, col: int) -> complex:
        row, col = operator.index(row), operator.index(col)
        r0, d0, cells = self._window
        i, j = row - r0, col - row - d0
        inside = 0 <= i < cells.shape[0] and 0 <= j < cells.shape[1]
        return self.base_entry(row, col) + (complex(cells[i, j]) if inside else 0.0)

    def majorant(self) -> dict[int, float]:
        """Diagonal sup sequence ``c_k = sup_j |W_{k+j,j}|``, perturbations included.

        Every value of either tail on a diagonal is attained at infinitely
        many unperturbed positions, so a perturbation can only raise the sup.
        """
        sup = reduce(np.maximum, (np.abs(c).max(axis=0) for _, c in self.tails))[::-1]
        c = dict(zip(range(-self._band, self._band + 1), sup.tolist()))  # k = -band..band
        r0, d0, cells = self._window
        if cells.size:  # the entries on the window, by offset d = d0.. on diagonal k = -d
            full = np.abs(_place((r0, d0) + cells.shape, self._window, base=self)[2]).max(axis=0)
            for k, v in zip(range(-d0, -d0 - len(full), -1), full.tolist()):
                c[k] = max(c.get(k, 0.0), v)
        return {k: v for k, v in sorted(c.items()) if v > 0.0}


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
    ``coeffs[l % tau]``, and the middle, ``2*k0 - 1`` cells on one
    diagonal, becomes the perturbation.
    """
    lv, rv = np.array(left, dtype=complex), np.array(right, dtype=complex)
    if lv.ndim != 1 or lv.size == 0 or rv.ndim != 1 or rv.size == 0:
        raise ValueError("period lists must be nonempty one-dimensional sequences")
    if not (np.all(np.isfinite(lv)) and np.all(np.isfinite(rv))):
        raise ValueError("period values must be finite")
    k0 = operator.index(k0)
    if k0 < 0:
        raise ValueError("cutoff index k0 must be nonnegative")
    middle = dict(middle or {})
    keys = np.fromiter(map(operator.index, middle), np.int64, len(middle))
    outside = keys[(keys <= -k0) | (keys >= k0)]
    if outside.size:
        raise ValueError(f"middle index {outside[0]} is not strictly inside (-{k0}, {k0})")
    mid = _place((0, 0, max(2 * k0 - 1, 0), 1))[2][:, 0]
    mid[keys + k0 - 1] = np.array(list(middle.values()), dtype=complex)
    if not np.isfinite(mid).all():
        raise ValueError("middle values must be finite")
    if k0 == 0 and lv[0] != rv[0]:
        raise ValueError("with k0 = 0 both tails cover index 0, so left[0] must equal right[0]")
    p, q = lv.size, rv.size
    tails = lv[(-k0 - np.arange(p)) % p, None], rv[(np.arange(q) - k0) % q, None]
    return _excess(PeriodicBandOperator(q, 0, tails[1], left=(p, tails[0])),
                   (1 - k0, 0, mid[:, None]))


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


def _tailwise(f, band: int, window: tuple, *ops: PeriodicBandOperator) -> PeriodicBandOperator:
    """The operator with perturbation ``window`` whose right tail is ``f`` of the
    operands' right tails and whose left one, if any operand has two, ``f`` of theirs."""
    tau, coeffs = f(*[(op._tau, op._coeffs) for op in ops])
    left = None if ops[0]._left is None and ops[-1]._left is None else f(*[op.left for op in ops])
    out = PeriodicBandOperator(tau, band, coeffs, left=left)
    out._window = window
    return out


def dt_add(a: PeriodicBandOperator, b: PeriodicBandOperator) -> PeriodicBandOperator:
    """Sum, tail by tail; each period lifts to the lcm, the band to the max.  The
    perturbation window sums the two windows cell by cell."""
    band = max(a.band, b.band)

    def add(ta, tb):
        tau = math.lcm(ta[0], tb[0])
        if tau > MAX_TAU:  # before the lift allocates the lcm period
            raise CapExceeded(f"sum period {tau} exceeds the cap {MAX_TAU}")
        runs = [(0, -(c.shape[1] // 2), _periodic_run(c, 0, tau)) for _, c in (ta, tb)]
        return tau, _place((0, -band, tau, 2 * band + 1), *runs)[2]
    ws = [w for w in (a._window, b._window) if w[2].size]  # summed on their union box
    r0, d0 = (min((w[k] for w in ws), default=0) for k in (0, 1))
    r1, d1 = (max((w[k] + w[2].shape[k] for w in ws), default=0) for k in (0, 1))
    window = _trim(_place((r0, d0, r1 - r0, d1 - d0), *ws))
    return _tailwise(add, band, window, a, b)


def _seam(op: PeriodicBandOperator, width: int) -> tuple[int, int]:
    """Rows ``-width..width-1`` if ``op`` has two tails, else none: the rows whose
    entries a tail-by-tail kernel reads from the wrong tail, ``width`` rows from row 0."""
    return (-width, width) if op._left is not None else (0, 0)


def dt_adjoint(a: PeriodicBandOperator) -> PeriodicBandOperator:
    """Conjugate transpose; the circle measure is uniform so no weights enter.

    Entry ``(l, l + d)`` is ``conj(W_{l+d, l})``, read in each tail at
    ``coeffs[(l + d) % tau, band - d]`` by one gather.  The perturbation is
    what the transpose of ``a``'s rows, perturbation included and each read
    from its own tail, adds to those tails on ``a``'s window and ``_seam``.
    """
    d = np.arange(-a.band, a.band + 1)

    def adjoint(t):
        return t[0], np.conj(t[1][(np.arange(t[0])[:, None] + d) % t[0], a.band - d])
    r0, _, cells = a._window
    out = _tailwise(adjoint, a.band, _EMPTY, a)
    return _excess(out, _transpose(_rows(a, (r0, r0 + len(cells)), _seam(a, a.band)), out))


def dt_compose(a: PeriodicBandOperator, b: PeriodicBandOperator) -> PeriodicBandOperator:
    """Product ``a b`` (b acts first), tail by tail; band radii add, periods take the lcm.

    The coefficient ``(r, d)`` sums ``a_{r, r+d1} b_{r+d1, r+d}`` over the
    offsets ``d1`` of ``a`` by ``_window_product``, to 0.0 in ascending
    ``d1``.  The perturbation is what the same product of the true rows,
    perturbation included and each read from its own tail, adds to the tails'
    product on one block of rows: ``a``'s window, the rows that read ``b``'s
    window and ``b``'s ``_seam``.
    """
    band = a.band + b.band
    if band > MAX_BAND:
        raise CapExceeded(f"product band {band} exceeds the cap {MAX_BAND}")

    def product(ta, tb):
        tau = math.lcm(ta[0], tb[0])
        if tau > MAX_TAU:  # before any array of the lcm period is made
            raise CapExceeded(f"product period {tau} exceeds the cap {MAX_TAU}")
        rows = (-a.band, -b.band, _periodic_run(tb[1], -a.band, tau + 2 * a.band))
        return tau, _window_product((0, -a.band, _periodic_run(ta[1], 0, tau)), rows)[2]
    (ra, _, ca), (rb, _, cb), k = a._window, b._window, a.band
    near = (rb - k, rb + len(cb) + k) if cb.size else (0, 0)  # the rows that read b's window
    x0, d0, rows = x = _rows(a, (ra, ra + len(ca)), near, _seam(b, k))
    y = _rows(b, (x0 + d0, x0 + d0 + sum(rows.shape) - 1))  # the rows of b that x reads
    return _excess(_tailwise(product, band, _EMPTY, a, b), _window_product(x, y))


def w_l(op: PeriodicBandOperator, l: int, a: float) -> complex:
    """Row symbol ``w_l(a) = sum_j W_{l,j} e^{i(l-j)a}``, perturbations in row ``l``
    included; bounded by ``dt_norm``."""
    l, a = operator.index(l), float(a)
    tau, coeffs = op.left if l < 0 else (op.tau, op.coeffs)
    w = complex(coeffs[l % tau] @ np.exp(-1j * np.arange(-op.band, op.band + 1) * a))
    r0, d0, cells = op._window
    if r0 <= l < r0 + len(cells):  # zero cells add exact zeros
        w += complex(np.sum(cells[l - r0] * np.exp(1j * -np.arange(d0, d0 + cells.shape[1]) * a)))
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


def rho_window_max(op: PeriodicBandOperator, window: int) -> float:
    """Brute-force oracle for ``avg_trace``: best average row mass over sliding windows.

    Scans the windows inside ``[-(s + 2*window), s + 2*window]``, ``s`` one
    past the largest perturbed ``|row|`` (else 0), over the row masses
    ``sum_j |W_{l,j}|^2``: each tail's masses plus, in each row of the
    perturbation window, the change of its entries.  Converges at rate
    O(period/window).  The scan holds one float per row and its cumulative
    sums in place; it reads the perturbation window, and the window sums,
    in blocks of ``_SCAN_BLOCK`` cells and rows.  A scan past
    ``2 * MAX_WINDOW`` rows, the float rows of a window's cells, is refused
    before it is allocated.
    """
    window = operator.index(window)
    if window < 1:
        raise ValueError("window length must be positive")
    r0, d0, cells = op._window
    reach = (max(-r0, r0 + len(cells) - 1) + 1 if cells.size else 0) + 2 * window
    if 2 * reach + 1 > 2 * MAX_WINDOW:
        raise CapExceeded(f"window scan of {2 * reach + 1} rows exceeds the cap "
                          f"{2 * MAX_WINDOW} rows")
    sq = np.empty(2 * reach + 1)  # row l sits at index l + reach
    spans = ((sq[:reach], -reach), (sq[reach:], 0)) if op._left is not None else ((sq, -reach),)
    for (tau, c), (part, first) in zip(op.tails, spans):  # each tail's masses: one period,
        n = min(tau, len(part))  # then copies of the rows written, doubling
        part[:n] = _periodic_run(np.sum(np.abs(c) ** 2, axis=1), first, n)
        while n < len(part):
            m = min(n, len(part) - n)
            part[n:n + m] = part[:m]
            n += m
    for i, base, part in _window_blocks(op):  # zero cells change nothing
        sq[r0 + reach + i:r0 + reach + i + len(part)] += np.sum(
            np.abs(base + part) ** 2 - np.abs(base) ** 2, axis=1)
    np.cumsum(sq, out=sq)
    # rounding is monotone, so the largest window sum gives the largest average;
    # the first window's sum is sq[window - 1], each later one a difference
    best, starts = sq[window - 1], len(sq) - window
    for i in range(0, starts, _SCAN_BLOCK):
        hi = min(i + _SCAN_BLOCK, starts)
        best = np.maximum(best, (sq[i + window:hi + window] - sq[i:hi]).max())
    return float(best / window)


def _window_blocks(op: PeriodicBandOperator):
    """``op``'s perturbation window in blocks of rows from its first, about
    ``_SCAN_BLOCK`` cells each: ``(i, base, part)`` with ``part`` its rows ``i..``
    and ``base`` the unperturbed entries on them, as ``_place`` sums them."""
    r0, d0, cells = op._window
    step = max(1, _SCAN_BLOCK // max(1, cells.shape[1]))
    for i in range(0, len(cells), step):
        part = cells[i:i + step]
        yield i, _place((r0 + i, d0) + part.shape, base=op)[2], part


def _window_gap(op: PeriodicBandOperator) -> tuple[float, float]:
    """``|avg_trace - rho_window_max|`` at ``ORACLE_WINDOW`` and its derived bound
    ``10 m / ORACLE_WINDOW``, ``m`` the larger tail's entry mass over one period plus
    the perturbed entries' mass, summed by position as ``op.perturbation`` lists them."""
    mass = max(float(np.sum(np.abs(c) ** 2)) for _, c in op.tails)
    entries = ((base + part)[part != 0] for _, base, part in _window_blocks(op))
    # hypot and pow, as Python's abs(z) ** 2; numpy's abs and square round otherwise
    mass += sum(chain.from_iterable(np.float_power(np.hypot(e.real, e.imag), 2.0).tolist()
                                    for e in entries))
    return abs(avg_trace(op) - rho_window_max(op, ORACLE_WINDOW)), 10.0 * mass / ORACLE_WINDOW


def finite_section(op: PeriodicBandOperator, rows: range) -> np.ndarray:
    """Dense submatrix over ``rows`` x ``rows`` (perturbations included).

    ``rows`` is a nonempty ``range`` of step 1, a contiguous window.  The
    window's coefficient rows are read once, and each of the at most
    ``2*band + 1`` diagonals is filled by one strided slice, so beyond
    the dense output the band costs O(n * band); the nonzero cells of the
    perturbation window inside the section are added by one scatter.
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
    r, d, v = _cells(op._window)
    inside = (lo <= r) & (r < lo + n) & (lo <= r + d) & (r + d < lo + n)
    out[r[inside] - lo, (r + d)[inside] - lo] += v[inside]
    return out

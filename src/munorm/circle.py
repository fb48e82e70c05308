"""Operators on the circle through their Fourier coefficients.

Two exactly-computable families are covered:

* eventually periodic two-sided sequences ``{lam_k}`` (a periodic left
  tail, a periodic right tail, finitely many explicit middle values),
  modelling convolution operators.  Their window density

      rho(lam) = limsup over long integer intervals I of
                 (1/#I) sum_{k in I} |lam_k|^2

  is the squared partition norm of the convolution and reduces on this
  class to the larger of the two tail-period means; the finite middle
  never contributes.  An independent sliding-window oracle is provided.

* tau-periodic banded bi-infinite matrices with an optional finite
  perturbation, the computable slice of the diagonal-type algebra.  The
  diagonal sup sequence ``c_k = sup_j |W_{k+j,j}|`` gives the algebra
  norm ``sum_k c_k``; the row symbols ``w_l(a) = sum_j W_{l,j}
  e^{i(l-j)a}`` give the density ``rho_la(a) = (1/tau) sum_l |w_l(a)|^2``
  whose circle average is the squared partition norm, evaluated here by
  an exact uniform-grid quadrature and cross-checked against the
  Parseval closed form ``(1/tau) sum_{l,j} |W_{l,j}|^2``.

Finite perturbations count toward the sup-based algebra norm but are
invisible to the limsup-based quantities (density, average trace), whose
windows escape any finite set of rows.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapExceeded

__all__ = [
    "EventuallyPeriodicSeq",
    "PeriodicBandOperator",
    "DtMuNorm",
    "rho",
    "conv_norm",
    "rho_window_max",
    "dt_from_conv",
    "dt_from_multiplier",
    "dt_norm",
    "dt_add",
    "dt_scale",
    "dt_compose",
    "dt_adjoint",
    "w_l",
    "rho_la",
    "dt_mu_norm_sq",
    "avg_trace",
    "avg_trace_window",
    "finite_section",
]

#: Caps on the period and band radius of every operator, so that composed
#: operators cannot grow without bound.
MAX_TAU = MAX_BAND = 128


#: The phase table last kept, as ``(grid bytes, band, table)``; see ``_phases``.
_PHASES: tuple = (None, -1, None)


# ---------------------------------------------------------------------------
# Eventually periodic sequences and convolution operators


class EventuallyPeriodicSeq:
    """Two-sided complex sequence with periodic tails and a finite middle.

    ``lam_k = right[(k - k0) mod len(right)]`` for ``k >= k0``,
    ``lam_k = left[(-k0 - k) mod len(left)]`` for ``k <= -k0`` (the left
    period is read outward), and explicit ``middle`` values for
    ``-k0 < k < k0`` (missing middle entries are 0).  With ``k0 = 0`` the
    tails overlap at k = 0 and must agree there.
    """

    __slots__ = ("_left", "_right", "_middle", "_k0")

    def __init__(self, left, right, middle: Mapping[int, complex] | None = None, k0: int = 0):
        lv = np.array(left, dtype=complex)
        rv = np.array(right, dtype=complex)
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
            z = complex(val)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("middle values must be finite")
            mid[k] = z
        if k0 == 0 and lv[0] != rv[0]:
            raise ValueError(
                "with k0 = 0 both tails cover index 0, so left[0] must equal right[0]"
            )
        lv.setflags(write=False)
        rv.setflags(write=False)
        self._left = lv
        self._right = rv
        self._middle = mid
        self._k0 = k0

    @property
    def left(self) -> np.ndarray:
        return self._left

    @property
    def right(self) -> np.ndarray:
        return self._right

    @property
    def middle(self) -> dict[int, complex]:
        return dict(self._middle)

    @property
    def k0(self) -> int:
        return self._k0

    def __repr__(self) -> str:
        return (
            f"EventuallyPeriodicSeq(left={self._left.tolist()!r}, "
            f"right={self._right.tolist()!r}, middle={self._middle!r}, k0={self._k0})"
        )

    def _run(self, lo: int, hi: int, f=lambda v: v) -> np.ndarray:
        """``f(lam_k)`` for ``k = lo..hi``, for an elementwise array map ``f``,
        which maps each tail period once, before the period is tiled."""
        inner = [(k, v) for k, v in self._middle.items() if lo <= k <= hi]
        left, right, k0 = f(self._left), f(self._right), self._k0
        out = np.zeros(hi - lo + 1, dtype=left.dtype)
        if lo <= -k0:  # lam_{-k0-m} = left[m mod p], so the left run is read backwards
            top = min(hi, -k0)
            out[:top - lo + 1] = _periodic_run(left, -k0 - top, top - lo + 1)[::-1]
        if hi >= k0:  # with k0 = 0 the right tail takes index 0
            start = max(lo, k0)
            out[start - lo:] = _periodic_run(right, start - k0, hi - start + 1)
        if inner:
            ks, vs = zip(*inner)
            out[np.array(ks) - lo] = f(np.array(vs, dtype=complex))
        return out

    def value_at(self, k: int) -> complex:
        k = operator.index(k)
        return complex(self._run(k, k)[0])

    def values(self, lo: int, hi: int) -> np.ndarray:
        """The slice ``lam_lo..lam_hi`` inclusive, as a dense array."""
        if hi < lo:
            raise ValueError("empty index range")
        return self._run(lo, hi)

    @property
    def left_mean(self) -> float:
        """Mean of ``|lam|^2`` over the left period."""
        return float(np.mean(np.abs(self._left) ** 2))

    @property
    def right_mean(self) -> float:
        return float(np.mean(np.abs(self._right) ** 2))


def _periodic_run(period: np.ndarray, start: int, count: int) -> np.ndarray:
    """``period[(start + i) % p]`` for ``i = 0..count-1``, along the first axis."""
    p = len(period)
    s = start % p
    reps = (s + count - 1) // p + 1
    return np.tile(period, (reps,) + (1,) * (period.ndim - 1))[s:s + count]


def rho(seq: EventuallyPeriodicSeq) -> float:
    """Window density: limsup of interval averages of ``|lam_k|^2``.

    For this sequence class long windows are dominated by the heavier
    tail, so the limsup equals ``max(left_mean, right_mean)``; the finite
    middle is washed out.  ``rho_window_max`` is the brute-force oracle.

    This is the squared partition norm of the convolution by the
    sequence.  A finitely supported sequence gives 0 while the operator
    itself need not be compact, so 0 here does not imply compactness.
    """
    return max(seq.left_mean, seq.right_mean)


def conv_norm(seq: EventuallyPeriodicSeq) -> float:
    """Operator norm of the convolution by the sequence: ``sup_k |lam_k|``."""
    sup = max(float(np.max(np.abs(seq.left))), float(np.max(np.abs(seq.right))))
    for v in seq.middle.values():
        sup = max(sup, abs(v))
    return sup


def rho_window_max(seq: EventuallyPeriodicSeq, window: int) -> float:
    """Brute-force oracle for ``rho``: best average over sliding windows.

    Scans every length-``window`` interval inside
    ``[-(k0 + 2*window), k0 + 2*window]``, wide enough that windows sit
    fully inside either tail, and returns the maximal average of
    ``|lam_k|^2``.  Converges to ``rho(seq)`` at rate O(period/window).
    """
    window = operator.index(window)
    if window < 1:
        raise ValueError("window length must be positive")
    reach = seq.k0 + 2 * window
    sq = seq._run(-reach, reach, lambda v: np.abs(v) ** 2)
    csum = np.empty(sq.size + 1)
    csum[0] = 0.0
    np.cumsum(sq, out=csum[1:])
    # rounding is monotone, so the largest window sum gives the largest average
    return float(np.max(csum[window:] - csum[:-window]) / window)


# ---------------------------------------------------------------------------
# Periodic band operators


class PeriodicBandOperator:
    """tau-periodic banded bi-infinite matrix with a finite perturbation.

    ``coeffs[l, d + band]`` holds the entry ``W_{l, l+d}`` for rows
    ``l = 0..tau-1`` and diagonal offsets ``|d| <= band``; the rest of
    the matrix follows from ``W_{r+tau, c+tau} = W_{r,c}``.  The
    perturbation is a finite list of additive corrections
    ``(row, col, delta)`` at absolute positions, not restricted to the
    band.  Periods and bands are capped at ``MAX_TAU`` and ``MAX_BAND``.
    """

    __slots__ = ("_tau", "_band", "_coeffs", "_perturbation")

    def __init__(self, tau: int, band: int, coeffs,
                 perturbation: Iterable[tuple[int, int, complex]] | None = None):
        tau = operator.index(tau)
        band = operator.index(band)
        if tau < 1:
            raise ValueError("period tau must be >= 1")
        if band < 0:
            raise ValueError("band radius must be >= 0")
        if tau > MAX_TAU:
            raise CapExceeded(f"period {tau} exceeds the cap {MAX_TAU}")
        if band > MAX_BAND:
            raise CapExceeded(f"band radius {band} exceeds the cap {MAX_BAND}")
        c = np.array(coeffs, dtype=complex)
        if c.shape != (tau, 2 * band + 1):
            raise ValueError(
                f"coeffs shape {c.shape} does not match tau={tau}, band={band} "
                f"(expected {(tau, 2 * band + 1)})"
            )
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        pert: dict[tuple[int, int], complex] = {}
        for row, col, delta in perturbation or ():  # summed per position from 0.0
            key = (operator.index(row), operator.index(col))
            pert[key] = pert.get(key, 0.0 + 0.0j) + complex(delta)
        if not all(map(cmath.isfinite, pert.values())):
            raise ValueError("perturbation values must be finite")
        c.setflags(write=False)
        self._tau = tau
        self._band = band
        self._coeffs = c
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
    def perturbation(self) -> tuple[tuple[int, int, complex], ...]:
        return tuple((r, c, v) for (r, c), v in sorted(self._perturbation.items()))

    def __repr__(self) -> str:
        return (
            f"PeriodicBandOperator(tau={self._tau}, band={self._band}, "
            f"perturbed={len(self._perturbation)})"
        )

    def base_entry(self, row: int, col: int) -> complex:
        """Entry of the unperturbed periodic part."""
        row, col = operator.index(row), operator.index(col)
        d = col - row
        if abs(d) > self._band:
            return 0.0 + 0.0j
        return complex(self._coeffs[row % self._tau, d + self._band])

    def entry(self, row: int, col: int) -> complex:
        row, col = operator.index(row), operator.index(col)
        return self.base_entry(row, col) + self._perturbation.get((row, col), 0.0)

    def periodic_symbols(self, angles: np.ndarray) -> np.ndarray:
        """Row symbols of the periodic part on a grid: shape (tau, len(angles)).

        ``w_l(a) = sum_d coeffs[l, d+band] e^{-i d a}``.
        """
        return self._coeffs @ _phases(self._band, np.asarray(angles, dtype=float).ravel())

    def majorant(self) -> dict[int, float]:
        """Diagonal sup sequence ``c_k = sup_j |W_{k+j,j}|``, perturbations included.

        Every periodic value on a diagonal is attained at infinitely many
        unperturbed positions, so a perturbation can only raise the sup.
        """
        sup = np.abs(self._coeffs).max(axis=0)[::-1]  # diagonal k = -band..band
        c = dict(zip(range(-self._band, self._band + 1), sup.tolist()))
        for (r, col), _ in self._perturbation.items():
            k = r - col
            c[k] = max(c.get(k, 0.0), abs(self.entry(r, col)))
        return {k: v for k, v in c.items() if v > 0.0}


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


def dt_from_conv(seq: EventuallyPeriodicSeq) -> PeriodicBandOperator:
    """The convolution by ``seq`` as a diagonal (band 0) operator in the Fourier basis.

    ``W_{k,k} = lam_k``.  Requires both tails to repeat the same
    absolutely aligned pattern of one common period, which becomes the
    period of the operator; middle values that deviate from the pattern
    become perturbation entries.  A convolution whose tails differ has
    no such form: ``rho``, ``conv_norm`` and ``rho_window_max`` take the
    sequence itself.
    """
    p = int(seq.right.size)
    if seq.left.size != p:
        raise ValueError("tail periods have different lengths; not a periodic diagonal")
    c = -(-seq.k0 // p) * p  # a multiple of p in the right tail; -c - 1 is in the left
    pattern = seq.values(c, c + p - 1)  # lam_k = pattern[k mod p] on the right tail
    if (seq.values(-c - p, -c - 1) != pattern).any():
        raise ValueError(
            "left and right tails disagree on the common period; not a periodic diagonal"
        )
    ks = np.arange(1 - seq.k0, seq.k0)
    deltas = seq.values(-seq.k0, seq.k0)[1:-1] - pattern[ks % p]  # the middle
    pert = [(k, k, v) for k, v in zip(ks.tolist(), deltas)]
    return PeriodicBandOperator(p, 0, pattern.reshape(p, 1), pert)


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
    """Squared partition norm of a band operator, via two routes.

    ``quadrature`` integrates the density of the row symbols over the
    circle; ``closed_form`` is the Parseval expression
    ``(1/tau) sum_{l,j} |W_{l,j}|^2``.  They agree to rounding.
    """

    quadrature: float
    closed_form: float


def dt_norm(op: PeriodicBandOperator) -> float:
    """Diagonal-type algebra norm: ``sum_k sup_j |W_{k+j,j}|``.

    Dominates the operator norm.  Perturbed entries participate in the
    sups.
    """
    return float(sum(op.majorant().values()))


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _lift_coeffs(op: PeriodicBandOperator, tau: int, band: int) -> np.ndarray:
    out = np.zeros((tau, 2 * band + 1), dtype=complex)
    lo = band - op.band
    out[:, lo:lo + 2 * op.band + 1] = _periodic_run(op.coeffs, 0, tau)
    return out


def dt_add(a: PeriodicBandOperator, b: PeriodicBandOperator) -> PeriodicBandOperator:
    """Sum; the period lifts to the lcm, the band to the max."""
    tau = _lcm(a.tau, b.tau)
    band = max(a.band, b.band)
    if tau > MAX_TAU:  # before the lift allocates the lcm period
        raise CapExceeded(f"sum period {tau} exceeds the cap {MAX_TAU}")
    coeffs = _lift_coeffs(a, tau, band) + _lift_coeffs(b, tau, band)
    pert = [(r, c, v) for op in (a, b) for (r, c), v in op._perturbation.items()]
    return PeriodicBandOperator(tau, band, coeffs, pert)


def dt_scale(lam: complex, a: PeriodicBandOperator) -> PeriodicBandOperator:
    lam = complex(lam)
    return PeriodicBandOperator(a.tau, a.band, lam * a.coeffs,
                                [(r, c, lam * v) for r, c, v in a.perturbation])


def dt_adjoint(a: PeriodicBandOperator) -> PeriodicBandOperator:
    """Conjugate transpose; the circle measure is uniform so no weights enter.

    Entry ``(l, l + d)`` of the adjoint is ``conj(W_{l+d, l})``, read at
    ``coeffs[(l + d) % tau, band - d]`` by one gather.
    """
    l = np.arange(a.tau)[:, None]
    d = np.arange(-a.band, a.band + 1)
    out = np.conj(a.coeffs[(l + d) % a.tau, a.band - d])
    pert = [(c, r, np.conj(v)) for r, c, v in a.perturbation]
    return PeriodicBandOperator(a.tau, a.band, out, pert)


def dt_compose(a: PeriodicBandOperator, b: PeriodicBandOperator) -> PeriodicBandOperator:
    """Product ``a b`` (b acts first); band radii add, periods take the lcm.

    The coefficient ``(r, d)`` sums ``a_{r, r+d1} b_{r+d1, r+d}`` over the
    offsets ``d1`` of ``a``.  Each ``d1`` adds one array product to a slice
    of the output, so every coefficient adds its terms to 0.0 in ascending
    ``d1``, and beyond its output a product needs O(tau * band) memory.
    """
    tau = _lcm(a.tau, b.tau)
    band = a.band + b.band
    if tau > MAX_TAU:  # before any array of the lcm period is made
        raise CapExceeded(f"product period {tau} exceeds the cap {MAX_TAU}")
    if band > MAX_BAND:
        raise CapExceeded(f"product band {band} exceeds the cap {MAX_BAND}")
    rows_a = _periodic_run(a.coeffs, 0, tau)
    rows_b = _periodic_run(b.coeffs, -a.band, tau + 2 * a.band)  # row r + d1 at r + d1 + a.band
    coeffs = np.zeros((tau, 2 * band + 1), dtype=complex)
    for i in range(2 * a.band + 1):  # d1 = i - a.band; output column d1 + d2 + band
        coeffs[:, i:i + 2 * b.band + 1] += rows_a[:, i, None] * rows_b[i:i + tau]
    return PeriodicBandOperator(tau, band, coeffs, _product_perturbation(a, b))


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


def w_l(op: PeriodicBandOperator, l: int, a: float) -> complex:
    """Row symbol ``w_l(a) = sum_j W_{l,j} e^{i(l-j)a}``, perturbations in row ``l`` included.

    Bounded by ``dt_norm``.
    """
    l, a = operator.index(l), float(a)
    w = complex(op.coeffs[l % op.tau] @ np.exp(-1j * np.arange(-op.band, op.band + 1) * a))
    for (r, c), delta in op._perturbation.items():
        if r == l:
            w += delta * np.exp(1j * (l - c) * a)
    return w


def rho_la(op: PeriodicBandOperator, a: float | np.ndarray) -> float | np.ndarray:
    """Window density of the row symbols at the angle ``a``, or at each angle of an array.

    For a tau-periodic operator the symbols repeat with period tau, so
    the limsup of window averages is the plain period average
    ``(1/tau) sum_l |w_l(a)|^2``.  Finite perturbations change finitely
    many symbols and are ignored by the limsup.  A float angle gives a
    float, an array of angles a flat array.  The two forms round
    independently, so ``rho_la(op, grid)[i]`` and ``rho_la(op, grid[i])``
    may differ in the last bits.
    """
    density = np.mean(np.abs(op.periodic_symbols(a)) ** 2, axis=0)
    return float(density[0]) if np.ndim(a) == 0 else density


def dt_mu_norm_sq(op: PeriodicBandOperator) -> DtMuNorm:
    """Squared partition norm: circle average of the symbol density.

    Uniform-grid rectangle quadrature on ``max(16, 8*band)`` points.  The
    integrand ``|w_l(a)|^2`` is a trigonometric polynomial of degree
    ``2*band``, which any grid of at least ``2*band + 1`` points averages
    exactly to rounding, and the grid always exceeds that floor.  The
    Parseval closed form is returned alongside for cross-checking.
    Perturbations do not contribute (they are a compact correction on an
    atomless space).
    """
    n = max(16, 8 * op.band)
    grid = 2.0 * np.pi * np.arange(n) / n
    return DtMuNorm(float(np.mean(rho_la(op, grid))), avg_trace(op))


def avg_trace(op: PeriodicBandOperator) -> float:
    """Average trace: limsup of windowed row-mass averages of ``|W_{l,j}|^2``.

    For a tau-periodic matrix this is the per-period mean
    ``(1/tau) sum_l sum_j |W_{l,j}|^2`` of the unperturbed part; a lower
    bound for the squared partition norm, and the Parseval closed form
    of ``dt_mu_norm_sq``: on this class the bound is attained.
    """
    return float((np.abs(op.coeffs) ** 2).sum() / op.tau)


def avg_trace_window(op: PeriodicBandOperator, lo: int, hi: int) -> float:
    """Finite-window row-mass average (perturbations included).

    Converges to ``avg_trace`` as the window grows; useful as an oracle.
    """
    if hi < lo:
        raise ValueError("empty row window")
    count = hi - lo + 1
    row_mass = np.sum(np.abs(op.coeffs) ** 2, axis=1)
    total = float(np.sum(_periodic_run(row_mass, lo, count)))
    for r, c in op._perturbation:
        if lo <= r <= hi:
            total += abs(op.entry(r, c)) ** 2 - abs(op.base_entry(r, c)) ** 2
    return total / count


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
    coeffs = _periodic_run(op.coeffs, lo, n).ravel()  # entry (i, i + d) at i*width + band + d
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

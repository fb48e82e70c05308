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

import math
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapExceeded

__all__ = [
    "EventuallyPeriodicSeq",
    "PeriodicBandOperator",
    "DiagonalSeqOperator",
    "DtMuNorm",
    "rho",
    "conv_norm",
    "conv_mu_norm_sq",
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

DEFAULT_MAX_TAU = 128
DEFAULT_MAX_BAND = 128


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
        k0 = int(k0)
        if k0 < 0:
            raise ValueError("cutoff index k0 must be nonnegative")
        mid: dict[int, complex] = {}
        for key, val in (middle or {}).items():
            k = int(key)
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

    def value_at(self, k: int) -> complex:
        k = int(k)
        if k >= self._k0:
            return complex(self._right[(k - self._k0) % self._right.size])
        if k <= -self._k0:
            return complex(self._left[(-self._k0 - k) % self._left.size])
        return self._middle.get(k, 0.0 + 0.0j)

    def _values_at(self, ks: np.ndarray) -> np.ndarray:
        """``lam_k`` for every entry of the integer array ``ks``."""
        out = np.zeros(ks.shape, dtype=complex)
        lmask = ks <= -self._k0
        rmask = ks >= self._k0
        out[lmask] = self._left[(-self._k0 - ks[lmask]) % self._left.size]
        out[rmask] = self._right[(ks[rmask] - self._k0) % self._right.size]
        inner = ~(lmask | rmask)
        if self._middle and inner.any():
            out[inner] = [self._middle.get(k, 0.0) for k in ks[inner].tolist()]
        return out

    def values(self, lo: int, hi: int) -> np.ndarray:
        """The slice ``lam_lo..lam_hi`` inclusive, as a dense array."""
        if hi < lo:
            raise ValueError("empty index range")
        return self._values_at(np.arange(lo, hi + 1))

    @property
    def left_mean(self) -> float:
        """Mean of ``|lam|^2`` over the left period."""
        return float(np.mean(np.abs(self._left) ** 2))

    @property
    def right_mean(self) -> float:
        return float(np.mean(np.abs(self._right) ** 2))


def rho(seq: EventuallyPeriodicSeq) -> float:
    """Window density: limsup of interval averages of ``|lam_k|^2``.

    For this sequence class long windows are dominated by the heavier
    tail, so the limsup equals ``max(left_mean, right_mean)``; the finite
    middle is washed out.  ``rho_window_max`` is the brute-force oracle.
    """
    return max(seq.left_mean, seq.right_mean)


def conv_norm(seq: EventuallyPeriodicSeq) -> float:
    """Operator norm of the convolution by the sequence: ``sup_k |lam_k|``."""
    sup = max(float(np.max(np.abs(seq.left))), float(np.max(np.abs(seq.right))))
    for v in seq.middle.values():
        sup = max(sup, abs(v))
    return sup


def conv_mu_norm_sq(seq: EventuallyPeriodicSeq) -> float:
    """Squared partition norm of the convolution operator; equals ``rho``.

    A finitely supported sequence gives 0 while the operator itself need
    not be compact, so 0 here does not imply compactness.
    """
    return rho(seq)


def rho_window_max(seq: EventuallyPeriodicSeq, window: int,
                   lo: int | None = None, hi: int | None = None) -> float:
    """Brute-force oracle for ``rho``: best average over sliding windows.

    Scans every length-``window`` interval inside ``[lo, hi]`` (by
    default wide enough that windows sit fully inside either tail) and
    returns the maximal average of ``|lam_k|^2``.  Converges to
    ``rho(seq)`` at rate O(period/window).
    """
    window = int(window)
    if window < 1:
        raise ValueError("window length must be positive")
    if lo is None:
        lo = -(seq.k0 + 2 * window)
    if hi is None:
        hi = seq.k0 + 2 * window
    vals = seq.values(lo, hi)
    if vals.size < window:
        raise ValueError("domain is shorter than the window")
    sq = np.abs(vals) ** 2
    csum = np.concatenate(([0.0], np.cumsum(sq)))
    avgs = (csum[window:] - csum[:-window]) / window
    return float(np.max(avgs))


# ---------------------------------------------------------------------------
# Periodic band operators


class PeriodicBandOperator:
    """tau-periodic banded bi-infinite matrix with a finite perturbation.

    ``coeffs[l, d + band]`` holds the entry ``W_{l, l+d}`` for rows
    ``l = 0..tau-1`` and diagonal offsets ``|d| <= band``; the rest of
    the matrix follows from ``W_{r+tau, c+tau} = W_{r,c}``.  The
    perturbation is a finite list of additive corrections
    ``(row, col, delta)`` at absolute positions, not restricted to the
    band.  Periods and bands are capped (default 128) so that composed
    operators cannot grow without bound.
    """

    __slots__ = ("_tau", "_band", "_coeffs", "_perturbation")

    def __init__(self, tau: int, band: int, coeffs,
                 perturbation: Iterable[tuple[int, int, complex]] | None = None,
                 max_tau: int = DEFAULT_MAX_TAU, max_band: int = DEFAULT_MAX_BAND):
        tau = int(tau)
        band = int(band)
        if tau < 1:
            raise ValueError("period tau must be >= 1")
        if band < 0:
            raise ValueError("band radius must be >= 0")
        if tau > max_tau:
            raise CapExceeded(f"period {tau} exceeds the cap {max_tau}")
        if band > max_band:
            raise CapExceeded(f"band radius {band} exceeds the cap {max_band}")
        c = np.array(coeffs, dtype=complex)
        if c.shape != (tau, 2 * band + 1):
            raise ValueError(
                f"coeffs shape {c.shape} does not match tau={tau}, band={band} "
                f"(expected {(tau, 2 * band + 1)})"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        pert: dict[tuple[int, int], complex] = {}
        for row, col, delta in perturbation or ():
            z = complex(delta)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("perturbation values must be finite")
            key = (int(row), int(col))
            pert[key] = pert.get(key, 0.0 + 0.0j) + z
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
        d = col - row
        if abs(d) > self._band:
            return 0.0 + 0.0j
        return complex(self._coeffs[row % self._tau, d + self._band])

    def entry(self, row: int, col: int) -> complex:
        return self.base_entry(row, col) + self._perturbation.get((int(row), int(col)), 0.0)

    def _perturbation_dict(self) -> dict[tuple[int, int], complex]:
        return dict(self._perturbation)

    def periodic_symbols(self, angles: np.ndarray) -> np.ndarray:
        """Row symbols of the periodic part on a grid: shape (tau, len(angles)).

        ``w_l(a) = sum_d coeffs[l, d+band] e^{-i d a}``.
        """
        d = np.arange(-self._band, self._band + 1)
        phases = np.exp(-1j * np.outer(d, np.asarray(angles, dtype=float)))
        return self._coeffs @ phases

    def row_symbol(self, l: int, a: float) -> complex:
        """Row symbol including perturbations in row ``l``."""
        d = np.arange(-self._band, self._band + 1)
        w = complex(self._coeffs[l % self._tau] @ np.exp(-1j * d * a))
        for (r, c), delta in self._perturbation.items():
            if r == l:
                w += delta * np.exp(1j * (l - c) * a)
        return w

    def majorant(self) -> dict[int, float]:
        """Diagonal sup sequence ``c_k = sup_j |W_{k+j,j}|``, perturbations included.

        Every periodic value on a diagonal is attained at infinitely many
        unperturbed positions, so a perturbation can only raise the sup.
        """
        sup = np.max(np.abs(self._coeffs), axis=0)
        c = {k: float(sup[self._band - k]) for k in range(-self._band, self._band + 1)}
        for (r, col), _ in self._perturbation.items():
            k = r - col
            c[k] = max(c.get(k, 0.0), abs(self.entry(r, col)))
        return {k: v for k, v in c.items() if v > 0.0}


class DiagonalSeqOperator:
    """Diagonal operator ``W_{k,k} = lam_k`` backed by an eventually periodic sequence.

    The convolution by ``lam`` in the Fourier basis.  Not tau-periodic in
    general (the two tails may differ); ``to_periodic`` converts when
    they align.
    """

    __slots__ = ("_seq",)

    def __init__(self, seq: EventuallyPeriodicSeq):
        self._seq = seq

    @property
    def seq(self) -> EventuallyPeriodicSeq:
        return self._seq

    def __repr__(self) -> str:
        return f"DiagonalSeqOperator({self._seq!r})"

    def entry(self, row: int, col: int) -> complex:
        return self._seq.value_at(row) if row == col else 0.0 + 0.0j

    def to_periodic(self, max_tau: int = DEFAULT_MAX_TAU) -> PeriodicBandOperator:
        """Convert to a periodic diagonal with the middle as a perturbation.

        Requires both tails to repeat the same absolutely-aligned pattern
        of one common period; middle values that deviate from the pattern
        become perturbation entries.
        """
        seq = self._seq
        p = int(seq.right.size)
        if seq.left.size != p:
            raise ValueError("tail periods have different lengths; not a periodic diagonal")
        pattern = np.empty(p, dtype=complex)
        for m in range(p):
            pattern[m] = seq.right[(m - seq.k0) % p]
            left_val = seq.left[(-seq.k0 - m) % p]
            if left_val != pattern[m]:
                raise ValueError(
                    "left and right tails disagree on the common period; "
                    "not a periodic diagonal"
                )
        pert = []
        for k in range(-seq.k0 + 1, seq.k0):
            v = seq.value_at(k)
            base = pattern[k % p]
            if v != base:
                pert.append((k, k, v - base))
        return PeriodicBandOperator(p, 0, pattern.reshape(p, 1), pert, max_tau=max_tau)


def dt_from_conv(seq: EventuallyPeriodicSeq) -> DiagonalSeqOperator:
    """Embed a convolution as a diagonal operator in the Fourier basis."""
    return DiagonalSeqOperator(seq)


def dt_from_multiplier(coeffs: Mapping[int, complex],
                       max_band: int = DEFAULT_MAX_BAND) -> PeriodicBandOperator:
    """Multiplication by a trigonometric polynomial ``g(x) = sum_k g_k e^{ikx}``.

    A 1-periodic Toeplitz band matrix with ``W_{r,c} = g_{r-c}``.
    """
    ks = [int(k) for k, v in coeffs.items() if complex(v) != 0]
    band = max((abs(k) for k in ks), default=0)
    row = np.zeros(2 * band + 1, dtype=complex)
    for k, v in coeffs.items():
        k = int(k)
        if complex(v) != 0:
            row[band - k] = complex(v)  # offset d = -k puts g_k on diagonal r-c=k
    return PeriodicBandOperator(1, band, row.reshape(1, -1), max_band=max_band)


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


def dt_norm(op: PeriodicBandOperator | DiagonalSeqOperator) -> float:
    """Diagonal-type algebra norm: ``sum_k sup_j |W_{k+j,j}|``.

    Dominates the operator norm.  Perturbed entries participate in the
    sups.
    """
    if isinstance(op, DiagonalSeqOperator):
        return conv_norm(op.seq)
    return float(sum(op.majorant().values()))


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _lift_coeffs(op: PeriodicBandOperator, tau: int, band: int) -> np.ndarray:
    out = np.zeros((tau, 2 * band + 1), dtype=complex)
    lo = band - op.band
    out[:, lo:lo + 2 * op.band + 1] = op.coeffs[np.arange(tau) % op.tau]
    return out


def _require_band_op(op, name: str) -> PeriodicBandOperator:
    if isinstance(op, DiagonalSeqOperator):
        raise TypeError(
            f"{name} needs a PeriodicBandOperator; convert the diagonal model "
            "with .to_periodic() first"
        )
    return op


def dt_add(a: PeriodicBandOperator, b: PeriodicBandOperator,
           max_tau: int = DEFAULT_MAX_TAU, max_band: int = DEFAULT_MAX_BAND
           ) -> PeriodicBandOperator:
    """Sum; the period lifts to the lcm, the band to the max."""
    a = _require_band_op(a, "dt_add")
    b = _require_band_op(b, "dt_add")
    tau = _lcm(a.tau, b.tau)
    band = max(a.band, b.band)
    if tau > max_tau:
        raise CapExceeded(f"sum period {tau} exceeds the cap {max_tau}")
    coeffs = _lift_coeffs(a, tau, band) + _lift_coeffs(b, tau, band)
    pert = a._perturbation_dict()
    for key, v in b._perturbation_dict().items():
        pert[key] = pert.get(key, 0.0 + 0.0j) + v
    return PeriodicBandOperator(tau, band, coeffs,
                                [(r, c, v) for (r, c), v in pert.items()],
                                max_tau=max_tau, max_band=max_band)


def dt_scale(lam: complex, a: PeriodicBandOperator,
             max_tau: int = DEFAULT_MAX_TAU, max_band: int = DEFAULT_MAX_BAND
             ) -> PeriodicBandOperator:
    a = _require_band_op(a, "dt_scale")
    lam = complex(lam)
    return PeriodicBandOperator(
        a.tau, a.band, lam * a.coeffs,
        [(r, c, lam * v) for r, c, v in a.perturbation],
        max_tau=max_tau, max_band=max_band,
    )


def dt_adjoint(a: PeriodicBandOperator,
               max_tau: int = DEFAULT_MAX_TAU, max_band: int = DEFAULT_MAX_BAND
               ) -> PeriodicBandOperator:
    """Conjugate transpose; the circle measure is uniform so no weights enter."""
    a = _require_band_op(a, "dt_adjoint")
    l = np.arange(a.tau)[:, None]
    d = np.arange(-a.band, a.band + 1)
    out = np.conj(a.coeffs[(l + d) % a.tau, a.band - d])
    pert = [(c, r, np.conj(v)) for r, c, v in a.perturbation]
    return PeriodicBandOperator(a.tau, a.band, out, pert, max_tau=max_tau, max_band=max_band)


def dt_compose(a: PeriodicBandOperator, b: PeriodicBandOperator,
               max_tau: int = DEFAULT_MAX_TAU, max_band: int = DEFAULT_MAX_BAND
               ) -> PeriodicBandOperator:
    """Product ``a b`` (b acts first); band radii add, periods take the lcm."""
    a = _require_band_op(a, "dt_compose")
    b = _require_band_op(b, "dt_compose")
    tau = _lcm(a.tau, b.tau)
    band = a.band + b.band
    if tau > max_tau:
        raise CapExceeded(f"product period {tau} exceeds the cap {max_tau}")
    if band > max_band:
        raise CapExceeded(f"product band {band} exceeds the cap {max_band}")
    # terms[r, d1 + a.band, d2 + b.band] = a_{r, r+d1} b_{r+d1, r+d1+d2}, one gather
    rows = np.arange(tau)
    d1 = np.arange(-a.band, a.band + 1)
    terms = a.coeffs[rows % a.tau, :, None] * b.coeffs[(rows[:, None] + d1) % b.tau]
    # the coefficient at offset d1 + d2 sums an anti-diagonal; bincount adds
    # the terms in C order, so ascending d1 from 0.0, as a loop over d1 does
    width = 2 * band + 1
    slot = (rows[:, None, None] * width + np.arange(d1.size)[:, None]
            + np.arange(2 * b.band + 1)).ravel()
    coeffs = np.empty((tau, width), dtype=complex)
    coeffs.real = np.bincount(slot, terms.real.ravel(), tau * width).reshape(tau, width)
    coeffs.imag = np.bincount(slot, terms.imag.ravel(), tau * width).reshape(tau, width)
    pert: dict[tuple[int, int], complex] = {}

    def bump(key, v):
        if v != 0:
            pert[key] = pert.get(key, 0.0 + 0.0j) + v

    for (m, j), d2 in b._perturbation_dict().items():
        for r in range(m - a.band, m + a.band + 1):
            bump((r, j), a.base_entry(r, m) * d2)
    for (l, m), d1 in a._perturbation_dict().items():
        for j in range(m - b.band, m + b.band + 1):
            bump((l, j), d1 * b.base_entry(m, j))
    for (l, m), d1 in a._perturbation_dict().items():
        for (m2, j), d2 in b._perturbation_dict().items():
            if m2 == m:
                bump((l, j), d1 * d2)
    return PeriodicBandOperator(tau, band, coeffs,
                                [(r, c, v) for (r, c), v in pert.items()],
                                max_tau=max_tau, max_band=max_band)


def w_l(op: PeriodicBandOperator | DiagonalSeqOperator, l: int, a: float) -> complex:
    """Row symbol ``w_l(a) = sum_j W_{l,j} e^{i(l-j)a}``; bounded by ``dt_norm``."""
    if isinstance(op, DiagonalSeqOperator):
        return op.seq.value_at(l)
    return op.row_symbol(int(l), float(a))


def rho_la(op: PeriodicBandOperator | DiagonalSeqOperator, a: float) -> float:
    """Window density of the row symbols at angle ``a``.

    For a tau-periodic operator the symbols repeat with period tau, so
    the limsup of window averages is the plain period average
    ``(1/tau) sum_l |w_l(a)|^2``.  Finite perturbations change finitely
    many symbols and are ignored by the limsup.
    """
    if isinstance(op, DiagonalSeqOperator):
        return rho(op.seq)
    sym = op.periodic_symbols(np.array([float(a)]))
    return float(np.mean(np.abs(sym[:, 0]) ** 2))


def required_quad_points(op: PeriodicBandOperator) -> int:
    """Fewest grid points that integrate the symbol density exactly.

    ``|w_l(a)|^2`` is a trigonometric polynomial of degree ``2*band``, and
    an ``n``-point uniform grid averages ``e^{ika}`` exactly for
    ``0 < |k| < n``; so ``2*band + 1`` points suffice and ``2*band`` can
    alias (``2cos`` on 2 points averages 4, not 2).
    """
    return 2 * op.band + 1


def dt_mu_norm_sq(op: PeriodicBandOperator | DiagonalSeqOperator,
                  quad_points: int | None = None) -> DtMuNorm:
    """Squared partition norm: circle average of the symbol density.

    Uniform-grid rectangle quadrature; the integrand is a trigonometric
    polynomial of degree ``2*band``, so any grid of at least
    ``required_quad_points(op) = 2*band + 1`` points integrates it exactly
    to rounding.  The default grid has ``max(16, 8*band)`` points.  The
    Parseval closed form is returned alongside for cross-checking.
    Perturbations do not contribute (they are a compact correction on an
    atomless space).

    For a ``DiagonalSeqOperator`` the density does not depend on the
    angle: the "quadrature" averages the constant ``rho(seq)`` over the
    grid, so it is not a second route to the closed form.
    """
    if isinstance(op, DiagonalSeqOperator):
        n = 16 if quad_points is None else int(quad_points)
        if n < 2:
            raise ValueError("insufficient quadrature points: need at least 2")
        grid = 2.0 * np.pi * np.arange(n) / n
        vals = [rho_la(op, a) for a in grid]
        return DtMuNorm(float(np.mean(vals)), rho(op.seq))
    need = required_quad_points(op)
    if quad_points is None:
        n = max(16, 8 * op.band)
    else:
        n = int(quad_points)
        if n < need:
            raise ValueError(
                f"insufficient quadrature points: got {n}, need at least {need} "
                f"for tau={op.tau}, band={op.band}"
            )
    grid = 2.0 * np.pi * np.arange(n) / n
    sym = op.periodic_symbols(grid)
    density = np.mean(np.abs(sym) ** 2, axis=0)
    closed = float(np.sum(np.abs(op.coeffs) ** 2) / op.tau)
    return DtMuNorm(float(np.mean(density)), closed)


def avg_trace(op: PeriodicBandOperator | DiagonalSeqOperator) -> float:
    """Average trace: limsup of windowed row-mass averages of ``|W_{l,j}|^2``.

    For a tau-periodic matrix this is the per-period mean
    ``(1/tau) sum_l sum_j |W_{l,j}|^2`` of the unperturbed part; a lower
    bound for the squared partition norm.
    """
    if isinstance(op, DiagonalSeqOperator):
        return rho(op.seq)
    return float(np.sum(np.abs(op.coeffs) ** 2) / op.tau)


def avg_trace_window(op: PeriodicBandOperator | DiagonalSeqOperator,
                     lo: int, hi: int) -> float:
    """Finite-window row-mass average (perturbations included).

    Converges to ``avg_trace`` as the window grows; useful as an oracle.
    """
    if hi < lo:
        raise ValueError("empty row window")
    count = hi - lo + 1
    if isinstance(op, DiagonalSeqOperator):
        vals = op.seq.values(lo, hi)
        return float(np.mean(np.abs(vals) ** 2))
    row_mass = np.sum(np.abs(op.coeffs) ** 2, axis=1)
    total = float(np.sum(row_mass[np.arange(lo, hi + 1) % op.tau]))
    for (r, c), _ in op._perturbation_dict().items():
        if lo <= r <= hi:
            total += abs(op.entry(r, c)) ** 2 - abs(op.base_entry(r, c)) ** 2
    return total / count


def finite_section(op: PeriodicBandOperator | DiagonalSeqOperator,
                   rows: range) -> np.ndarray:
    """Dense submatrix over ``rows`` x ``rows`` (perturbations included).

    ``rows`` is any iterable of distinct indices, such as a ``range`` with
    any step.
    """
    idx = np.fromiter(rows, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty section range")
    n = idx.size
    pos = {r: k for k, r in enumerate(idx.tolist())}
    if len(pos) != n:
        raise ValueError("section rows must be distinct")
    out = np.zeros((n, n), dtype=complex)
    if isinstance(op, DiagonalSeqOperator):
        out[np.diag_indices(n)] = op.seq._values_at(idx)
        return out
    d = idx[None, :] - idx[:, None]  # column minus row
    i, j = np.nonzero(np.abs(d) <= op.band)
    out[i, j] = op.coeffs[idx[i] % op.tau, d[i, j] + op.band]
    for (r, c), delta in op._perturbation_dict().items():
        if r in pos and c in pos:
            out[pos[r], pos[c]] += delta
    return out

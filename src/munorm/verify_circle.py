"""Property suites on the circle layer: band operators with one or two tails.

Registered in ``verify.SUITES``; run them through ``verify.run_suite``.
"""

from __future__ import annotations

import numpy as np

from . import circle as circ
from .verify import PropertyCheck, _per_trial, _random_complex

# ---------------------------------------------------------------------------
# Random instance generators


def random_seq(rng) -> circ.PeriodicBandOperator:
    """Two tails of periods 1..8 with a middle of radius k0 in 0..4."""
    pl = int(rng.integers(1, 9))
    pr = int(rng.integers(1, 9))
    k0 = int(rng.integers(0, 5))
    left = _random_complex(rng, pl)
    right = _random_complex(rng, pr)
    middle = {}
    if k0 > 0:
        for k in range(-k0 + 1, k0):
            if rng.random() < 0.5:
                middle[k] = complex(_random_complex(rng, 1)[0])
    else:
        left[0] = right[0]
    return circ.dt_from_seq(left, right, middle, k0)


def random_bandop(rng, max_tau: int = 8, max_band: int = 8,
                  perturbed: bool = False) -> circ.PeriodicBandOperator:
    tau = int(rng.integers(1, max_tau + 1))
    band = int(rng.integers(0, max_band + 1))
    coeffs = _random_complex(rng, (tau, 2 * band + 1), 1.0)
    pert = []
    if perturbed:
        for _ in range(int(rng.integers(1, 4))):
            r = int(rng.integers(-12, 13))
            c = int(rng.integers(r - band - 2, r + band + 3))
            pert.append((r, c, complex(_random_complex(rng, 1, 1.0)[0])))
    return circ.PeriodicBandOperator(tau, band, coeffs, pert)


def random_two_tail(rng, max_tau: int = 4, max_band: int = 3,
                    perturbed: bool = False) -> circ.PeriodicBandOperator:
    """A random band operator given a second random pattern for rows ``l < 0``."""
    op = random_bandop(rng, max_tau, max_band, perturbed)
    tau = int(rng.integers(1, max_tau + 1))
    left = (tau, _random_complex(rng, (tau, 2 * op.band + 1), 1.0))
    return circ.PeriodicBandOperator(op.tau, op.band, op.coeffs, op.perturbation, left)


#: 2 sin x on rows l >= 0, 2 cos x on rows l < 0: both tails have mass 2, and the
#: squared norm is the mean of max(4 cos^2, 4 sin^2) = 2 + 2|cos 2a|, 2 + 4/pi.
COS_SIN = circ.PeriodicBandOperator(1, 1, [[-1j, 0.0, 1j]], left=(1, [[1.0, 0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Circle suites


@_per_trial(("window-oracle-within-derived-bound", 1e-12),
            ("window-oracle-within-1e-2-at-1e4", 1e-2))
def rho_oracle(rng):
    diff, derived = circ._window_gap(random_seq(rng))
    return {}, diff - derived, diff


def dt_integral(rng, trials: int) -> list[PropertyCheck]:
    agree = PropertyCheck("quadrature-matches-parseval-closed-form", 1e-10)
    cosine = PropertyCheck("double-cosine-multiplier-norm-is-2", 1e-12)
    res = circ.dt_mu_norm_sq(circ.dt_from_multiplier({1: 1.0, -1: 1.0}))
    cosine.update(abs(res.quadrature - 2.0), {})
    cosine.update(abs(res.closed_form - 2.0), {})
    for i in range(trials):
        op = random_bandop(rng)
        r = circ.dt_mu_norm_sq(op)
        agree.update(abs(r.quadrature - r.closed_form),
                     {"trial": i, "tau": op.tau, "band": op.band})
    return [agree, cosine]


def _grid_error(op: circ.PeriodicBandOperator, n: int) -> float:
    """Bound on |grid mean - integral| of ``rho_la = rho_R + max(D, 0)`` on ``n`` points.

    The grid mean, the periodic trapezoid rule, is exact on ``rho_R`` (degree
    ``2B < n``); on ``max(D, 0)`` it errs by ``h^3 max|D''|/12`` per cell, or
    ``h^2 max|D'|/4`` on the at most ``4B`` cells with a crossing.
    """
    g = np.abs(circ._density_coefficients(op.left)
               - circ._density_coefficients((op.tau, op.coeffs)))
    k = np.abs(np.arange(g.size) - 2 * op.band)
    h = 2.0 * np.pi / n
    return h * h * (float(k**2 @ g) / 12.0 + op.band * float(k @ g) / (2.0 * np.pi))


def two_tail_integral(rng, trials: int) -> list[PropertyCheck]:
    """Both routes of the crossing integral against each other and a fine grid; the trace below."""
    routes = PropertyCheck("closed-form-matches-gauss-legendre", 1e-10)
    grid = PropertyCheck("closed-form-within-derived-bound-of-grid-mean", 1e-12)
    bound = PropertyCheck("average-trace-below-squared-norm", 1e-10)
    strict = PropertyCheck("cos-sin-tails-exceed-average-trace-by-4-over-pi", 1e-14)
    for value in circ.dt_mu_norm_sq(COS_SIN):
        strict.update(abs(value - circ.avg_trace(COS_SIN) - 4.0 / np.pi), {})
    n = 4096
    angles = 2.0 * np.pi * np.arange(n) / n
    ops = [COS_SIN] + [random_two_tail(rng, perturbed=bool(rng.random() < 0.3))
                       for _ in range(trials)]
    for i, op in enumerate(ops):
        r = circ.dt_mu_norm_sq(op)
        info = {"trial": i, "tau": (op.left[0], op.tau), "band": op.band}
        routes.update(abs(r.quadrature - r.closed_form), info)
        grid.update(abs(float(np.mean(circ.rho_la(op, angles))) - r.closed_form)
                    - _grid_error(op, n), info)
        bound.update(circ.avg_trace(op) - r.closed_form, info)
    return [routes, grid, bound, strict]


def _unitary_conjugators(rng) -> list[circ.PeriodicBandOperator]:
    k = int(rng.integers(1, 4))
    phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return [
        circ.dt_from_multiplier({k: 1.0}),        # shift power
        circ.dt_from_multiplier({0: phase}),      # unimodular constant
        circ.dt_from_multiplier({k: phase}),      # product of the two
    ]


@_per_trial(("average-trace-unitary-invariance", 1e-10))
def trace_invariance(rng):
    w = random_bandop(rng, max_tau=4, max_band=4)
    base = circ.avg_trace(w)

    def gap(u):  # of u W, W u and u* W u from W
        wu = circ.dt_compose(w, u)
        return max(abs(circ.avg_trace(x) - base)
                   for x in (circ.dt_compose(u, w), wu, circ.dt_compose(circ.dt_adjoint(u), wu)))
    return {"tau": w.tau, "band": w.band}, [(gap(u), {}) for u in _unitary_conjugators(rng)]


@_per_trial(("finite-section-norm-below-dt-norm", 1e-10), ("dt-norm-submultiplicative", 1e-10))
def norm_chain(rng):
    op = random_bandop(rng, max_tau=6, max_band=6, perturbed=bool(rng.random() < 0.3))
    size = int(rng.integers(4, 65))
    start = int(rng.integers(-16, 8))
    sec = circ.finite_section(op, range(start, start + size))
    w1 = random_bandop(rng, max_tau=4, max_band=4)
    w2 = random_bandop(rng, max_tau=4, max_band=4)
    return ({}, [(float(np.linalg.norm(sec, 2)) - circ.dt_norm(op),
                  {"tau": op.tau, "band": op.band, "size": size})],
            circ.dt_norm(circ.dt_compose(w1, w2)) - circ.dt_norm(w1) * circ.dt_norm(w2))


@_per_trial(("adjoint-preserves-dt-norm", 1e-12), ("adjoint-is-an-involution", 1e-12),
            ("dt-norm-triangle", 1e-12))
def dt_star_algebra(rng):
    a = random_bandop(rng, max_tau=5, max_band=5, perturbed=bool(rng.random() < 0.3))
    b = random_bandop(rng, max_tau=5, max_band=5)
    adj, norm_a = circ.dt_adjoint(a), circ.dt_norm(a)
    sec_a = circ.finite_section(a, range(-10, 11))
    sec_aa = circ.finite_section(circ.dt_adjoint(adj), range(-10, 11))
    return ({}, abs(circ.dt_norm(adj) - norm_a), float(np.max(np.abs(sec_a - sec_aa))),
            circ.dt_norm(circ.dt_add(a, b)) - (norm_a + circ.dt_norm(b)))


@_per_trial(("row-symbol-bounded-by-dt-norm", 1e-10))
def w_symbol_bound(rng):
    op = random_bandop(rng, max_tau=6, max_band=6, perturbed=bool(rng.random() < 0.3))
    c = circ.dt_norm(op)
    gaps = []
    for _ in range(8):
        l = int(rng.integers(-12, 13))
        gaps.append((abs(circ.w_l(op, l, float(rng.uniform(0, 2 * np.pi)))) - c, {"l": l}))
    return {}, gaps


#: rho-la-continuity's widest band, and the phase table ``exp(-i d a)`` of its grid,
#: 1025 points from 0 to 2 pi in steps of 2 pi / 1024, for ``d = -W..W``.
_CONTINUITY_BAND = 6
_CONTINUITY_PHASES = np.exp(-1j * np.outer(np.arange(-_CONTINUITY_BAND, _CONTINUITY_BAND + 1),
                                           2.0 * np.pi * np.arange(1025) / 1024))


@_per_trial(("symbol-density-grid-continuity", 1e-12))
def rho_la_continuity(rng):
    """Each grid step of ``rho_la`` within ``2 * band * dt_norm**2`` times the step.

    ``|w_l| <= dt_norm`` and ``|w_l'| <= sum_d |d| |W_{l,l+d}| <= band * dt_norm``, so
    ``|(|w_l|^2)'| = 2 |Re(conj(w_l) w_l')| <= 2 * band * dt_norm**2``; a row mean over
    a period, and the max over the tails, keep that Lipschitz constant.  The draw reads
    rows ``[W - band, W + band]`` of the suite's table, what ``rho_la`` computes.
    """
    op = random_bandop(rng, max_tau=6, max_band=_CONTINUITY_BAND)
    w = _CONTINUITY_BAND
    max_step = float(np.max(np.abs(np.diff(
        circ._density(op, _CONTINUITY_PHASES[w - op.band:w + op.band + 1])))))
    lip = 2 * op.band * circ.dt_norm(op) ** 2
    return {"tau": op.tau, "band": op.band}, max_step - lip * (2.0 * np.pi / 1024)


def _covering_window(*ops: circ.PeriodicBandOperator) -> range:
    """Rows of a section that holds row 0 and every perturbation entry of ``ops``,
    plus ``tau + 2*band + 1`` rows on each side for the longest period ``tau``."""
    ends = [0] + [x for op in ops for r, c, _ in op.perturbation for x in (r, c)]
    margin = max(tau + 2 * op.band for op in ops for tau, _ in op.tails) + 1
    return range(min(ends) - margin, max(ends) + margin + 1)


def _diagonal_sups(sec: np.ndarray) -> dict[int, float]:
    """``k -> max_j |sec[j + k, j]|`` for every nonzero diagonal of a square section."""
    n = sec.shape[0]
    sups = {k: float(np.abs(np.diagonal(sec, -k)).max()) for k in range(1 - n, n)}
    return {k: v for k, v in sups.items() if v > 0.0}


def _section_pairs(rng, two_tail: bool) -> tuple:
    """One draw's majorant, ``dt_norm``, row symbol, product and, for two tails, adjoint
    pairs of two perturbed operators against dense sections holding a period of each tail
    beyond all perturbations."""
    draw = random_two_tail if two_tail else random_bandop
    a, b = draw(rng, 5, 4, perturbed=True), draw(rng, 5, 4, perturbed=True)
    rows = _covering_window(a, b)
    index = np.arange(rows.start, rows.stop)
    sup, norm, symbol, sections = [], [], [], []
    for op in (a, b):
        sec = circ.finite_section(op, rows)
        sections.append(sec)
        got, want = op.majorant(), _diagonal_sups(sec)
        info = {"tau": op.tau, "band": op.band}
        sup.append((max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in {*got, *want}),
                        default=0.0), info))
        norm.append((abs(circ.dt_norm(op) - sum(want.values())), info))
        first = -op.left[0] if len(op.tails) > 1 else 0  # a full period of each tail
        for l in sorted({*range(first, op.tau), *(r for r, _, _ in op.perturbation)}):
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            want_w = complex(sec[l - rows.start] @ np.exp(1j * (l - index) * angle))
            symbol.append((abs(circ.w_l(op, l, angle) - want_w), {"l": l}))
    # rows at least a.band inside the window see every term of the product
    inner = slice(a.band, len(rows) - a.band)
    got = circ.finite_section(circ.dt_compose(a, b), rows)[inner]
    want = (sections[0] @ sections[1])[inner]
    pairs = [sup, norm, symbol, [(float(np.max(np.abs(got - want))),
                                  {"tau": (a.tau, b.tau), "band": (a.band, b.band)})]]
    if two_tail:
        star = circ.finite_section(circ.dt_adjoint(a), rows)
        pairs.append([(float(np.max(np.abs(star - sections[0].conj().T))),
                       {"tau": a.tau, "band": a.band})])
    return {}, *pairs


@_per_trial(("majorant-is-the-diagonal-sup-of-a-section", 1e-12),
            ("dt-norm-sums-the-diagonal-sups-of-a-section", 1e-12),
            ("row-symbol-sums-its-section-row", 1e-12),
            ("perturbed-product-matches-section-product", 1e-12))
def section_route(rng):
    """Majorant, ``dt_norm``, row symbols and perturbed products against dense finite sections."""
    return _section_pairs(rng, two_tail=False)


@_per_trial(("two-tail-majorant-is-the-diagonal-sup-of-a-section", 1e-12),
            ("two-tail-dt-norm-sums-the-diagonal-sups-of-a-section", 1e-12),
            ("two-tail-row-symbol-sums-its-section-row", 1e-12),
            ("two-tail-product-matches-section-product", 1e-12),
            ("two-tail-adjoint-is-the-conjugate-transpose-of-a-section", 1e-12))
def two_tail_section(rng):
    """Two-tail majorant, ``dt_norm``, row symbols, products and adjoints against sections
    across row 0."""
    return _section_pairs(rng, two_tail=True)

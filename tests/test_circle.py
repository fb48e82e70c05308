import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from munorm import (
    CapExceeded,
    PeriodicBandOperator,
    avg_trace,
    dt_add,
    dt_adjoint,
    dt_compose,
    dt_from_multiplier,
    dt_from_seq,
    dt_mu_norm_sq,
    dt_norm,
    finite_section,
    rho_la,
    rho_window_max,
    tail_masses,
    w_l,
)
from munorm import circle
from munorm.circle import _SCAN_BLOCK, ORACLE_WINDOW
from munorm.verify_circle import COS_SIN, random_bandop, random_two_tail

ALL_ONES = dt_from_seq([1.0], [1.0])
ZERO_SEQ = dt_from_seq([0.0], [0.0])
HALF_SEQ = dt_from_seq([0.0], [1.0, 0.0], k0=1)  # ..0,0,[1,0,1,0..] from k=1
ODD_SEQ = dt_from_seq([1.0, 0.0], [1.0, 0.0], k0=1)  # lam_k = 1 iff k odd
SHIFT = dt_from_multiplier({1: 1.0})
TWO_COS = dt_from_multiplier({1: 1.0, -1: 1.0})


def _seq_value(left, right, middle, k0, k):
    # the eventually periodic sequence by its definition
    if k >= k0:
        return right[(k - k0) % len(right)]
    if k <= -k0:
        return left[(-k0 - k) % len(left)]
    return middle.get(k, 0.0)


# --------------------------------------------------------------------------
# sequences


def test_seq_validation():
    with pytest.raises(ValueError, match="nonempty"):
        dt_from_seq([], [1.0])
    with pytest.raises(ValueError, match="k0"):
        dt_from_seq([1.0], [1.0], k0=-1)
    with pytest.raises(ValueError, match="strictly inside"):
        dt_from_seq([1.0], [1.0], middle={0: 2.0}, k0=0)
    with pytest.raises(ValueError, match="left\\[0\\] must equal right\\[0\\]"):
        dt_from_seq([0.0], [1.0], k0=0)


def test_seq_values_layout():
    seq = dt_from_seq([5.0, 6.0], [1.0, 2.0], middle={0: 9.0}, k0=2)
    # right tail: k=2 -> 1, k=3 -> 2, k=4 -> 1 ...
    # left tail read outward: k=-2 -> 5, k=-3 -> 6, k=-4 -> 5 ...
    assert seq.entry(2, 2) == 1.0 and seq.entry(3, 3) == 2.0 and seq.entry(4, 4) == 1.0
    assert seq.entry(-2, -2) == 5.0 and seq.entry(-3, -3) == 6.0 and seq.entry(-4, -4) == 5.0
    assert seq.entry(0, 0) == 9.0 and seq.entry(1, 1) == 0.0 and seq.entry(-1, -1) == 0.0
    np.testing.assert_array_equal(
        finite_section(seq, range(-3, 4)), np.diag(np.array([6, 5, 0, 9, 0, 1, 2], dtype=complex))
    )
    # the tails re-indexed so that row l reads coeffs[l % tau]
    assert seq.tau == 2 and seq.band == 0 and seq.coeffs[:, 0].tolist() == [1.0, 2.0]
    assert seq.left[0] == 2 and seq.left[1][:, 0].tolist() == [5.0, 6.0]
    assert tail_masses(seq) == (30.5, 2.5)


def test_rho_examples():
    assert avg_trace(ALL_ONES) == 1.0
    assert avg_trace(ZERO_SEQ) == 0.0
    assert avg_trace(HALF_SEQ) == 0.5
    assert tail_masses(HALF_SEQ) == (0.0, 0.5)


def test_rho_window_oracle_period_two():
    for window, tol in ((10**4, 1e-2), (10**5, 1e-3)):
        assert rho_window_max(HALF_SEQ, window) == pytest.approx(0.5, abs=tol)


def test_rho_window_oracle_finite_support():
    spike = dt_from_seq([0.0], [0.0], middle={0: 3.0}, k0=1)
    assert avg_trace(spike) == 0.0
    # the lone spike spreads over the window
    assert rho_window_max(spike, 1000) == pytest.approx(9.0 / 1000, abs=1e-12)


def test_conv_norm_examples():
    assert dt_norm(ALL_ONES) == 1.0
    finite = dt_from_seq([0.0], [0.0], middle={0: 2.0, 1: 1j}, k0=2)
    assert dt_norm(finite) == 2.0
    assert dt_norm(ZERO_SEQ) == 0.0


def test_conv_mu_norm_sq():
    # the squared partition norm of a convolution is its window density
    assert dt_mu_norm_sq(ALL_ONES) == (1.0, 1.0)
    assert avg_trace(HALF_SEQ) == 0.5
    finite = dt_from_seq([0.0], [0.0], middle={0: 2.0}, k0=1)
    # vanishing partition norm without compactness: the boundary case
    assert avg_trace(finite) == 0.0 and dt_mu_norm_sq(finite).closed_form == 0.0
    assert dt_norm(finite) == 2.0  # the diagonal model keeps the sup


def test_dt_from_conv_all_ones_is_identity_model():
    # equal tails keep one pattern: all ones is the identity
    assert ALL_ONES.tails == ((1, ALL_ONES.coeffs),) and ALL_ONES.perturbation == ()
    np.testing.assert_array_equal(finite_section(ALL_ONES, range(-3, 4)), np.eye(7))
    assert dt_norm(ALL_ONES) == 1.0
    assert avg_trace(ALL_ONES) == 1.0


def test_dt_from_conv_constant():
    c = 0.5 - 0.25j
    d = dt_from_seq([c], [c])
    np.testing.assert_array_equal(finite_section(d, range(0, 3)), c * np.eye(3))


def test_dt_from_conv_middle_exception_becomes_perturbation():
    # a middle value that deviates from its tail becomes a perturbation entry
    op = dt_from_seq([1.0], [1.0], middle={0: 3.0}, k0=1)
    assert op.tau == 1 and op.band == 0 and len(op.tails) == 1
    assert op.perturbation == ((0, 0, 2.0 + 0.0j),)
    np.testing.assert_array_equal(
        finite_section(op, range(-1, 2)), np.diag([1.0, 3.0, 1.0]).astype(complex)
    )


def test_seq_reads_unequal_tails_as_two_tails():
    # tails of different periods, or misaligned, are two tails
    shifted = dt_from_seq([0.0, 1.0], [1.0, 0.0], k0=1)  # lam_-1 = 0, lam_1 = 1
    for seq in (HALF_SEQ, shifted):
        assert len(seq.tails) == 2
        assert avg_trace(seq) == 0.5 and dt_norm(seq) == 1.0
        assert dt_mu_norm_sq(seq) == (0.5, 0.5)


def test_diagonal_model_w_and_density():
    d = dt_from_seq([1.0], [1.0], middle={0: 3.0}, k0=1)
    assert w_l(d, 0, 0.3) == 3.0  # only the j = l term survives
    assert w_l(d, 5, 1.1) == 1.0
    assert rho_la(d, 0.7) == 1.0
    res = dt_mu_norm_sq(d)
    assert res.quadrature == pytest.approx(1.0, abs=1e-14)
    assert res.closed_form == 1.0


# --------------------------------------------------------------------------
# multipliers and the band algebra


def test_dt_from_multiplier_constant():
    op = dt_from_multiplier({0: 2.5})
    np.testing.assert_array_equal(finite_section(op, range(0, 3)), 2.5 * np.eye(3))


def test_shift_structure():
    sec = finite_section(SHIFT, range(0, 4))
    np.testing.assert_array_equal(sec, np.diag(np.ones(3), -1).astype(complex))
    assert dt_norm(SHIFT) == 1.0
    assert np.linalg.norm(sec, 2) == pytest.approx(1.0, abs=1e-12)


def test_two_cos_structure():
    sec = finite_section(TWO_COS, range(0, 5))
    expected = np.diag(np.ones(4), -1) + np.diag(np.ones(4), 1)
    np.testing.assert_array_equal(sec, expected.astype(complex))
    assert dt_norm(TWO_COS) == 2.0


def test_two_cos_section_spectral_norm():
    n = 10
    sec = finite_section(TWO_COS, range(0, n))
    top = float(np.linalg.norm(sec, 2))
    assert top == pytest.approx(2 * math.cos(math.pi / (n + 1)), abs=1e-10)
    assert top <= dt_norm(TWO_COS) + 1e-10


def test_dt_norm_multiplier_is_coefficient_mass():
    g = {2: 1.5, 0: -0.5j, -1: 2.0}
    assert dt_norm(dt_from_multiplier(g)) == pytest.approx(4.0, abs=1e-15)


def test_shift_times_adjoint_is_identity():
    prod = dt_compose(SHIFT, dt_adjoint(SHIFT))
    np.testing.assert_allclose(finite_section(prod, range(-2, 3)), np.eye(5), atol=1e-15)


def test_adjoint_involution_and_norm():
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    op = PeriodicBandOperator(3, 2, coeffs, [(1, 4, 0.7 - 0.2j)])
    assert dt_norm(dt_adjoint(op)) == pytest.approx(dt_norm(op), abs=1e-12)
    twice = dt_adjoint(dt_adjoint(op))
    np.testing.assert_allclose(
        finite_section(twice, range(-5, 6)), finite_section(op, range(-5, 6)), atol=1e-15
    )


def test_adjoint_matches_conjugate_transpose_on_sections():
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    op = PeriodicBandOperator(2, 1, coeffs)
    # interior of the window is aliasing-free for band 1
    sec = finite_section(op, range(-8, 9))[1:-1, 1:-1]
    sec_star = finite_section(dt_adjoint(op), range(-8, 9))[1:-1, 1:-1]
    np.testing.assert_allclose(sec_star, sec.conj().T, atol=1e-14)


def test_dt_add_lifts_period_and_band():
    a = PeriodicBandOperator(2, 0, [[1.0], [2.0]])
    b = PeriodicBandOperator(3, 1, np.ones((3, 3)))
    s = dt_add(a, b)
    assert s.tau == 6 and s.band == 1
    assert s.entry(0, 0) == 2.0 and s.entry(1, 1) == 3.0
    assert s.entry(4, 5) == 1.0


def test_compose_band_and_period_growth():
    a = PeriodicBandOperator(2, 1, np.ones((2, 3)))
    b = PeriodicBandOperator(3, 2, np.ones((3, 5)))
    c = dt_compose(a, b)
    assert c.tau == 6 and c.band == 3


def test_compose_matches_dense_sections():
    rng = np.random.default_rng(12)
    a = PeriodicBandOperator(2, 1, rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
                             [(0, 2, 0.5j)])
    b = PeriodicBandOperator(3, 2, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)),
                             [(1, -1, -0.25)])
    prod = dt_compose(a, b)
    # interior rows/cols of a wide window see the full band of both factors
    wide = range(-20, 21)
    dense = finite_section(a, wide) @ finite_section(b, wide)
    got = finite_section(prod, wide)
    m = len(wide)
    pad = a.band + b.band
    np.testing.assert_allclose(got[pad:m - pad, pad:m - pad],
                               dense[pad:m - pad, pad:m - pad], atol=1e-12)


def test_caps_raise():
    with pytest.raises(CapExceeded, match="band"):
        dt_from_multiplier({200: 1.0})
    big_a = PeriodicBandOperator(64, 0, np.ones((64, 1)))
    big_b = PeriodicBandOperator(96, 0, np.ones((96, 1)))
    with pytest.raises(CapExceeded, match="period"):
        dt_add(big_a, big_b)
    wide = PeriodicBandOperator(1, 100, np.ones((1, 201)))
    with pytest.raises(CapExceeded, match="band"):
        dt_compose(wide, wide)


def test_perturbation_windows_past_the_cell_cap_are_refused():
    from munorm.circle import MAX_WINDOW

    with pytest.raises(CapExceeded, match=f"exceeds the cap {MAX_WINDOW} cells"):
        PeriodicBandOperator(1, 0, [[1.0]], [(0, 0, 1.0), (10**7, 10**7, 1.0)])
    with pytest.raises(CapExceeded, match="perturbation window"):
        dt_from_seq([1.0], [1.0], {0: 2.0}, 10**6)  # a middle of 2*10^6 - 1 cells
    # each operand fits; the sum, the product or the adjoint does not
    near, far = (PeriodicBandOperator(1, 1, [[1.0, 1.0, 1.0]], [(r, r, 1.0)])
                 for r in (0, 10**7))
    with pytest.raises(CapExceeded, match="perturbation window"):
        dt_add(near, far)
    column = PeriodicBandOperator(1, 0, [[1.0]], [(0, 0, 1.0), (6 * 10**5, 6 * 10**5, 1.0)])
    with pytest.raises(CapExceeded, match="perturbation window"):
        dt_compose(column, near)
    row = PeriodicBandOperator(1, 0, [[1.0]], [(0, 0, 1.0), (0, 5 * 10**5, 1.0)])
    with pytest.raises(CapExceeded, match="perturbation window"):
        dt_adjoint(row)


def test_band_rows_under_a_window_are_refused_before_they_are_allocated():
    # a 10^6 + 1 row window fits, but a product or adjoint reads the band-128 rows
    # beneath it, 257 offsets each: refused before about 4 GB is allocated
    import tracemalloc

    far = PeriodicBandOperator(1, 128, np.ones((1, 257)), [(0, 0, 1.0), (10**6, 10**6, 2.0)])
    narrow = PeriodicBandOperator(1, 0, [[1.0]])
    tracemalloc.start()
    try:
        for call in (lambda: dt_compose(far, narrow), lambda: dt_compose(narrow, far),
                     lambda: dt_adjoint(far)):
            with pytest.raises(CapExceeded, match="x 257 offsets exceeds the cap"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26, peak
    # row 10^6 holds the heaviest row: 257 ones, one of them raised to 3
    assert far.majorant()[0] == 3.0 and rho_window_max(far, 1) == 256.0 + 9.0


# --------------------------------------------------------------------------
# symbols, density, quadrature, trace


def test_w_l_multiplier_independent_of_row():
    g = {1: 1.0, -1: 1.0, 2: 0.5j}
    op = dt_from_multiplier(g)
    for a in (0.0, 0.7, 2.4):
        expected = sum(v * np.exp(1j * k * a) for k, v in g.items())
        for l in (-3, 0, 5):
            assert w_l(op, l, a) == pytest.approx(expected, abs=1e-12)


def test_w_l_zero_operator():
    z = PeriodicBandOperator(1, 0, [[0.0]])
    assert w_l(z, 3, 1.0) == 0.0
    assert rho_la(z, 1.0) == 0.0
    assert dt_mu_norm_sq(z).quadrature == 0.0
    assert avg_trace(z) == 0.0


def test_w_l_includes_perturbation_in_its_row():
    op = PeriodicBandOperator(1, 0, [[1.0]], [(2, 3, 1.0)])
    a = 0.9
    assert w_l(op, 0, a) == pytest.approx(1.0, abs=1e-14)
    assert w_l(op, 2, a) == pytest.approx(1.0 + np.exp(1j * (2 - 3) * a), abs=1e-14)


def test_w_l_sums_the_row_exactly():
    rng = np.random.default_rng(47)
    for _ in range(200):
        tau, band = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        coeffs = rng.standard_normal((tau, 2 * band + 1)) + 1j * rng.standard_normal((tau, 2 * band + 1))
        rows = rng.choice(np.arange(-3, 4), int(rng.integers(0, 3)), replace=False)
        pert = [(int(r), int(rng.integers(-6, 7)), complex(rng.standard_normal())) for r in rows]
        op = PeriodicBandOperator(tau, band, coeffs, pert)
        l, a = int(rng.integers(-3, 4)), float(rng.uniform(0, 2 * np.pi))
        want = complex(op.coeffs[l % tau] @ np.exp(-1j * np.arange(-band, band + 1) * a))
        for r, c, delta in op.perturbation:
            if r == l:
                want += delta * np.exp(1j * (l - c) * a)
        assert w_l(op, l, a) == want


def test_rho_la_multiplier_is_symbol_modulus():
    g = {1: 1.0, -1: 1.0}
    op = dt_from_multiplier(g)
    for a in (0.0, 0.5, 1.8, 3.0):
        assert rho_la(op, a) == pytest.approx(abs(2 * math.cos(a)) ** 2, abs=1e-12)


def test_rho_la_shift_is_one_and_ignores_perturbation():
    assert rho_la(SHIFT, 0.3) == pytest.approx(1.0, abs=1e-14)
    bumped = PeriodicBandOperator(1, 1, [[0.0, 0.0, 1.0]], [(5, 4, 7.0)])
    assert rho_la(bumped, 0.3) == pytest.approx(1.0, abs=1e-14)


def test_dt_mu_norm_two_cos():
    res = dt_mu_norm_sq(TWO_COS)
    assert res.quadrature == pytest.approx(2.0, abs=1e-12)
    assert res.closed_form == pytest.approx(2.0, abs=1e-15)


def test_dt_mu_norm_matches_conv_for_periodic_diagonal():
    op = ODD_SEQ
    assert op.tau == 2 and op.band == 0 and op.perturbation == () and len(op.tails) == 1
    res = dt_mu_norm_sq(op)
    assert res.quadrature == pytest.approx(0.5, abs=1e-12)
    assert res.closed_form == pytest.approx(0.5, abs=1e-15)


def test_quad_floor_is_exact_at_the_boundary():
    # a uniform grid of 2*band + 1 points, the grid of dt_mu_norm_sq on one tail,
    # averages the density exactly
    rng = np.random.default_rng(31)
    for _ in range(40):
        op = random_bandop(rng, max_tau=8, max_band=8, perturbed=bool(rng.random() < 0.5))
        floor = 2 * op.band + 1
        grid_mean = float(np.mean(rho_la(op, 2.0 * np.pi * np.arange(floor) / floor)))
        assert grid_mean == pytest.approx(avg_trace(op), abs=1e-12)
        assert dt_mu_norm_sq(op).quadrature == grid_mean


def test_quad_floor_is_tight():
    # |2cos a|^2 = 2 + 2cos 2a: two points alias cos 2a to 1
    def grid_mean(n):
        return float(np.mean([rho_la(TWO_COS, 2 * np.pi * k / n) for k in range(n)]))

    assert grid_mean(2) == pytest.approx(4.0, abs=1e-12)
    assert grid_mean(3) == pytest.approx(2.0, abs=1e-12)


def test_dt_mu_norm_random_agreement():
    rng = np.random.default_rng(77)
    for _ in range(25):
        tau = int(rng.integers(1, 9))
        band = int(rng.integers(0, 9))
        coeffs = rng.standard_normal((tau, 2 * band + 1))
        op = PeriodicBandOperator(tau, band, coeffs)
        res = dt_mu_norm_sq(op)
        assert res.quadrature == pytest.approx(res.closed_form, abs=1e-10)


# --------------------------------------------------------------------------
# two tails: the crossing integral and the seam


def test_two_tail_cos_sin_integral_is_exact():
    # max(4 cos^2 a, 4 sin^2 a) = 2 + 2|cos 2a| averages to 2 + 4/pi, above the trace 2
    assert len(COS_SIN.tails) == 2 and tail_masses(COS_SIN) == (2.0, 2.0)
    assert avg_trace(COS_SIN) == 2.0
    res = dt_mu_norm_sq(COS_SIN)
    assert abs(res.closed_form - 4 * (0.5 + 1 / math.pi)) <= 1e-14
    assert abs(res.quadrature - 4 * (0.5 + 1 / math.pi)) <= 1e-14
    for a in (0.1, 1.0, 2.5):
        assert rho_la(COS_SIN, a) == pytest.approx(max(4 * math.cos(a) ** 2, 4 * math.sin(a) ** 2),
                                                   abs=1e-14)


def test_two_tail_tangency():
    # left: rows 1 + e^{ia} and 1 + e^{2ia}, density 2 + cos a + cos 2a; right: the constant 2.
    # Their difference (2 cos a - 1)(cos a + 1) has a double root at pi and simple roots
    # at +-pi/3, so the integral is 2 + (1/2pi) int_{-pi/3}^{pi/3} (cos a + cos 2a) da.
    left = [[0.0, 0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 1.0]]
    op = PeriodicBandOperator(1, 2, [[0.0, 0.0, math.sqrt(2.0), 0.0, 0.0]], left=(2, left))
    want = 2.0 + 3.0 * math.sqrt(3.0) / (4.0 * math.pi)
    res = dt_mu_norm_sq(op)
    assert abs(res.closed_form - want) <= 1e-14
    assert abs(res.quadrature - want) <= 1e-14
    assert avg_trace(op) == pytest.approx(2.0, abs=1e-15)


def _grid_density(tail, n):
    # (1/tau) sum_l |w_l|^2 on n uniform points by one FFT per row
    tau, coeffs = tail
    return sum(np.abs(np.fft.fft(row, n)) ** 2 for row in coeffs) / tau


def test_band_64_two_tail_against_a_fine_grid():
    rng = np.random.default_rng(64)
    band, n = 64, 2**20
    left, right = ((tau, _random_coeffs(rng, tau, band) / math.sqrt(2 * band + 1)) for tau in (2, 3))
    op = PeriodicBandOperator(*right[:1], band, right[1], left=left)
    res = dt_mu_norm_sq(op)
    grid_mean = float(np.mean(np.maximum(_grid_density(left, n), _grid_density(right, n))))
    # max(rho_L, rho_R) = rho_R + max(D, 0), D of degree 2*band with coefficients g_k.
    # The grid mean is the periodic trapezoid rule, exact on rho_R; on max(D, 0) it errs
    # by h^3 max|D''|/12 on a cell without a crossing, h^2 max|D'|/4 on each of the at
    # most 4*band cells with one.  Summed and divided by 2pi:
    g = np.abs(sum(np.correlate(r, r, "full") for r in left[1]) / 2
               - sum(np.correlate(r, r, "full") for r in right[1]) / 3)
    k = np.abs(np.arange(-2 * band, 2 * band + 1))
    h = 2 * math.pi / n
    bound = h * h * (float(k**2 @ g) / 12 + band * float(k @ g) / (2 * math.pi))
    assert abs(grid_mean - res.closed_form) <= bound
    assert abs(res.quadrature - res.closed_form) <= 1e-10
    assert res.closed_form > avg_trace(op) + 1e-3


def test_equal_tails_take_no_root_solve_and_no_seam_terms(monkeypatch):
    def refuse(*args):
        raise AssertionError("two-tail route taken")

    for name in ("_density_coefficients", "_crossings"):
        monkeypatch.setattr(circle, name, refuse)
    rng = np.random.default_rng(5)
    a = random_bandop(rng, max_tau=4, max_band=3, perturbed=True)
    # a left pattern equal to the right one is no second tail, so no seam rows
    same = PeriodicBandOperator(a.tau, a.band, a.coeffs, a.perturbation,
                                left=(a.tau, a.coeffs.copy()))
    assert len(same.tails) == 1 and same.left[0] == a.tau
    assert circle._seam(same, same.band) == (0, 0) != circle._seam(random_two_tail(rng, 2, 1), 1)
    for op, plain in ((same, a), (dt_compose(same, same), dt_compose(a, a)),
                      (dt_adjoint(same), dt_adjoint(a)), (dt_add(same, same), dt_add(a, a))):
        assert len(op.tails) == 1 and op.perturbation == plain.perturbation
        dt_mu_norm_sq(op)


def test_two_tail_kernels_match_dense_sections_across_the_seam():
    rng = np.random.default_rng(16)
    rows, inner = range(-30, 31), slice(12, 49)
    for _ in range(30):
        a, b = (random_two_tail(rng, max_tau=5, max_band=4, perturbed=True) for _ in range(2))
        sa, sb = finite_section(a, rows), finite_section(b, rows)
        np.testing.assert_allclose(finite_section(dt_compose(a, b), rows)[inner],
                                   (sa @ sb)[inner], rtol=0, atol=1e-12)
        np.testing.assert_allclose(finite_section(dt_adjoint(a), rows), sa.conj().T,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(finite_section(dt_add(a, b), rows), sa + sb, rtol=0, atol=1e-12)
        sups = {k: float(np.abs(np.diagonal(sa, -k)).max()) for k in range(-12, 13)}
        got = a.majorant()
        for k, v in sups.items():
            assert got.get(k, 0.0) == pytest.approx(v, abs=1e-12)
        for l in (-7, -1, 0, 1, 6):
            angle = float(rng.uniform(0, 2 * np.pi))
            want = sa[l + 30] @ np.exp(1j * (l - np.arange(-30, 31)) * angle)
            assert abs(w_l(a, l, angle) - want) <= 1e-12


def test_avg_trace_examples():
    assert avg_trace(SHIFT) == 1.0
    g = {0: 1.0, 3: 2.0, -1: 0.5j}
    assert avg_trace(dt_from_multiplier(g)) == pytest.approx(5.25, abs=1e-15)


def test_rho_window_max_converges_and_sees_perturbation():
    op = PeriodicBandOperator(2, 1, [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]], [(0, 1, 3.0)])
    limit = avg_trace(op)
    # perturbed entry (0,1): base 2 -> 5, adds 21 to row 0's mass once; every
    # window of even length holds whole periods, so the best one holds row 0
    assert rho_window_max(op, 2) == pytest.approx(limit + 21.0 / 2, abs=1e-12)
    assert rho_window_max(op, 10000) == pytest.approx(limit + 21.0 / 10000, abs=1e-12)


def test_rho_window_max_refuses_a_scan_past_the_cap_before_allocating():
    # the scan spans rows -reach..reach, reach one past the far row plus 2 * window
    import tracemalloc

    from munorm.circle import MAX_WINDOW

    def at(row):
        return PeriodicBandOperator(1, 0, [[1.0]], [(row, row, 1.0)])

    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"^window scan of 2000040003 rows exceeds the cap "
                                              f"{2 * MAX_WINDOW} rows$"):
            rho_window_max(at(10**9), 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    with pytest.raises(CapExceeded, match="window scan"):
        rho_window_max(at(MAX_WINDOW - 3), 1)
    assert rho_window_max(at(MAX_WINDOW - 4), 1) == 4.0  # 2 * MAX_WINDOW - 1 rows


def test_dt_norm_includes_perturbation_sup():
    base = PeriodicBandOperator(1, 0, [[1.0]])
    assert dt_norm(base) == 1.0
    # on-diagonal bump beyond the periodic value raises c_0
    assert dt_norm(PeriodicBandOperator(1, 0, [[1.0]], [(3, 3, 1.5)])) == 2.5
    # bump below the periodic sup leaves it unchanged
    assert dt_norm(PeriodicBandOperator(1, 0, [[1.0]], [(3, 3, -0.8)])) == 1.0
    # off-band perturbation opens a new diagonal
    assert dt_norm(PeriodicBandOperator(1, 0, [[1.0]], [(0, 5, 2.0)])) == 3.0


def test_majorant_is_the_sup_along_each_diagonal():
    rng = np.random.default_rng(44)
    cols = range(-30, 31)  # covers every period and every perturbed position
    for _ in range(40):
        op = random_bandop(rng, max_tau=6, max_band=6, perturbed=bool(rng.random() < 0.5))
        want = {}
        for k in range(-op.band - 3, op.band + 4):
            sup = max(abs(op.entry(k + j, j)) for j in cols)
            if sup > 0.0:
                want[k] = sup
        got = op.majorant()
        assert sorted(got) == sorted(want)
        for k, v in want.items():
            assert got[k] == pytest.approx(v, rel=1e-14)


def test_finite_section_validation():
    for rows in (range(3, 3), range(0, 9, 2), range(5, -5, -1), [0, 1, 2], (r for r in range(3))):
        with pytest.raises(ValueError, match="nonempty range of step 1"):
            finite_section(SHIFT, rows)


def _entry_section(op, rows):
    return np.array([[op.entry(r, c) for c in rows] for r in rows], dtype=complex)


def test_finite_section_matches_entry_loop():
    rng = np.random.default_rng(8)
    # far starts, one row, fewer rows than the band, fewer rows than the period
    windows = [range(-7, 9), range(-20, -3), range(5, 6), range(-1000, -979),
               range(1000, 1013), range(-1001, -1000), range(3, 5), range(-2, 1)]
    ops = [random_bandop(rng, max_tau=6, max_band=5, perturbed=True) for _ in range(20)]
    ops.append(PeriodicBandOperator(9, 5, rng.normal(size=(9, 11)) + 1j * rng.normal(size=(9, 11))))
    for op in ops:
        # one perturbation far off the band, inside some of the windows
        far = PeriodicBandOperator(op.tau, op.band, op.coeffs,
                                   op.perturbation + ((-5, 5 + op.band + 3, 2.5 - 1j),))
        for rows in windows:
            lo, hi = rows.start, rows.stop - 1
            # perturbations on the window's edge, and just outside it
            edge = PeriodicBandOperator(op.tau, op.band, op.coeffs, op.perturbation + (
                (lo, hi, 1.5j), (hi, lo, -2.0), (lo - 1, lo, 0.5), (hi, hi + 1, 3.0)))
            for sub in (op, far, edge):
                assert finite_section(sub, rows).tobytes() == _entry_section(sub, rows).tobytes()
    # two-tail operators, the seam inside some windows and outside others
    for _ in range(20):
        op = random_two_tail(rng, max_tau=6, max_band=5, perturbed=True)
        for rows in windows:
            assert finite_section(op, rows).tobytes() == _entry_section(op, rows).tobytes()
    # a convolution with unequal tails and a middle, as a band-0 operator
    parts = [1.0, 3j, 0.5], [1.0, 0.5, 3j, 2.0], {-2: 7.0, 1: 0.25j}, 3
    d = dt_from_seq(*parts)
    for rows in windows:
        assert finite_section(d, rows).tobytes() == _entry_section(d, rows).tobytes()
        np.testing.assert_array_equal(finite_section(d, rows),
                                      np.diag([_seq_value(*parts, r) for r in rows]))


def test_periodic_run_reads_rows_modulo_the_period():
    from munorm.circle import _periodic_run

    rng = np.random.default_rng(9)
    for p in range(1, 9):
        period = rng.normal(size=p) + 1j * rng.normal(size=p)
        table = rng.normal(size=(p, 5)) + 1j * rng.normal(size=(p, 5))
        for start in range(-20, 21):
            for count in range(1, 41):
                rows = (start + np.arange(count)) % p
                assert _periodic_run(period, start, count).tobytes() == period[rows].tobytes()
                assert _periodic_run(table, start, count).tobytes() == table[rows].tobytes()


def test_adjoint_matches_conjugate_entries():
    rng = np.random.default_rng(10)
    window = range(-12, 13)
    for _ in range(20):
        a = random_bandop(rng, max_tau=6, max_band=5, perturbed=True)
        star = dt_adjoint(a)
        for r in window:
            for c in window:
                assert star.entry(r, c) == np.conj(a.entry(c, r))


def test_compose_matches_entrywise_dense_product():
    rng = np.random.default_rng(11)
    window, inner = range(-6, 7), range(-40, 41)
    for _ in range(10):
        a = random_bandop(rng, max_tau=4, max_band=3, perturbed=True)
        b = random_bandop(rng, max_tau=5, max_band=3, perturbed=True)
        left = np.array([[a.entry(r, m) for m in inner] for r in window])
        right = np.array([[b.entry(m, c) for c in window] for m in inner])
        got = _entry_section(dt_compose(a, b), window)
        np.testing.assert_allclose(got, left @ right, rtol=0, atol=1e-12)


def test_compose_sums_each_coefficient_in_ascending_d1():
    # reference: one array product per d1, added to 0.0 in ascending d1
    rng = np.random.default_rng(12)
    pairs = [(random_bandop(rng, max_tau=6, max_band=6), random_bandop(rng, max_tau=4, max_band=6))
             for _ in range(40)]
    # the benchmark's band product, and the largest product the caps allow
    for (ta, ba), (tb, bb) in [((8, 32), (16, 32)), ((128, 64), (128, 64))]:
        pairs.append((PeriodicBandOperator(ta, ba, _random_coeffs(rng, ta, ba)),
                      PeriodicBandOperator(tb, bb, _random_coeffs(rng, tb, bb))))
    for a, b in pairs:
        coeffs = a.coeffs.copy()
        coeffs[rng.random(coeffs.shape) < 0.2] = complex(-0.0, -0.0)  # signed zeros too
        a = PeriodicBandOperator(a.tau, a.band, coeffs)
        c = dt_compose(a, b)
        rows = np.arange(c.tau)
        want = np.zeros_like(c.coeffs)
        for d1 in range(-a.band, a.band + 1):
            lo = d1 - b.band + c.band
            want[:, lo:lo + 2 * b.band + 1] += (a.coeffs[rows % a.tau, d1 + a.band, None]
                                                * b.coeffs[(rows + d1) % b.tau])
        assert c.coeffs.tobytes() == want.tobytes()


def test_compose_at_the_caps_needs_memory_of_its_output_only():
    import tracemalloc

    rng = np.random.default_rng(13)
    a, b = (PeriodicBandOperator(128, 64, _random_coeffs(rng, 128, 64)) for _ in range(2))
    tracemalloc.start()
    try:
        c = dt_compose(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (c.tau, c.band) == (128, 128)
    assert peak < 8 * 2**20, peak  # the output alone is 128 x 257 complex, 0.5 MB


def test_diagonal_model_sections_and_window_trace():
    d = ODD_SEQ
    sec = finite_section(d, range(1, 5))
    np.testing.assert_array_equal(sec, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
    assert avg_trace(d) == 0.5 == rho_window_max(d, 2)
    assert rho_window_max(d, 10**4 - 1) == pytest.approx(0.5, abs=1e-4)


# --------------------------------------------------------------------------
# array kernels against the entrywise routes they replace, bit for bit


def _random_signed_seq(rng):
    from munorm.verify import _random_complex

    k0 = int(rng.integers(0, 8))
    left, right = (_random_complex(rng, int(rng.integers(1, 12))) for _ in range(2))
    left[rng.random(left.size) < 0.3] = complex(-0.0, -0.0)
    right[rng.random(right.size) < 0.3] = complex(0.0, -0.0)
    if k0 == 0:
        left[0] = right[0]
    middle = {k: complex(_random_complex(rng, 1)[0]) for k in range(1 - k0, k0)
              if rng.random() < 0.5}
    return dt_from_seq(left, right, middle, k0)


def _gathered_window_max(op, window):
    # row masses gathered entry by entry from each row's pattern, perturbation
    # changes added per entry, and one cumulative sum of the whole scan
    reach = max((abs(r) + 1 for r, _, _ in op.perturbation), default=0) + 2 * window
    rows = np.arange(-reach, reach + 1)
    (tau_left, left), (tau, right) = op.left, (op.tau, op.coeffs)
    sq = np.sum(np.abs(np.where((rows < 0)[:, None], left[rows % tau_left],
                                right[rows % tau])) ** 2, axis=1)
    for r, c, _ in op.perturbation:  # numpy's modulus: Python's abs can differ in the last bit
        full, base = np.abs([op.entry(r, c), op.base_entry(r, c)]) ** 2
        sq[r + reach] += full - base
    csum = np.concatenate(([0.0], np.cumsum(sq)))
    return float(np.max((csum[window:] - csum[:-window]) / window))


def _assert_same_float(got, want):
    assert got == want and math.copysign(1, got) == math.copysign(1, want), (got, want)


def test_window_oracle_matches_gathered_squares():
    rng = np.random.default_rng(40)
    for i in range(320):
        op = _random_signed_seq(rng) if i % 2 else random_two_tail(rng, perturbed=True)
        window = int(rng.choice([1, 3, 50, 10**3]))
        _assert_same_float(rho_window_max(op, window), _gathered_window_max(op, window))


def _far_perturbed(rng, op, far):
    # op with cells in distinct rows out to +-far, so each perturbed row holds one cell
    rows = rng.choice(2 * far + 1, int(rng.integers(1, 5)), replace=False) - far
    cells = [(int(r), int(r) + int(rng.integers(-op.band - 2, op.band + 3)),
              complex(*rng.standard_normal(2))) for r in rows]
    return PeriodicBandOperator(op.tau, op.band, op.coeffs, cells,
                                op.left if len(op.tails) > 1 else None)


def test_window_oracle_matches_gathered_squares_across_scan_blocks():
    # scans inside one block, across one block edge and across many: windows at the
    # block length and perturbed rows out to 3 * 10^4, with one tail and with two
    rng = np.random.default_rng(43)
    windows = [1, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, ORACLE_WINDOW]
    for i in range(24):
        op = random_two_tail(rng) if i % 2 else random_bandop(rng, 4, 3)
        op = _far_perturbed(rng, op, [12, 5000, 3 * 10**4][i % 3])
        for window in windows:
            _assert_same_float(rho_window_max(op, window), _gathered_window_max(op, window))


def _whole_window_gap(op):
    # _window_gap as one expression per step on the whole scan and the whole window
    r0, d0, cells = op._window
    reach = (max(-r0, r0 + len(cells) - 1) + 1 if cells.size else 0) + 2 * ORACLE_WINDOW
    sq = circle._tail_run(op, -reach, 2 * reach + 1, lambda c: np.sum(np.abs(c) ** 2, axis=1))
    base = circle._place((r0, d0) + cells.shape, base=op)[2]
    change = np.sum(np.abs(base + cells) ** 2 - np.abs(base) ** 2, axis=1)
    sq[r0 + reach:r0 + reach + len(change)] += change
    csum = np.concatenate(([0.0], np.cumsum(sq)))
    scan = float(np.max(csum[ORACLE_WINDOW:] - csum[:-ORACLE_WINDOW]) / ORACLE_WINDOW)
    mass = max(float(np.sum(np.abs(c) ** 2)) for _, c in op.tails)
    entries = circle._place((r0, d0) + cells.shape, op._window, base=op)[2][cells != 0]
    mass += sum(np.float_power(np.hypot(entries.real, entries.imag), 2.0).tolist())
    return abs(avg_trace(op) - scan), 10.0 * mass / ORACLE_WINDOW


def test_window_gap_matches_whole_window_expressions():
    # rows of many cells, read in blocks of rows, and far rows that split the scan
    rng = np.random.default_rng(44)
    for i in range(30):
        op = random_two_tail(rng, 4, 8) if i % 2 else random_bandop(rng, 4, 8)
        op = _far_perturbed(rng, op, [12, 3000, 3 * 10**4][i % 3] if op.band < 3 else 12)
        top = int(rng.integers(-20, 20))
        dense = [(top + j // 15, top + j // 15 + j % 15 - 7, complex(*rng.standard_normal(2)))
                 for j in range(15 * int(rng.integers(1, 900))) if rng.random() < 0.7]
        op = PeriodicBandOperator(op.tau, op.band, op.coeffs, list(op.perturbation) + dense,
                                  op.left if len(op.tails) > 1 else None)
        got, want = circle._window_gap(op), _whole_window_gap(op)
        assert [x.hex() for x in got] == [x.hex() for x in want], (i, got, want)


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: A band-128 operator perturbed at rows 0 and 10^6, and the float per row of
#: its scan at ``ORACLE_WINDOW``: 15.6 MiB.
FAR_BAND = PeriodicBandOperator(64, 128, np.ones((64, 257)), [(0, 0, 1.0), (10**6, 10**6, 2.0)])
FAR_BAND_SCAN = 8 * (2 * (10**6 + 1 + 2 * ORACLE_WINDOW) + 1)


def test_window_scan_peaks_at_its_buffer_of_row_masses():
    # the window's 10^6 + 1 rows and the window sums are read in blocks
    peak = _traced_peak(lambda: rho_window_max(FAR_BAND, ORACLE_WINDOW))
    assert peak < 1.1 * FAR_BAND_SCAN, (peak, FAR_BAND_SCAN)
    near_cap = PeriodicBandOperator(1, 0, [[1.0]], [(1047998, 1047998, 1.0)])
    peak = _traced_peak(lambda: rho_window_max(near_cap, 1))  # 2,096,003 rows, 16.0 MiB
    assert peak < 17 * 2**20, peak


def test_window_gap_peaks_at_the_scan_buffer():
    # the bound reads the perturbed entries one block of rows at a time
    peak = _traced_peak(lambda: circle._window_gap(FAR_BAND))
    assert peak < FAR_BAND_SCAN + 4 * 2**20, (peak, FAR_BAND_SCAN)


def test_window_oracle_reads_every_window_start_at_the_block_edges():
    # one heavy row beside each of the first block edges, the scan stretched by a
    # light row far below: only the one-row window on it holds its mass 3^2
    far = 3 * 10**4
    origin = far + 1 + 2  # the scan index of row 0 at window 1
    for k in [m * _SCAN_BLOCK + e for m in (1, 2, 3) for e in (-1, 0, 1)]:
        op = PeriodicBandOperator(1, 0, [[1.0]], [(-far, -far, 0.5), (k - origin, k - origin, 2.0)])
        assert rho_window_max(op, 1) == 9.0, k


def test_perturbation_window_sums_cells_and_drops_zeros():
    # entries at one position are summed; a zero delta, signed zeros and a
    # cancelled sum leave no entry
    op = PeriodicBandOperator(1, 0, [[1.0]], [
        (0, 0, 1.0), (3, 3, complex(-0.0, -0.0)), (2, 5, 0.5), (0, 0, -1.0), (2, 5, 0.25j),
        (-4, 1, 0.0), (7, 7, complex(0.0, -0.0))])
    assert op.perturbation == ((2, 5, 0.5 + 0.25j),)
    assert op.entry(2, 5) == 0.5 + 0.25j and op.entry(0, 0) == 1.0
    assert repr(op).endswith("perturbed=1)")
    assert PeriodicBandOperator(1, 0, [[1.0]], [(0, 0, 1.0), (0, 0, -1.0)]).perturbation == ()


def test_perturbation_windows_match_dense_sections():
    from munorm.verify_circle import _covering_window

    rng = np.random.default_rng(41)
    signed_zeros = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 0.0]
    cancelled = 0
    for i in range(160):
        a, b = (random_two_tail(rng, 4, int(rng.choice([0, 2, 5])), perturbed=True) if i % 2
                else random_bandop(rng, 4, int(rng.choice([0, 2, 5])), perturbed=True)
                for _ in range(2))
        coeffs = a.coeffs.copy()
        coeffs[rng.random(coeffs.shape) < 0.3] = signed_zeros[int(rng.integers(4))]
        # signed zeros, a zero delta, and entries whose middle indices meet
        extra_a = [(1, 2, complex(-0.0, 0.5)), (4, 2, complex(rng.standard_normal(), -0.0)),
                   (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)),
                    signed_zeros[int(rng.integers(4))])]
        extra_b = [(2, int(rng.integers(-3, 4)), complex(0.25, -0.0)), (2, 9, -0.5j)]
        # entries that cancel some of a's in a sum
        extra_b += [(r, c, -v) for r, c, v in a.perturbation if rng.random() < 0.5]
        a, b = (PeriodicBandOperator(op.tau, op.band, c, list(op.perturbation) + extra,
                                     op.left if len(op.tails) > 1 else None)
                for op, c, extra in ((a, coeffs, extra_a), (b, b.coeffs, extra_b)))
        rows = _covering_window(a, b)
        sa, sb = finite_section(a, rows), finite_section(b, rows)
        inner = slice(a.band, len(rows) - a.band)  # rows that see every term of a product
        total = dt_add(a, b)
        for got, want, keep in ((total, sa + sb, slice(None)), (dt_compose(a, b), sa @ sb, inner),
                                (dt_adjoint(a), sa.conj().T, slice(None))):
            assert np.abs(finite_section(got, rows) - want)[keep].max() <= 1e-12
            positions = [(r, c) for r, c, _ in got.perturbation]
            assert positions == sorted(set(positions))
            assert all(v != 0 for _, _, v in got.perturbation)
        da, db = ({(r, c): v for r, c, v in op.perturbation} for op in (a, b))
        gone = {k for k in da.keys() & db.keys() if da[k] + db[k] == 0}
        assert not gone & {(r, c) for r, c, _ in total.perturbation}
        cancelled += len(gone)
    assert cancelled >= 50, cancelled


def _looped_product_perturbation(a, b):
    # one base_entry call per term, summed per position in loop order
    pert = {}

    def bump(key, v):
        if v != 0:
            pert[key] = pert.get(key, 0.0 + 0.0j) + v

    for m, j, d2 in b.perturbation:
        for r in range(m - a.band, m + a.band + 1):
            bump((r, j), a.base_entry(r, m) * d2)
    for l, m, d1 in a.perturbation:
        for j in range(m - b.band, m + b.band + 1):
            bump((l, j), d1 * b.base_entry(m, j))
    for l, m, d1 in a.perturbation:
        for m2, j, d2 in b.perturbation:
            if m2 == m:
                bump((l, j), d1 * d2)
    return pert


def _assert_product_perturbation(got, a, b):
    # positions ascending and nonzero; values as the per-term loop sums them,
    # up to the rounding of a different summation order
    want = _looped_product_perturbation(a, b)
    have = {(r, c): v for r, c, v in got.perturbation}
    assert list(have) == sorted(have) and all(v != 0 for v in have.values())
    scale = max([1.0, *(abs(v) for v in want.values())])
    for key in have.keys() | want.keys():
        assert abs(have.get(key, 0.0) - want.get(key, 0.0)) <= 1e-12 * scale, key


def test_compose_perturbation_matches_per_term_loop():
    rng = np.random.default_rng(41)
    for _ in range(320):
        a = random_bandop(rng, max_tau=5, max_band=int(rng.choice([0, 2, 5, 16])), perturbed=True)
        b = random_bandop(rng, max_tau=5, max_band=int(rng.choice([0, 2, 5, 16])), perturbed=True)
        coeffs = a.coeffs.copy()
        coeffs[rng.random(coeffs.shape) < 0.3] = complex(-0.0, -0.0)
        # signed zeros, a zero delta, and entries whose middle indices meet
        extra_a = [(1, 2, complex(-0.0, 0.5)), (4, 2, complex(rng.standard_normal(), -0.0))]
        extra_b = [(2, int(rng.integers(-3, 4)), complex(0.25, -0.0)), (2, 9, -0.5j)]
        a = PeriodicBandOperator(a.tau, a.band, coeffs, list(a.perturbation) + extra_a)
        b = PeriodicBandOperator(b.tau, b.band, b.coeffs, list(b.perturbation) + extra_b)
        _assert_product_perturbation(dt_compose(a, b), a, b)


def _summed_perturbation(a, b):
    # per position a's delta plus b's, positions ascending, cancelled sums dropped
    da, db = ({(r, c): v for r, c, v in op.perturbation} for op in (a, b))
    sums = {k: da.get(k, 0.0) + db.get(k, 0.0) for k in sorted(da.keys() | db.keys())}
    return {k: v for k, v in sums.items() if v != 0}


def test_chained_sums_and_products_match_a_reference_accumulator():
    rng = np.random.default_rng(44)
    signed_zeros = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 0.0]
    checked = {"sum": 0, "product": 0, "cancelled": 0}
    for _ in range(150):
        op = random_bandop(rng, max_tau=3, max_band=2, perturbed=True)
        for _ in range(4):
            other = random_bandop(rng, max_tau=3, max_band=2, perturbed=True)
            coeffs = other.coeffs.copy()
            coeffs[rng.random(coeffs.shape) < 0.3] = signed_zeros[int(rng.integers(4))]
            extra = [(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)),
                      signed_zeros[int(rng.integers(4))])]  # a zero delta
            # entries that cancel some of op's in a sum
            extra += [(r, c, -v) for r, c, v in op.perturbation if rng.random() < 0.5]
            other = PeriodicBandOperator(other.tau, other.band, coeffs,
                                         list(other.perturbation) + extra)
            a, b = (op, other) if rng.random() < 0.5 else (other, op)
            try:
                if rng.random() < 0.5:
                    got, want = dt_add(a, b), _summed_perturbation(a, b)
                    # one addition per position: the sum is exact
                    assert [(r, c) for r, c, _ in got.perturbation] == list(want)
                    assert (np.array([v for _, _, v in got.perturbation], dtype=complex).tobytes()
                            == np.array(list(want.values()), dtype=complex).tobytes())
                    checked["sum"] += 1
                    checked["cancelled"] += len({(r, c) for r, c, _ in a.perturbation}
                                                & {(r, c) for r, c, _ in b.perturbation}
                                                - set(want))
                else:
                    got = dt_compose(a, b)
                    _assert_product_perturbation(got, a, b)
                    checked["product"] += 1
            except CapExceeded:
                break
            op = got
    assert min(checked.values()) >= 50, checked


@st.composite
def _algebra_chains(draw):
    """A seed for the operand draws, whether the first operand has two tails, and
    at least three steps ``(operation, fresh operand has two tails, it goes first)``."""
    step = st.tuples(st.sampled_from(["add", "compose", "adjoint"]), st.booleans(),
                     st.booleans())
    return (draw(st.integers(0, 2**32 - 1)), draw(st.booleans()),
            draw(st.lists(step, min_size=3, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(_algebra_chains())
def test_chained_algebra_matches_dense_sections(chain):
    # each step against the same operation on dense sections of its operands,
    # which are the results of the steps before it
    from munorm.verify_circle import _covering_window

    seed, two_tail, steps = chain
    rng = np.random.default_rng(seed)

    def operand(two_tail):
        if two_tail:
            return random_two_tail(rng, 4, 2, perturbed=True)
        return random_bandop(rng, 4, 2, perturbed=bool(rng.random() < 0.7))

    x = operand(two_tail)
    for kind, two_tail, first in steps:
        y = operand(two_tail)
        rows = _covering_window(x, y)
        sx, sy = finite_section(x, rows), finite_section(y, rows)
        inner = slice(None)
        if kind == "add":
            got, want = dt_add(y, x) if first else dt_add(x, y), sx + sy
        elif kind == "adjoint":
            got, want = dt_adjoint(x), sx.conj().T
        else:
            a, b, sa, sb = (y, x, sy, sx) if first else (x, y, sx, sy)
            got, want = dt_compose(a, b), sa @ sb
            inner = slice(a.band, len(rows) - a.band)  # rows that see every term
        err = float(np.abs(finite_section(got, rows) - want)[inner].max())
        assert err <= 1e-12 * max(1.0, float(np.abs(want).max())), (kind, err)
        x = got


def test_phase_tables_serve_narrower_bands_exactly():
    def direct(op, grid):
        d = np.arange(-op.band, op.band + 1)
        return np.mean(np.abs(op.coeffs @ np.exp(-1j * np.outer(d, grid))) ** 2, axis=0)

    rng = np.random.default_rng(43)
    grid = 2.0 * np.pi * np.arange(1025) / 1024
    ops = [random_bandop(rng, max_tau=6, max_band=6) for _ in range(60)]
    for op in ops:  # widest bands come and go; narrower ones read slices
        assert rho_la(op, grid).tobytes() == direct(op, grid).tobytes()
    wide = PeriodicBandOperator(2, 128, _random_coeffs(rng, 2, 128))
    assert dt_mu_norm_sq(wide).quadrature == pytest.approx(avg_trace(wide), rel=1e-12)
    # the band-128 table (257 x 1024 entries) is not kept past its call
    kept, band, table = circle._PHASES
    assert kept == grid.tobytes() and band < 128
    # a second call on the kept grid reads the kept table, narrower bands its middle rows
    for narrower in (band, 0):
        assert circle._phases(narrower, grid).base is table


def _random_coeffs(rng, tau, band):
    shape = (tau, 2 * band + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --------------------------------------------------------------------------
# the section-route suite against the faults it is there to catch


def _failing_checks(suite):
    from munorm.verify import run_suite

    return {c.name for c in run_suite(suite, 20, 0) if not c.passed}


def test_section_route_kills_the_perturbation_mutants(monkeypatch):
    suites = ("section-route", "two-tail-integral", "two-tail-section", "rho-oracle")
    assert all(_failing_checks(suite) == set() for suite in suites)

    def majorant_reversed(self):  # reads diagonal k from offset k: the diagonals reversed
        sup = np.abs(self.coeffs).max(axis=0)
        c = dict(zip(range(-self.band, self.band + 1), sup.tolist()))
        for r, col, _ in self.perturbation:
            c[r - col] = max(c.get(r - col, 0.0), abs(self.entry(r, col)))
        return {k: v for k, v in c.items() if v > 0.0}

    def w_l_flipped_phase(op, l, a):
        w = complex(op.coeffs[l % op.tau] @ np.exp(-1j * np.arange(-op.band, op.band + 1) * a))
        for r, c, delta in op.perturbation:
            if r == l:
                w += delta * np.exp(-1j * (l - c) * a)
        return w

    rows, seam, transpose = circle._rows, circle._seam, circle._transpose

    def rho_la_min(op, a):  # the tails combined by min
        phases = circle._phases(op.band, np.asarray(a, dtype=float).ravel())
        density = np.min([np.mean(np.abs(c @ phases) ** 2, axis=0) for _, c in op.tails], axis=0)
        return float(density[0]) if np.ndim(a) == 0 else density

    crossings = circle._crossings
    integral = {"closed-form-matches-gauss-legendre",
                "closed-form-within-derived-bound-of-grid-mean",
                "cos-sin-tails-exceed-average-trace-by-4-over-pi"}
    mutants = [
        (PeriodicBandOperator, "majorant", majorant_reversed, "section-route",
         {"majorant-is-the-diagonal-sup-of-a-section"}),
        (circle, "w_l", w_l_flipped_phase, "section-route", {"row-symbol-sums-its-section-row"}),
        # a product reads the rows of its factors without their perturbations
        (circle, "_rows",
         lambda op, *spans: rows(circle._tailwise(lambda t: t, op.band, circle._EMPTY, op), *spans),
         "section-route", {"perturbed-product-matches-section-product"}),
        (circle, "rho_la", rho_la_min, "two-tail-integral", integral),
        (circle, "avg_trace", lambda op: min(circle.tail_masses(op)), "rho-oracle",
         {"window-oracle-within-1e-2-at-1e4", "window-oracle-within-derived-bound"}),
        (circle, "_crossings", lambda g: crossings(g)[1:], "two-tail-integral", integral),
        # a product's seam reads b's rows within b's band of row 0, not a's
        (circle, "_seam", lambda op, width: seam(op, op.band), "two-tail-section",
         {"two-tail-product-matches-section-product"}),
        # the adjoint moves the entries without conjugating them
        (circle, "_transpose", lambda w, op: transpose(w[:2] + (w[2].conj(),), op),
         "two-tail-section", {"two-tail-adjoint-is-the-conjugate-transpose-of-a-section"}),
        (circle, "_seam", lambda op, width: (0, 0), "two-tail-section",
         {"two-tail-product-matches-section-product",
          "two-tail-adjoint-is-the-conjugate-transpose-of-a-section"}),
    ]
    for target, name, mutant, suite, killed_by in mutants:
        with monkeypatch.context() as m:
            m.setattr(target, name, mutant)
            assert _failing_checks(suite) == killed_by, name

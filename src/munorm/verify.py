"""Seeded property suites driving every invariant the library promises.

Each suite draws random instances from a ``numpy.random.Generator``
(PCG64; reports are reproducible given the seed) and returns a list of
``PropertyCheck`` records with the maximal observed violation against a
pinned tolerance.  The acceptance tests and the ``verify`` CLI command
both run these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circle as circ
from . import entropy as ent
from .norm import CyclicAction, cyclic_projector, m_chi, mu_norm_sq
from .operators import (
    Endomorphism,
    OperatorMatrix,
    compose,
    koopman,
    multiplication,
    operator_norm,
    projector,
    vector_norm,
)
from .spaces import FiniteMeasureSpace, Partition, finest_partition, join

__all__ = ["PropertyCheck", "SUITES", "run_suite", "suite_names"]


@dataclass
class PropertyCheck:
    """Outcome of one property over a batch of random instances."""

    name: str
    trials: int
    tolerance: float
    max_violation: float
    worst: dict | None = None

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "passed": self.passed,
        }
        if self.worst is not None and not self.passed:
            out["worst"] = self.worst
        return out


class _Tracker:
    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.max_violation = 0.0
        self.worst: dict | None = None
        self.count = 0

    def update(self, violation: float, instance: dict | None = None) -> None:
        self.count += 1
        if violation > self.max_violation:
            self.max_violation = float(violation)
            self.worst = instance

    def result(self) -> PropertyCheck:
        return PropertyCheck(self.name, self.count, self.tolerance,
                             self.max_violation, self.worst)


# ---------------------------------------------------------------------------
# Random instance generators


def uniform_space(j: int) -> FiniteMeasureSpace:
    return FiniteMeasureSpace(np.full(j, 1.0 / j))


def random_space(rng, min_atoms: int = 2, max_atoms: int = 8) -> FiniteMeasureSpace:
    j = int(rng.integers(min_atoms, max_atoms + 1))
    raw = rng.uniform(0.2, 1.0, j)
    return FiniteMeasureSpace(raw / raw.sum())


def random_subset(rng, j: int, nonempty: bool = False, proper: bool = False) -> list[int]:
    for _ in range(64):
        mask = rng.random(j) < rng.uniform(0.2, 0.8)
        if nonempty and not mask.any():
            continue
        if proper and mask.all():
            continue
        return list(np.nonzero(mask)[0])
    return [0] if nonempty else []


def random_partition(rng, j: int) -> Partition:
    nblocks = int(rng.integers(1, j + 1))
    labels = rng.integers(0, nblocks, j)
    blocks = [list(np.nonzero(labels == b)[0]) for b in range(nblocks)]
    return Partition(j, [b for b in blocks if b])


def random_matrix(rng, space: FiniteMeasureSpace, scale: float = 1.0) -> OperatorMatrix:
    j = space.size
    entries = scale * (rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j)))
    return OperatorMatrix(space, entries / math.sqrt(2.0))


def random_standard_unitary(rng, j: int) -> np.ndarray:
    g = (rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


def random_weighted_unitary(rng, space: FiniteMeasureSpace) -> OperatorMatrix:
    # Conjugating a standard unitary by D^(1/2) preserves the weighted product.
    q = random_standard_unitary(rng, space.size)
    s = np.sqrt(space.weights)
    return OperatorMatrix(space, (q * s[None, :]) / s[:, None])


def random_space_with_automorphism(rng, max_classes: int = 3,
                                   max_class_size: int = 4
                                   ) -> tuple[FiniteMeasureSpace, Endomorphism]:
    """A space whose weights repeat within classes, plus a weight-preserving permutation."""
    nclasses = int(rng.integers(1, max_classes + 1))
    sizes = [int(rng.integers(1, max_class_size + 1)) for _ in range(nclasses)]
    raw = rng.uniform(0.2, 1.0, nclasses)
    total = float(np.sum(raw * np.array(sizes)))
    weights = np.concatenate([np.full(s, raw[i] / total) for i, s in enumerate(sizes)])
    space = FiniteMeasureSpace(weights)
    table = np.arange(space.size)
    start = 0
    for s in sizes:
        table[start:start + s] = start + rng.permutation(s)
        start += s
    return space, Endomorphism(space, table)


def random_cyclic_setup(rng, q: int, orbits: int) -> tuple[FiniteMeasureSpace, CyclicAction]:
    raw = rng.uniform(0.2, 1.0, orbits)
    total = float(raw.sum()) * q
    weights = np.repeat(raw / total, q)
    space = FiniteMeasureSpace(weights)
    table = np.arange(space.size)
    for o in range(orbits):
        base = o * q
        table[base:base + q] = base + (np.arange(q) + 1) % q
    return space, CyclicAction(space, Endomorphism(space, table), q)


def _random_complex(rng, n, amp: float = 2.0) -> np.ndarray:
    mod = rng.uniform(0.0, amp, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    return mod * np.exp(1j * phase)


def random_seq(rng, max_period: int = 8, max_k0: int = 4, amp: float = 2.0
               ) -> circ.EventuallyPeriodicSeq:
    pl = int(rng.integers(1, max_period + 1))
    pr = int(rng.integers(1, max_period + 1))
    k0 = int(rng.integers(0, max_k0 + 1))
    left = _random_complex(rng, pl, amp)
    right = _random_complex(rng, pr, amp)
    middle = {}
    if k0 > 0:
        for k in range(-k0 + 1, k0):
            if rng.random() < 0.5:
                middle[k] = complex(_random_complex(rng, 1, amp)[0])
    else:
        left[0] = right[0]
    return circ.EventuallyPeriodicSeq(left, right, middle, k0)


def random_bandop(rng, max_tau: int = 8, max_band: int = 8, amp: float = 1.0,
                  perturbed: bool = False) -> circ.PeriodicBandOperator:
    tau = int(rng.integers(1, max_tau + 1))
    band = int(rng.integers(0, max_band + 1))
    coeffs = _random_complex(rng, (tau, 2 * band + 1), amp)
    pert = []
    if perturbed:
        for _ in range(int(rng.integers(1, 4))):
            r = int(rng.integers(-12, 13))
            c = int(rng.integers(r - band - 2, r + band + 3))
            pert.append((r, c, complex(_random_complex(rng, 1, amp)[0])))
    return circ.PeriodicBandOperator(tau, band, coeffs, pert)


# ---------------------------------------------------------------------------
# Measure/operator-core and norm suites


def projector_measure(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("projector-norm-equals-measure", 1e-12)
    for i in range(trials):
        space = random_space(rng, 2, 12)
        subset = random_subset(rng, space.size)
        v = abs(mu_norm_sq(projector(space, subset)) - space.measure(subset))
        t.update(v, {"trial": i, "J": space.size, "subset_size": len(subset)})
    return [t.result()]


def finest_formula(rng, trials: int) -> list[PropertyCheck]:
    uni = _Tracker("uniform-entrywise-mean", 1e-12)
    fin_u = _Tracker("uniform-matches-finest-partition", 1e-10)
    fin_w = _Tracker("weighted-matches-finest-partition", 1e-10)
    for i in range(trials):
        j = int(rng.integers(2, 17))
        space = uniform_space(j)
        w = random_matrix(rng, space)
        closed = mu_norm_sq(w)
        literal = float(np.sum(np.abs(w.entries) ** 2)) / j
        uni.update(abs(closed - literal), {"trial": i, "J": j})
        fin_u.update(abs(closed - m_chi(w, finest_partition(space))), {"trial": i, "J": j})

        wspace = random_space(rng)
        ww = random_matrix(rng, wspace)
        fin_w.update(abs(mu_norm_sq(ww) - m_chi(ww, finest_partition(wspace))),
                     {"trial": i, "J": wspace.size})
    return [uni.result(), fin_u.result(), fin_w.result()]


def multiplication_law(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("multiplier-norm-equals-weighted-mass", 1e-12)
    for i in range(trials):
        space = random_space(rng)
        g = _random_complex(rng, space.size)
        expected = float(np.sum(space.weights * np.abs(g) ** 2))
        t.update(abs(mu_norm_sq(multiplication(space, g)) - expected),
                 {"trial": i, "J": space.size})
    return [t.result()]


def partition_monotone(rng, trials: int) -> list[PropertyCheck]:
    mono = _Tracker("refinement-never-increases-m-chi", 1e-9)
    lower = _Tracker("mu-norm-below-every-m-chi", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w = random_matrix(rng, space)
        chi = random_partition(rng, space.size)
        kappa = random_partition(rng, space.size)
        coarse = m_chi(w, chi)
        fine = m_chi(w, join(chi, kappa))
        mono.update(fine - coarse, {"trial": i, "J": space.size})
        lower.update(mu_norm_sq(w) - coarse, {"trial": i, "J": space.size})
    return [mono.result(), lower.result()]


def triangle(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("triangle-inequality", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w1 = random_matrix(rng, space)
        w2 = random_matrix(rng, space)
        lhs = math.sqrt(mu_norm_sq(w1 + w2))
        rhs = math.sqrt(mu_norm_sq(w1)) + math.sqrt(mu_norm_sq(w2))
        t.update(lhs - rhs, {"trial": i, "J": space.size})
    return [t.result()]


def homogeneity(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("absolute-homogeneity", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w = random_matrix(rng, space)
        lam = complex(_random_complex(rng, 1)[0])
        t.update(abs(mu_norm_sq(lam * w) - abs(lam) ** 2 * mu_norm_sq(w)),
                 {"trial": i, "J": space.size})
    return [t.result()]


def left_unitary(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("left-unitary-invariance", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w = random_matrix(rng, space)
        u = random_weighted_unitary(rng, space)
        t.update(abs(mu_norm_sq(compose(u, w)) - mu_norm_sq(w)), {"trial": i, "J": space.size})
    return [t.result()]


def right_koopman(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("right-composition-invariance", 1e-9)
    for i in range(trials):
        space, endo = random_space_with_automorphism(rng)
        w = random_matrix(rng, space)
        u = koopman(space, endo)
        t.update(abs(mu_norm_sq(compose(w, u)) - mu_norm_sq(w)), {"trial": i, "J": space.size})
    return [t.result()]


def right_unitary_uniform(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("right-unitary-invariance-uniform", 1e-9)
    for i in range(trials):
        j = int(rng.integers(2, 9))
        space = uniform_space(j)
        w = random_matrix(rng, space)
        u = OperatorMatrix(space, random_standard_unitary(rng, j))
        t.update(abs(mu_norm_sq(compose(w, u)) - mu_norm_sq(w)), {"trial": i, "J": j})
    return [t.result()]


def right_additivity(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("right-additivity-over-partitions", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w = random_matrix(rng, space)
        chi = random_partition(rng, space.size)
        parts = sum(mu_norm_sq(compose(w, projector(space, b))) for b in chi.blocks)
        t.update(abs(parts - mu_norm_sq(w)), {"trial": i, "J": space.size})
    return [t.result()]


def left_subadditivity(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("left-subadditivity-over-partitions", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w = random_matrix(rng, space)
        chi = random_partition(rng, space.size)
        parts = sum(mu_norm_sq(compose(projector(space, b), w)) for b in chi.blocks)
        t.update(mu_norm_sq(w) - parts, {"trial": i, "J": space.size})
    return [t.result()]


def weighted_additivity(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("pointwise-split-additivity", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w = random_matrix(rng, space)
        g = _random_complex(rng, space.size)
        k = int(rng.integers(2, 5))
        frac = rng.random((k, space.size))
        frac /= frac.sum(axis=0, keepdims=True)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (k, space.size)))
        total = mu_norm_sq(compose(w, multiplication(space, g)))
        parts = sum(
            mu_norm_sq(compose(w, multiplication(space, g * np.sqrt(frac[s]) * phases[s])))
            for s in range(k)
        )
        t.update(abs(parts - total), {"trial": i, "J": space.size, "k": k})
    return [t.result()]


def lipschitz(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("operator-norm-lipschitz-bound", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w1 = random_matrix(rng, space)
        w2 = random_matrix(rng, space)
        lhs = abs(math.sqrt(mu_norm_sq(w2)) - math.sqrt(mu_norm_sq(w1)))
        t.update(lhs - operator_norm(w2 - w1), {"trial": i, "J": space.size})
    return [t.result()]


def submultiplicative(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("left-operator-norm-domination", 1e-9)
    for i in range(trials):
        space = random_space(rng)
        w1 = random_matrix(rng, space)
        w2 = random_matrix(rng, space)
        lhs = mu_norm_sq(compose(w1, w2))
        t.update(lhs - operator_norm(w1) ** 2 * mu_norm_sq(w2), {"trial": i, "J": space.size})
    return [t.result()]


def operator_identities(rng, trials: int) -> list[PropertyCheck]:
    iso = _Tracker("composition-operator-isometry", 1e-10)
    prod = _Tracker("composition-respects-products", 1e-12)
    commute = _Tracker("projector-pullback-identity", 1e-12)
    masked = _Tracker("column-mask-contracts-norm", 1e-10)
    left_inv = _Tracker("unitary-left-norm-invariance", 1e-10)
    for i in range(trials):
        space, endo = random_space_with_automorphism(rng)
        u = koopman(space, endo)
        f = _random_complex(rng, space.size)
        g = _random_complex(rng, space.size)
        iso.update(abs(vector_norm(space, u.apply(f)) - vector_norm(space, f)),
                   {"trial": i, "J": space.size})
        prod.update(float(np.max(np.abs(u.apply(f * g) - u.apply(f) * u.apply(g)))),
                    {"trial": i, "J": space.size})
        xi = random_subset(rng, space.size)
        lhs = compose(u, projector(space, xi)).entries
        rhs = compose(projector(space, endo.preimage(xi)), u).entries
        commute.update(float(np.max(np.abs(lhs - rhs))), {"trial": i, "J": space.size})

        w = random_matrix(rng, space)
        y = random_subset(rng, space.size)
        masked.update(operator_norm(compose(w, projector(space, y))) - operator_norm(w),
                      {"trial": i, "J": space.size})
        uu = random_weighted_unitary(rng, space)
        a, b = operator_norm(compose(uu, w)), operator_norm(w)
        left_inv.update(abs(a - b) / max(b, 1e-30), {"trial": i, "J": space.size})
    return [iso.result(), prod.result(), commute.result(), masked.result(), left_inv.result()]


def projector_product(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("projector-chain-norm-equals-intersection-measure", 1e-9)
    for i in range(trials):
        space, endo = random_space_with_automorphism(rng)
        u = koopman(space, endo)
        k = int(rng.integers(1, 4))
        sets = [random_subset(rng, space.size) for _ in range(k + 1)]
        acc = projector(space, sets[0]).entries  # order: sets[0] acts first
        for y in sets[1:]:
            acc = projector(space, y).entries @ (u.entries @ acc)
        got = mu_norm_sq(OperatorMatrix(space, acc))
        mask = np.zeros(space.size, dtype=bool)
        mask[space.validate_subset(sets[k])] = True
        inter = mask.copy()
        for step in range(1, k + 1):
            m = np.zeros(space.size, dtype=bool)
            m[space.validate_subset(sets[k - step])] = True
            inter &= m[endo.iterate(step).table]
        expected = float(space.weights[inter].sum())
        t.update(abs(got - expected), {"trial": i, "J": space.size, "k": k})
    return [t.result()]


# ---------------------------------------------------------------------------
# Entropy suites


def koopman_bridge(rng, trials: int) -> list[PropertyCheck]:
    term = _Tracker("path-mass-matches-itinerary-measure", 1e-12)
    total = _Tracker("operator-entropy-matches-measure-entropy", 1e-12)
    for i in range(trials):
        j = int(rng.integers(2, 7))
        space = uniform_space(j)
        endo = Endomorphism(space, rng.permutation(j))
        u = koopman(space, endo)
        chi = random_partition(rng, j)
        n = int(rng.integers(1, 4))
        q_table = ent.path_mass_table(u, chi, n)
        k_table = ent.ks_path_measure_table(endo, chi, n)
        keys = set(q_table) | {tuple(reversed(key)) for key in k_table}
        worst = 0.0
        for key in keys:
            # reading the itinerary backwards swaps the roles of map and preimage
            worst = max(worst, abs(q_table.get(key, 0.0)
                                   - k_table.get(tuple(reversed(key)), 0.0)))
        term.update(worst, {"trial": i, "J": j, "n": n})
        total.update(abs(ent.quantum_entropy_at(u, chi, n) - ent.ks_entropy_at(endo, chi, n)),
                     {"trial": i, "J": j, "n": n})
    return [term.result(), total.result()]


def entropy_normalization(rng, trials: int) -> list[PropertyCheck]:
    finest = _Tracker("finest-partition-path-masses-sum-to-one", 1e-10)
    any_chi = _Tracker("any-partition-path-masses-sum-to-one", 1e-10)
    for i in range(trials):
        j = int(rng.integers(2, 7))
        space = uniform_space(j)
        u = OperatorMatrix(space, random_standard_unitary(rng, j))
        chi = finest_partition(space)
        for n in (1, 2):
            finest.update(abs(ent.path_mass_total(u, chi, n) - 1.0),
                          {"trial": i, "J": j, "n": n})
        wspace = random_space(rng, 2, 6)
        wu = random_weighted_unitary(rng, wspace)
        coarse = random_partition(rng, wspace.size)
        for n in (1, 2, 3):
            any_chi.update(abs(ent.path_mass_total(wu, coarse, n) - 1.0),
                           {"trial": i, "J": wspace.size, "n": n})
    return [finest.result(), any_chi.result()]


def closed_entropy(rng, trials: int) -> list[PropertyCheck]:
    perm0 = _Tracker("permutation-entropy-vanishes", 1e-15)
    balanced = _Tracker("balanced-two-state-entropy-is-log2", 1e-12)
    markov = _Tracker("matches-markov-rate-at-uniform-distribution", 1e-12)
    hadamard = OperatorMatrix(uniform_space(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    balanced.update(abs(ent.quantum_entropy_closed(hadamard) - math.log(2.0)), {})
    for i in range(trials):
        j = int(rng.integers(2, 9))
        space = uniform_space(j)
        perm = koopman(space, Endomorphism(space, rng.permutation(j)))
        perm0.update(abs(ent.quantum_entropy_closed(perm)), {"trial": i, "J": j})
        u = OperatorMatrix(space, random_standard_unitary(rng, j))
        closed = ent.quantum_entropy_closed(u)
        rate = ent.markov_entropy_rate(np.abs(u.entries) ** 2, np.full(j, 1.0 / j))
        markov.update(abs(closed - rate), {"trial": i, "J": j})
    return [perm0.result(), balanced.result(), markov.result()]


def _finest_transition(u: OperatorMatrix) -> np.ndarray:
    """``P[b, a] = mu_a |W_ab|^2 / mu_b``: the path masses of W at the finest partition."""
    mu = u.space.weights
    return mu[None, :] * np.abs(u.entries.T) ** 2 / mu[:, None]


def _markov_path_entropy(u: OperatorMatrix, n: int) -> float:
    """``H(mu) + sum_{k<n} p_k . h(P)`` with ``p_0 = mu`` and ``p_{k+1} = p_k P``."""
    p = _finest_transition(u)
    logs = np.zeros_like(p)
    np.log(p, out=logs, where=p > 0.0)
    h = -np.sum(p * logs, axis=1)
    dist = u.space.weights
    value = -float(dist @ np.log(dist))
    for _ in range(n):
        value += float(dist @ h)
        dist = dist @ p
    return value


def finest_markov_route(rng, trials: int) -> list[PropertyCheck]:
    """Finest-partition path entropy against its Markov chain, O(n J^2) per value.

    Path masses at the finest partition are those of the chain started at
    mu with transition ``_finest_transition``.  Sizes reach 8^5 terms
    (J = 8, n = 4), past what the dense oracle enumerates.
    """
    uniform = _Tracker("finest-entropy-matches-markov-chain-uniform", 1e-10)
    weighted = _Tracker("finest-entropy-matches-markov-chain-weighted", 1e-10)
    for i in range(trials):
        j = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        space = uniform_space(j)
        u = OperatorMatrix(space, random_standard_unitary(rng, j))
        uniform.update(abs(ent.quantum_entropy_at(u, finest_partition(space), n)
                           - _markov_path_entropy(u, n)), {"trial": i, "J": j, "n": n})
        wspace = random_space(rng, j, j)
        wu = random_weighted_unitary(rng, wspace)
        weighted.update(abs(ent.quantum_entropy_at(wu, finest_partition(wspace), n)
                            - _markov_path_entropy(wu, n)), {"trial": i, "J": j, "n": n})
    return [uniform.result(), weighted.result()]


def cyclic_dimension(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("cyclic-eigenspace-dimension-is-1-over-q", 1e-10)
    combos = [(q, m) for q in (2, 3, 4, 6) for m in (1, 2, 3)]
    for i in range(max(1, trials // len(combos))):
        for q, m in combos:
            space, action = random_cyclic_setup(rng, q, m)
            for n in range(q):
                v = abs(mu_norm_sq(cyclic_projector(space, action, n)) - 1.0 / q)
                t.update(v, {"round": i, "q": q, "orbits": m, "residue": n})
    return [t.result()]


# ---------------------------------------------------------------------------
# Circle suites


def _period_mass(seq: circ.EventuallyPeriodicSeq) -> float:
    mass = max(float(np.sum(np.abs(seq.left) ** 2)), float(np.sum(np.abs(seq.right) ** 2)))
    return mass + sum(abs(v) ** 2 for v in seq.middle.values())


def rho_oracle(rng, trials: int, window: int = 10**4) -> list[PropertyCheck]:
    bound = _Tracker("window-oracle-within-derived-bound", 1e-12)
    fixed = _Tracker("window-oracle-within-1e-2-at-1e4", 1e-2)
    for i in range(trials):
        seq = random_seq(rng)
        closed = circ.rho(seq)
        brute = circ.rho_window_max(seq, window)
        diff = abs(closed - brute)
        bound.update(diff - 10.0 * _period_mass(seq) / window, {"trial": i})
        fixed.update(diff, {"trial": i})
    return [bound.result(), fixed.result()]


def dt_integral(rng, trials: int) -> list[PropertyCheck]:
    agree = _Tracker("quadrature-matches-parseval-closed-form", 1e-10)
    cosine = _Tracker("double-cosine-multiplier-norm-is-2", 1e-12)
    res = circ.dt_mu_norm_sq(circ.dt_from_multiplier({1: 1.0, -1: 1.0}))
    cosine.update(abs(res.quadrature - 2.0), {})
    cosine.update(abs(res.closed_form - 2.0), {})
    for i in range(trials):
        op = random_bandop(rng)
        r = circ.dt_mu_norm_sq(op)
        agree.update(abs(r.quadrature - r.closed_form),
                     {"trial": i, "tau": op.tau, "band": op.band})
    return [agree.result(), cosine.result()]


def parseval_bridge(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("average-trace-equals-quadrature-when-periodic", 1e-10)
    for i in range(trials):
        op = random_bandop(rng)
        t.update(abs(circ.dt_mu_norm_sq(op).quadrature - circ.avg_trace(op)),
                 {"trial": i, "tau": op.tau, "band": op.band})
    return [t.result()]


def trace_bound(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("average-trace-below-squared-norm", 1e-10)
    for i in range(trials):
        op = random_bandop(rng, perturbed=bool(rng.random() < 0.5))
        t.update(circ.avg_trace(op) - circ.dt_mu_norm_sq(op).quadrature,
                 {"trial": i, "tau": op.tau, "band": op.band})
    return [t.result()]


def _unitary_conjugators(rng) -> list[circ.PeriodicBandOperator]:
    k = int(rng.integers(1, 4))
    phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return [
        circ.dt_from_multiplier({k: 1.0}),        # shift power
        circ.dt_from_multiplier({0: phase}),      # unimodular constant
        circ.dt_from_multiplier({k: phase}),      # product of the two
    ]


def trace_invariance(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("average-trace-unitary-invariance", 1e-10)
    for i in range(trials):
        w = random_bandop(rng, max_tau=4, max_band=4)
        base = circ.avg_trace(w)
        for u in _unitary_conjugators(rng):
            left = circ.avg_trace(circ.dt_compose(u, w))
            right = circ.avg_trace(circ.dt_compose(w, u))
            conj = circ.avg_trace(circ.dt_compose(circ.dt_adjoint(u), circ.dt_compose(w, u)))
            v = max(abs(left - base), abs(right - base), abs(conj - base))
            t.update(v, {"trial": i, "tau": w.tau, "band": w.band})
    return [t.result()]


def norm_chain(rng, trials: int) -> list[PropertyCheck]:
    section = _Tracker("finite-section-norm-below-dt-norm", 1e-10)
    submult = _Tracker("dt-norm-submultiplicative", 1e-10)
    for i in range(trials):
        op = random_bandop(rng, max_tau=6, max_band=6, perturbed=bool(rng.random() < 0.3))
        size = int(rng.integers(4, 65))
        start = int(rng.integers(-16, 8))
        sec = circ.finite_section(op, range(start, start + size))
        section.update(float(np.linalg.norm(sec, 2)) - circ.dt_norm(op),
                       {"trial": i, "tau": op.tau, "band": op.band, "size": size})
        w1 = random_bandop(rng, max_tau=4, max_band=4)
        w2 = random_bandop(rng, max_tau=4, max_band=4)
        submult.update(circ.dt_norm(circ.dt_compose(w1, w2))
                       - circ.dt_norm(w1) * circ.dt_norm(w2),
                       {"trial": i})
    return [section.result(), submult.result()]


def dt_star_algebra(rng, trials: int) -> list[PropertyCheck]:
    adj_norm = _Tracker("adjoint-preserves-dt-norm", 1e-12)
    involution = _Tracker("adjoint-is-an-involution", 1e-12)
    tri = _Tracker("dt-norm-triangle", 1e-12)
    for i in range(trials):
        a = random_bandop(rng, max_tau=5, max_band=5, perturbed=bool(rng.random() < 0.3))
        b = random_bandop(rng, max_tau=5, max_band=5)
        adj_norm.update(abs(circ.dt_norm(circ.dt_adjoint(a)) - circ.dt_norm(a)), {"trial": i})
        sec_a = circ.finite_section(a, range(-10, 11))
        sec_aa = circ.finite_section(circ.dt_adjoint(circ.dt_adjoint(a)), range(-10, 11))
        involution.update(float(np.max(np.abs(sec_a - sec_aa))), {"trial": i})
        tri.update(circ.dt_norm(circ.dt_add(a, b))
                   - (circ.dt_norm(a) + circ.dt_norm(b)), {"trial": i})
    return [adj_norm.result(), involution.result(), tri.result()]


def w_symbol_bound(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("row-symbol-bounded-by-dt-norm", 1e-10)
    for i in range(trials):
        op = random_bandop(rng, max_tau=6, max_band=6, perturbed=bool(rng.random() < 0.3))
        c = circ.dt_norm(op)
        for _ in range(8):
            l = int(rng.integers(-12, 13))
            a = float(rng.uniform(0, 2 * np.pi))
            t.update(abs(circ.w_l(op, l, a)) - c, {"trial": i, "l": l})
    return [t.result()]


def rho_la_continuity(rng, trials: int) -> list[PropertyCheck]:
    t = _Tracker("symbol-density-grid-continuity", 1e-12)
    grid = 2.0 * np.pi * np.arange(1025) / 1024
    for i in range(trials):
        op = random_bandop(rng, max_tau=6, max_band=6)
        sym = op.periodic_symbols(grid)
        density = np.mean(np.abs(sym) ** 2, axis=0)
        max_step = float(np.max(np.abs(np.diff(density))))
        lip = circ.dt_norm(op) ** 2 * (op.band * op.tau * 4)
        t.update(max_step - lip * (2.0 * np.pi / 1024),
                 {"trial": i, "tau": op.tau, "band": op.band})
    return [t.result()]


# ---------------------------------------------------------------------------
# Registry


SUITES: dict[str, object] = {
    "projector-measure": projector_measure,
    "finest-formula": finest_formula,
    "multiplication": multiplication_law,
    "partition-monotone": partition_monotone,
    "triangle": triangle,
    "homogeneity": homogeneity,
    "left-unitary": left_unitary,
    "right-koopman": right_koopman,
    "right-unitary-uniform": right_unitary_uniform,
    "right-additivity": right_additivity,
    "left-subadditivity": left_subadditivity,
    "weighted-additivity": weighted_additivity,
    "lipschitz": lipschitz,
    "submultiplicative": submultiplicative,
    "operator-identities": operator_identities,
    "projector-product": projector_product,
    "koopman-bridge": koopman_bridge,
    "entropy-normalization": entropy_normalization,
    "closed-entropy": closed_entropy,
    "finest-markov-route": finest_markov_route,
    "cyclic-dimension": cyclic_dimension,
    "rho-oracle": rho_oracle,
    "dt-integral": dt_integral,
    "parseval-bridge": parseval_bridge,
    "trace-bound": trace_bound,
    "trace-invariance": trace_invariance,
    "norm-chain": norm_chain,
    "dt-star-algebra": dt_star_algebra,
    "w-symbol-bound": w_symbol_bound,
    "rho-la-continuity": rho_la_continuity,
}

#: The eight properties of the invariance battery, runnable as one suite.
_BATTERY = [
    "triangle", "homogeneity", "left-unitary", "right-koopman",
    "right-additivity", "left-subadditivity", "weighted-additivity", "lipschitz",
]


def _battery(rng, trials: int) -> list[PropertyCheck]:
    out: list[PropertyCheck] = []
    for name in _BATTERY:
        out.extend(SUITES[name](rng, trials))
    return out


def _all_suites(rng, trials: int) -> list[PropertyCheck]:
    out: list[PropertyCheck] = []
    for name, fn in SUITES.items():
        if name in ("invariance-battery", "all"):
            continue
        out.extend(fn(rng, trials))
    return out


SUITES["invariance-battery"] = _battery
SUITES["all"] = _all_suites


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, trials: int, seed: int) -> list[PropertyCheck]:
    """Run a registered suite; deterministic for a given seed (PCG64)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    return SUITES[name](rng, trials)

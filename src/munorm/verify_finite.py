"""Property suites on finite spaces: measure, operator core, norm, entropy.

Most are laws under ``verify._per_trial``; all are registered in
``verify.SUITES`` and run through ``verify.run_suite``.
"""

from __future__ import annotations

import math

import numpy as np

from . import entropy as ent
from .norm import CyclicAction, cyclic_projector, m_chi, mu_norm_sq
from .operators import (
    Endomorphism,
    OperatorMatrix,
    add,
    compose,
    koopman,
    multiplication as multiplier,
    operator_norm,
    projector,
    scale,
    vector_norm,
)
from .spaces import FiniteMeasureSpace, Partition, finest_partition, join
from .verify import PropertyCheck, _per_trial, _random_complex

# ---------------------------------------------------------------------------
# Random instance generators


def uniform_space(j: int) -> FiniteMeasureSpace:
    return FiniteMeasureSpace(np.full(j, 1.0 / j))


def random_space(rng, min_atoms: int = 2, max_atoms: int = 8) -> FiniteMeasureSpace:
    j = int(rng.integers(min_atoms, max_atoms + 1))
    raw = rng.uniform(0.2, 1.0, j)
    return FiniteMeasureSpace(raw / raw.sum())


def random_subset(rng, j: int) -> list[int]:
    mask = rng.random(j) < rng.uniform(0.2, 0.8)
    return list(np.nonzero(mask)[0])


def random_partition(rng, j: int, coarse: bool = False) -> Partition:
    """With ``coarse``, at most j - 1 labels, so some block has two or more atoms."""
    nblocks = int(rng.integers(1, j + 1 - coarse))
    labels = rng.integers(0, nblocks, j)
    blocks = [list(np.nonzero(labels == b)[0]) for b in range(nblocks)]
    return Partition(j, [b for b in blocks if b])


def random_matrix(rng, space: FiniteMeasureSpace) -> OperatorMatrix:
    j = space.size
    entries = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    return OperatorMatrix(space, entries / math.sqrt(2.0))


def _space_and_matrix(rng) -> tuple[FiniteMeasureSpace, OperatorMatrix]:
    space = random_space(rng)
    return space, random_matrix(rng, space)


def random_standard_unitary(rng, j: int) -> np.ndarray:
    g = (rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


def random_weighted_unitary(rng, space: FiniteMeasureSpace) -> OperatorMatrix:
    # Conjugating a standard unitary by D^(1/2) preserves the weighted product.
    q = random_standard_unitary(rng, space.size)
    s = np.sqrt(space.weights)
    return OperatorMatrix(space, (q * s[None, :]) / s[:, None])


def random_space_with_automorphism(rng) -> tuple[FiniteMeasureSpace, Endomorphism]:
    """1-3 classes of 1-4 atoms of equal weight, plus a permutation within each class."""
    nclasses = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 5)) for _ in range(nclasses)]
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


def random_cyclic_setup(rng, q: int, orbits: int) -> CyclicAction:
    raw = rng.uniform(0.2, 1.0, orbits)
    total = float(raw.sum()) * q
    weights = np.repeat(raw / total, q)
    space = FiniteMeasureSpace(weights)
    table = np.arange(space.size)
    for o in range(orbits):
        base = o * q
        table[base:base + q] = base + (np.arange(q) + 1) % q
    return CyclicAction(Endomorphism(space, table), q)


# ---------------------------------------------------------------------------
# Measure/operator-core and norm suites


@_per_trial(("projector-m-chi-equals-measure-of-met-blocks", 1e-12))
def projector_measure(rng):
    # pi_S pi_B is the projector onto S & B: norm 1 if S meets B, else 0
    space = random_space(rng, 2, 12)
    subset = random_subset(rng, space.size)
    chi = random_partition(rng, space.size, coarse=True)
    expected = sum(space.measure(b) for b in chi if set(b) & set(subset))
    return ({"J": space.size, "subset_size": len(subset), "blocks": len(chi)},
            abs(m_chi(projector(space, subset), chi) - expected))


def finest_formula(rng, trials: int) -> list[PropertyCheck]:
    fin_u = PropertyCheck("uniform-matches-finest-partition", 1e-10)
    fin_w = PropertyCheck("weighted-matches-finest-partition", 1e-10)
    # U pi_B is an isometry on the range of pi_B, so every block norm is 1
    unitary = PropertyCheck("weighted-unitary-m-chi-and-norm-equal-one", 1e-12)
    for i in range(trials):
        j = int(rng.integers(2, 17))
        space = uniform_space(j)
        w = random_matrix(rng, space)
        fin_u.update(abs(mu_norm_sq(w) - m_chi(w, finest_partition(space))), {"trial": i, "J": j})

        wspace = random_space(rng)
        ww = random_matrix(rng, wspace)
        fin_w.update(abs(mu_norm_sq(ww) - m_chi(ww, finest_partition(wspace))),
                     {"trial": i, "J": wspace.size})
    # drawn after the trials above, so their instances are unchanged
    for i in range(trials):
        space = random_space(rng)
        u = random_weighted_unitary(rng, space)
        chi = random_partition(rng, space.size, coarse=True)
        unitary.update(max(abs(m_chi(u, chi) - 1.0), abs(mu_norm_sq(u) - 1.0)),
                       {"trial": i, "J": space.size, "blocks": len(chi)})
    return [fin_u, fin_w, unitary]


@_per_trial(("multiplier-m-chi-equals-block-max-mass", 1e-12))
def multiplication(rng):
    # M_g pi_B multiplies by g on B, so its norm is the largest |g| there
    space = random_space(rng)
    g = _random_complex(rng, space.size)
    chi = random_partition(rng, space.size, coarse=True)
    expected = sum(space.measure(b) * float(np.max(np.abs(g[list(b)]))) ** 2 for b in chi)
    return {"J": space.size, "blocks": len(chi)}, abs(m_chi(multiplier(space, g), chi) - expected)


@_per_trial(("refinement-never-increases-m-chi", 1e-9), ("mu-norm-below-every-m-chi", 1e-9))
def partition_monotone(rng):
    space, w = _space_and_matrix(rng)
    chi = random_partition(rng, space.size)
    kappa = random_partition(rng, space.size)
    coarse = m_chi(w, chi)
    return {"J": space.size}, m_chi(w, join(chi, kappa)) - coarse, mu_norm_sq(w) - coarse


@_per_trial(("triangle-inequality", 1e-9))
def triangle(rng):
    space, w1 = _space_and_matrix(rng)
    w2 = random_matrix(rng, space)
    lhs = math.sqrt(mu_norm_sq(add(w1, w2)))
    return {"J": space.size}, lhs - (math.sqrt(mu_norm_sq(w1)) + math.sqrt(mu_norm_sq(w2)))


@_per_trial(("absolute-homogeneity", 1e-9))
def homogeneity(rng):
    space, w = _space_and_matrix(rng)
    lam = complex(_random_complex(rng, 1)[0])
    return {"J": space.size}, abs(mu_norm_sq(scale(lam, w)) - abs(lam) ** 2 * mu_norm_sq(w))


@_per_trial(("left-unitary-invariance", 1e-9))
def left_unitary(rng):
    space, w = _space_and_matrix(rng)
    u = random_weighted_unitary(rng, space)
    return {"J": space.size}, abs(mu_norm_sq(compose(u, w)) - mu_norm_sq(w))


@_per_trial(("right-composition-invariance", 1e-9))
def right_koopman(rng):
    space, endo = random_space_with_automorphism(rng)
    w = random_matrix(rng, space)
    return {"J": space.size}, abs(mu_norm_sq(compose(w, koopman(endo))) - mu_norm_sq(w))


@_per_trial(("right-unitary-invariance-uniform", 1e-9))
def right_unitary_uniform(rng):
    j = int(rng.integers(2, 9))
    space = uniform_space(j)
    w = random_matrix(rng, space)
    u = OperatorMatrix(space, random_standard_unitary(rng, j))
    return {"J": j}, abs(mu_norm_sq(compose(w, u)) - mu_norm_sq(w))


@_per_trial(("right-additivity-over-partitions", 1e-9))
def right_additivity(rng):
    space, w = _space_and_matrix(rng)
    chi = random_partition(rng, space.size)
    parts = sum(mu_norm_sq(compose(w, projector(space, b))) for b in chi.blocks)
    return {"J": space.size}, abs(parts - mu_norm_sq(w))


@_per_trial(("left-subadditivity-over-partitions", 1e-9))
def left_subadditivity(rng):
    space, w = _space_and_matrix(rng)
    chi = random_partition(rng, space.size)
    parts = sum(mu_norm_sq(compose(projector(space, b), w)) for b in chi.blocks)
    return {"J": space.size}, mu_norm_sq(w) - parts


@_per_trial(("pointwise-split-additivity", 1e-9))
def weighted_additivity(rng):
    space, w = _space_and_matrix(rng)
    g = _random_complex(rng, space.size)
    k = int(rng.integers(2, 5))
    frac = rng.random((k, space.size))
    frac /= frac.sum(axis=0, keepdims=True)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (k, space.size)))
    total = mu_norm_sq(compose(w, multiplier(space, g)))
    parts = sum(mu_norm_sq(compose(w, multiplier(space, g * np.sqrt(f) * phase)))
                for f, phase in zip(frac, phases))
    return {"J": space.size, "k": k}, abs(parts - total)


@_per_trial(("operator-norm-lipschitz-bound", 1e-9))
def lipschitz(rng):
    space, w1 = _space_and_matrix(rng)
    w2 = random_matrix(rng, space)
    lhs = abs(math.sqrt(mu_norm_sq(w2)) - math.sqrt(mu_norm_sq(w1)))
    return {"J": space.size}, lhs - operator_norm(add(w2, scale(-1.0, w1)))


@_per_trial(("left-operator-norm-domination", 1e-9))
def submultiplicative(rng):
    space, w1 = _space_and_matrix(rng)
    w2 = random_matrix(rng, space)
    return {"J": space.size}, mu_norm_sq(compose(w1, w2)) - operator_norm(w1) ** 2 * mu_norm_sq(w2)


@_per_trial(("composition-operator-isometry", 1e-10), ("composition-respects-products", 1e-12),
            ("projector-pullback-identity", 1e-12), ("column-mask-contracts-norm", 1e-10),
            ("unitary-left-norm-invariance", 1e-10),
            ("operator-norm-is-the-root-of-the-largest-gram-eigenvalue", 1e-12))
def operator_identities(rng):
    space, endo = random_space_with_automorphism(rng)
    u = koopman(endo)
    f = _random_complex(rng, space.size)
    g = _random_complex(rng, space.size)
    xi = random_subset(rng, space.size)
    lhs = compose(u, projector(space, xi)).entries
    rhs = compose(projector(space, endo.preimage(xi)), u).entries
    w = random_matrix(rng, space)
    y = random_subset(rng, space.size)
    uu = random_weighted_unitary(rng, space)
    a, b = operator_norm(compose(uu, w)), operator_norm(w)
    root = np.sqrt(space.weights)
    sym = root[:, None] * w.entries / root  # S = D^(1/2) W D^(-1/2)
    top = math.sqrt(float(np.linalg.eigvalsh(sym.conj().T @ sym)[-1]))
    return ({"J": space.size}, abs(vector_norm(space, u.apply(f)) - vector_norm(space, f)),
            float(np.max(np.abs(u.apply(f * g) - u.apply(f) * u.apply(g)))),
            float(np.max(np.abs(lhs - rhs))),
            operator_norm(compose(w, projector(space, y))) - b, abs(a - b) / max(b, 1e-30),
            abs(b - top) / top)


@_per_trial(("projector-chain-norm-equals-intersection-measure", 1e-9))
def projector_product(rng):
    space, endo = random_space_with_automorphism(rng)
    u = koopman(endo)
    k = int(rng.integers(1, 4))
    sets = [random_subset(rng, space.size) for _ in range(k + 1)]
    acc = projector(space, sets[0]).entries  # order: sets[0] acts first
    for y in sets[1:]:
        acc = projector(space, y).entries @ (u.entries @ acc)
    got = mu_norm_sq(OperatorMatrix(space, acc))
    inter = np.zeros(space.size, dtype=bool)
    inter[space.validate_subset(sets[k])] = True
    for step in range(1, k + 1):
        m = np.zeros(space.size, dtype=bool)
        m[space.validate_subset(sets[k - step])] = True
        inter &= m[endo.iterate(step).table]
    return {"J": space.size, "k": k}, abs(got - float(space.weights[inter].sum()))


# ---------------------------------------------------------------------------
# Entropy suites


@_per_trial(("path-mass-matches-itinerary-measure", 1e-12),
            ("operator-entropy-matches-measure-entropy", 1e-12))
def koopman_bridge(rng):
    j = int(rng.integers(2, 7))
    endo = Endomorphism(uniform_space(j), rng.permutation(j))
    u = koopman(endo)
    chi = random_partition(rng, j)
    n = int(rng.integers(1, 4))
    q_table = ent.path_mass_table(u, chi, n)
    k_table = ent.ks_path_measure_table(endo, chi, n)
    keys = set(q_table) | {tuple(reversed(key)) for key in k_table}
    # reading the itinerary backwards swaps the roles of map and preimage
    worst = max(abs(q_table.get(key, 0.0) - k_table.get(tuple(reversed(key)), 0.0))
                for key in keys)
    return ({"J": j, "n": n}, worst,
            abs(ent.quantum_entropy_at(u, chi, n) - ent.ks_entropy_at(endo, chi, n)))


@_per_trial(("finest-partition-path-masses-sum-to-one", 1e-10),
            ("any-partition-path-masses-sum-to-one", 1e-10))
def entropy_normalization(rng):
    # For a unitary the path masses sum to 1 at every partition and every
    # horizon: summing a block digit over its atoms and then over blocks
    # restores the full orthonormality relation, so all cross terms cancel.
    # The enumeration is summed so the identity is checked, not assumed.
    j = int(rng.integers(2, 7))
    u = OperatorMatrix(uniform_space(j), random_standard_unitary(rng, j))
    wspace = random_space(rng, 2, 6)
    wu = random_weighted_unitary(rng, wspace)

    def gaps(w, chi, horizons):
        return [(abs(sum(ent.path_mass_table(w, chi, n).values()) - 1.0),
                 {"J": w.space.size, "n": n}) for n in horizons]
    return ({}, gaps(u, finest_partition(u.space), (1, 2)),
            gaps(wu, random_partition(rng, wspace.size), (1, 2, 3)))


def closed_entropy(rng, trials: int) -> list[PropertyCheck]:
    perm0 = PropertyCheck("permutation-entropy-vanishes", 1e-15)
    balanced = PropertyCheck("balanced-two-state-entropy-is-log2", 1e-12)
    markov = PropertyCheck("matches-markov-rate-at-uniform-distribution", 1e-12)
    # the rate weights row entropies by nu: H(X0, X1) - H(X0), X0 ~ nu
    chain = PropertyCheck("markov-rate-matches-chain-rule", 1e-12)
    hadamard = OperatorMatrix(uniform_space(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    balanced.update(abs(ent.quantum_entropy_closed(hadamard) - math.log(2.0)), {})
    for i in range(trials):
        j = int(rng.integers(2, 9))
        space = uniform_space(j)
        perm = koopman(Endomorphism(space, rng.permutation(j)))
        perm0.update(abs(ent.quantum_entropy_closed(perm)), {"trial": i, "J": j})
        u = OperatorMatrix(space, random_standard_unitary(rng, j))
        closed = ent.quantum_entropy_closed(u)
        rate = ent.markov_entropy_rate(np.abs(u.entries) ** 2, np.full(j, 1.0 / j))
        markov.update(abs(closed - rate), {"trial": i, "J": j})
    # drawn after the trials above, so their instances are unchanged
    for i in range(trials):
        j = int(rng.integers(2, 9))
        p = rng.uniform(0.0, 1.0, (j, j))
        p[p < 0.25] = 0.0
        p[np.arange(j), rng.integers(0, j, j)] += 1.0  # no empty row
        p /= p.sum(axis=1, keepdims=True)
        nu = rng.uniform(0.1, 1.0, j)
        nu /= nu.sum()
        conditional = _shannon(nu[:, None] * p) - _shannon(nu)
        chain.update(abs(ent.markov_entropy_rate(p, nu) - conditional), {"trial": i, "J": j})
    return [perm0, balanced, markov, chain]


def _shannon(probs: np.ndarray) -> float:
    v = probs[probs > 0.0]
    return -float(np.sum(v * np.log(v)))


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


@_per_trial(("finest-entropy-matches-markov-chain-uniform", 1e-10),
            ("finest-entropy-matches-markov-chain-weighted", 1e-10))
def finest_markov_route(rng):
    """Finest-partition path entropy against its Markov chain, O(n J^2) per value.

    Path masses at the finest partition are those of the chain started at
    mu with transition ``_finest_transition``.  Sizes reach 8^5 terms
    (J = 8, n = 4), past what the dense oracle enumerates.
    """
    j = int(rng.integers(2, 9))
    n = int(rng.integers(2, 5))
    u = OperatorMatrix(uniform_space(j), random_standard_unitary(rng, j))
    wu = random_weighted_unitary(rng, random_space(rng, j, j))
    return ({"J": j, "n": n}, *(abs(ent.quantum_entropy_at(x, finest_partition(x.space), n)
                                    - _markov_path_entropy(x, n)) for x in (u, wu)))


def cyclic_dimension(rng, trials: int) -> list[PropertyCheck]:
    t = PropertyCheck("cyclic-eigenspace-dimension-is-1-over-q", 1e-10)
    combos = [(q, m) for q in (2, 3, 4, 6) for m in (1, 2, 3)]
    for i in range(max(1, trials // len(combos))):
        for q, m in combos:
            action = random_cyclic_setup(rng, q, m)
            for n in range(q):
                v = abs(mu_norm_sq(cyclic_projector(action, n)) - 1.0 / q)
                t.update(v, {"round": i, "q": q, "orbits": m, "residue": n})
    return [t]

"""Seeded property suites driving every invariant the library promises.

Each suite draws random instances from a ``numpy.random.Generator``
(PCG64; reports are reproducible given the seed) and returns a list of
``PropertyCheck`` records with the maximal observed violation against a
pinned tolerance.  The acceptance tests and the ``verify`` CLI command
both run these.

The suites live in ``verify_finite`` (finite spaces: spaces, operators,
norm, entropy) and ``verify_circle`` (the circle layer); ``run_suite``
imports only the module of the suites it runs, so a circle suite does
not load the finite layers, nor a finite suite the circle layer.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

__all__ = ["PropertyCheck", "SUITES", "GROUPS", "run_suite", "suite_names"]


@dataclass
class PropertyCheck:
    """Outcome of one property over a batch of random instances.

    A suite creates it with a name and a tolerance and feeds it one
    ``update`` per instance checked; ``trials`` counts the updates.
    """

    name: str
    tolerance: float
    trials: int = 0
    max_violation: float = 0.0
    worst: dict | None = None

    def update(self, violation: float, instance: dict | None = None) -> None:
        self.trials += 1
        if violation > self.max_violation:
            self.max_violation = float(violation)
            self.worst = instance

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def _random_complex(rng, n, amp: float = 2.0) -> np.ndarray:
    mod = rng.uniform(0.0, amp, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    return mod * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Registry


#: Suite name -> (module, function) of every single suite, in the order
#: ``all`` runs them.
SUITES: dict[str, tuple[str, str]] = {
    "projector-measure": ("verify_finite", "projector_measure"),
    "finest-formula": ("verify_finite", "finest_formula"),
    "multiplication": ("verify_finite", "multiplication_law"),
    "partition-monotone": ("verify_finite", "partition_monotone"),
    "triangle": ("verify_finite", "triangle"),
    "homogeneity": ("verify_finite", "homogeneity"),
    "left-unitary": ("verify_finite", "left_unitary"),
    "right-koopman": ("verify_finite", "right_koopman"),
    "right-unitary-uniform": ("verify_finite", "right_unitary_uniform"),
    "right-additivity": ("verify_finite", "right_additivity"),
    "left-subadditivity": ("verify_finite", "left_subadditivity"),
    "weighted-additivity": ("verify_finite", "weighted_additivity"),
    "lipschitz": ("verify_finite", "lipschitz"),
    "submultiplicative": ("verify_finite", "submultiplicative"),
    "operator-identities": ("verify_finite", "operator_identities"),
    "projector-product": ("verify_finite", "projector_product"),
    "koopman-bridge": ("verify_finite", "koopman_bridge"),
    "entropy-normalization": ("verify_finite", "entropy_normalization"),
    "closed-entropy": ("verify_finite", "closed_entropy"),
    "finest-markov-route": ("verify_finite", "finest_markov_route"),
    "cyclic-dimension": ("verify_finite", "cyclic_dimension"),
    "rho-oracle": ("verify_circle", "rho_oracle"),
    "dt-integral": ("verify_circle", "dt_integral"),
    "two-tail-integral": ("verify_circle", "two_tail_integral"),
    "two-tail-section": ("verify_circle", "two_tail_section"),
    "trace-invariance": ("verify_circle", "trace_invariance"),
    "norm-chain": ("verify_circle", "norm_chain"),
    "dt-star-algebra": ("verify_circle", "dt_star_algebra"),
    "w-symbol-bound": ("verify_circle", "w_symbol_bound"),
    "rho-la-continuity": ("verify_circle", "rho_la_continuity"),
    "section-route": ("verify_circle", "section_route"),
}

#: Suites that run several single suites in turn, each from its own generator.
GROUPS: dict[str, tuple[str, ...]] = {
    # the eight properties of the invariance battery
    "invariance-battery": (
        "triangle", "homogeneity", "left-unitary", "right-koopman",
        "right-additivity", "left-subadditivity", "weighted-additivity", "lipschitz",
    ),
    "all": tuple(SUITES),
}


def suite_names() -> list[str]:
    return sorted([*SUITES, *GROUPS])


def run_suite(name: str, trials: int, seed: int) -> list[PropertyCheck]:
    """Run a registered suite; deterministic for a given seed (PCG64).

    Every member of a group draws from its own generator seeded with
    ``seed``, so a group reports exactly what its members report when
    each runs alone.
    """
    if name not in SUITES and name not in GROUPS:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    out: list[PropertyCheck] = []
    for member in GROUPS.get(name, (name,)):
        module, function = SUITES[member]
        suite = getattr(importlib.import_module(f".{module}", __package__), function)
        out.extend(suite(np.random.default_rng(seed), trials))
    return out

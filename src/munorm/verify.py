"""Seeded property suites driving every invariant the library promises.

Each suite draws random instances from a ``numpy.random.Generator``
(PCG64; reports are reproducible given the seed) and returns a list of
``PropertyCheck`` records with the maximal observed violation against a
pinned tolerance.  The acceptance tests and the ``verify`` CLI command
both run these.

The suites live in ``verify_finite`` (finite spaces: spaces, operators,
norm, entropy) and ``verify_circle`` (the circle layer).  The registry
is one table from each module to the names of its suites, and a suite
is the module's function of its name with ``-`` written as ``_``;
``run_suite`` imports only the module of the suites it runs, so a
circle suite does not load the finite layers, nor a finite suite the
circle layer.

Most suites are a law under ``@_per_trial((name, tolerance), ...)``: each
call of ``law(rng)`` draws one instance and returns its record, then one
violation per check, or a list of ``(violation, record)`` pairs for a
check it updates once per pair.  Five suites keep their own loop:
``dt-integral``, ``two-tail-integral`` and ``closed-entropy`` check fixed
instances; ``finest-formula`` and ``closed-entropy`` draw a second batch
after the trials; and ``cyclic-dimension`` runs rounds, not trials.  A
check with no instance, or with a NaN violation, fails.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PropertyCheck", "SUITES", "GROUPS", "run_suite", "suite_names"]


@dataclass
class PropertyCheck:
    """Outcome of one property over a batch of random instances.

    A suite creates it with a name and a tolerance and feeds it one
    ``update`` per instance checked; ``trials`` counts the updates.  It
    passes when at least one instance was checked and none violated the
    tolerance; the first NaN violation is kept as the worst.
    """

    name: str
    tolerance: float
    trials: int = 0
    max_violation: float = 0.0
    worst: dict | None = None

    def update(self, violation: float, instance: dict | None = None) -> None:
        self.trials += 1
        # a NaN compares false both ways: the first is taken, and nothing replaces it
        if not math.isnan(self.max_violation) and not violation <= self.max_violation:
            self.max_violation = float(violation)
            self.worst = instance

    @property
    def passed(self) -> bool:
        return self.trials >= 1 and self.max_violation <= self.tolerance


def _per_trial(*checks: tuple[str, float]):
    """The suite of ``law(rng)``, which draws one instance and returns its record, then one
    violation per check; trial ``i`` updates each check with ``{"trial": i, **record}``.  A
    check's violation may instead be a list of ``(violation, pair_record)`` pairs, each one
    update with ``{"trial": i, **record, **pair_record}``."""
    def suite_of(law):
        def suite(rng, trials: int) -> list[PropertyCheck]:
            out = [PropertyCheck(name, tolerance) for name, tolerance in checks]
            for i in range(trials):
                record, *violations = law(rng)
                for check, found in zip(out, violations, strict=True):
                    for violation, extra in found if isinstance(found, list) else [(found, {})]:
                        check.update(violation, {"trial": i, **record, **extra})
            return out
        suite.__name__ = suite.__qualname__ = law.__name__
        return suite
    return suite_of


def _random_complex(rng, n, amp: float = 2.0) -> np.ndarray:
    mod = rng.uniform(0.0, amp, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    return mod * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Registry


#: Module -> the single suites it holds, in the order ``all`` runs them.  A
#: suite is the module's function of its name with ``-`` written as ``_``.
_MODULES = {
    "verify_finite": (
        "projector-measure", "finest-formula", "multiplication", "partition-monotone",
        "triangle", "homogeneity", "left-unitary", "right-koopman", "right-unitary-uniform",
        "right-additivity", "left-subadditivity", "weighted-additivity", "lipschitz",
        "submultiplicative", "operator-identities", "projector-product", "koopman-bridge",
        "entropy-normalization", "closed-entropy", "finest-markov-route", "cyclic-dimension"),
    "verify_circle": (
        "rho-oracle", "dt-integral", "two-tail-integral", "two-tail-section",
        "trace-invariance", "norm-chain", "dt-star-algebra", "w-symbol-bound",
        "rho-la-continuity", "section-route"),
}
#: Suite name -> module of every single suite, in the order ``all`` runs them.
SUITES: dict[str, str] = {name: module for module, names in _MODULES.items() for name in names}

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
        module = importlib.import_module(f".{SUITES[member]}", __package__)
        suite = getattr(module, member.replace("-", "_"))
        out.extend(suite(np.random.default_rng(seed), trials))
    return out

"""Partition-based operator norms and their derived quantities.

The core object is a seminorm on bounded operators defined through
measurable partitions: the infimum over partitions of the weighted sum
of squared block-restricted operator norms.  On finite spaces it is
computed exactly; on the circle it is evaluated in closed form for
banded (diagonal-type) matrices with two periodic tails, convolutions
among them.
On top of it sit the dimension of a subspace, a path entropy for
unitaries mirroring the measure entropy of a map, and the average-trace
lower bound for the diagonal-type algebra.
"""

import importlib

__version__ = "0.1.0"

#: The layer modules and the names each exports, which each layer module
#: reads for its ``__all__``.  Both load on first access (PEP 562), so a
#: process pays only for the layers it touches: ``import munorm.cli``
#: loads none of them.
_LAYERS = {
    "spaces": ("FiniteMeasureSpace", "Partition", "join", "finest_partition"),
    "operators": ("OperatorMatrix", "Endomorphism", "projector", "multiplication", "koopman",
                  "identity", "operator_norm", "add", "scale", "compose", "adjoint", "inner",
                  "vector_norm", "unitarity_defect"),
    "norm": ("m_chi", "mu_norm_sq", "mu_dim", "weighted_gram_schmidt",
             "CyclicAction", "cyclic_projector"),
    "entropy": ("EntropyReport", "path_mass_table",
                "quantum_entropy_at", "quantum_entropy_rate", "quantum_entropy_closed",
                "ks_entropy_at", "ks_entropy_rate", "ks_path_measure_table",
                "markov_entropy_rate"),
    "circle": ("PeriodicBandOperator", "DtMuNorm", "rho_window_max", "dt_from_seq",
               "dt_from_multiplier", "dt_norm", "dt_add", "dt_compose",
               "dt_adjoint", "w_l", "rho_la", "dt_mu_norm_sq", "tail_masses", "avg_trace",
               "finite_section"),
}
_EXPORTS = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = sorted([*_EXPORTS, "CapExceeded", "DEFAULT_TERM_CAP"])

# The values the layers share live here, where reading them loads neither
# numpy nor a layer.  Default cap on the terms a path-entropy enumeration
# may visit; largest deviation from 1 of the sum of an input probability
# vector (a space's weights, a Markov chain's distribution), which is
# never renormalized.
DEFAULT_TERM_CAP = 10**6
WEIGHT_SUM_TOL = 1e-9


class CapExceeded(RuntimeError):
    """A resource cap (enumeration terms, band, period, window) was exceeded;
    raised instead of truncating, its message states the need and the cap."""


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_LAYERS})

"""Spectral zeta functions, heat kernels and domination checks on n-spheres,
with exact matrix verification of Kato-type semigroup inequalities.

``import spherezeta`` runs no library module.  The first read of a public
name (``from spherezeta import *`` included) imports the seven modules
below and binds all of ``__all__`` in this namespace at once, so later reads
are plain attribute lookups; ``dir(spherezeta)`` lists the names without
importing anything.  ``import spherezeta.<module>`` runs only that module
and the modules it imports.
"""

import importlib

__version__ = "0.1.0"

# defining module -> its public names, in the order of __all__
_EXPORTS = {
    "truncation": ("AccuracyError", "DEFAULT_POLICY", "EvalResult", "TruncationError",
                   "TruncationPolicy"),
    "specfun": ("gegenbauer_ratio", "gegenbauer_ratio_series", "hurwitz_via_binomial",
                "hurwitz_zeta", "riemann_zeta"),
    "spectrum": ("SphereSpec", "SpectrumEntry", "eigenvalue", "multiplicity",
                 "multiplicity_product_form", "shifted_eigenvalue", "sphere_spec",
                 "spectrum_slice"),
    "zeta": ("ZetaPair", "closed_form_Z", "compare_zeta_pair", "hurwitz_style_Z",
             "regularized_zeta", "spectral_zeta"),
    "kernels": ("KernelQuery", "circle_heat_oracle", "heat_kernel", "heat_trace",
                "mellin_zeta_kernel", "zeta_kernel"),
    "majorize": ("DominationReport", "MajorizationReport", "partial_sum_domination",
                 "weak_majorizes"),
    "kato": ("EntrywiseReport", "PairingReport", "Potential", "SymmetricOperator",
             "TraceReport", "commute_residual", "complete_laplacian", "cycle_laplacian",
             "duhamel_residual", "generator_pairing_check", "is_graph_laplacian",
             "kato_pointwise_check", "positivity_domination_check", "potential",
             "random_graph_laplacian", "random_state", "semigroup", "sign_vector",
             "symmetric_operator", "trace_domination_check"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_PUBLIC = frozenset(__all__)


def _bind_public_names() -> None:
    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(f".{module_name}", __name__)
        for name in names:
            namespace[name] = getattr(module, name)


def __getattr__(name):
    # called only for names not yet bound here (PEP 562)
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_public_names()
    return globals()[name]


def __dir__():
    # the public names, bound yet or not, and the module's dunder attributes
    return sorted(_PUBLIC.union(name for name in globals() if name.startswith("__")))

"""Exact toolkit for equiangular line systems.

Generates the defining polynomial systems for maximal sets of complex
equiangular lines (SIC-POVMs), Weyl-Heisenberg covariant fiducial
vectors, and real equiangular line sets; computes Groebner bases with
Buchberger's algorithm over Q and over cyclotomic fields; solves the
zero-dimensional systems numerically at arbitrary precision; verifies
candidate configurations.

Each layer loads on first use: ``import eqlines`` imports no submodule,
and a name below imports the module that defines it when it is first
looked up (PEP 562). mpmath is loaded only by the numeric code (solver,
verify, the field descriptors' ``embed``, ``sicgen.apply_weyl``), so
generating a system and computing its Groebner basis run without it.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = {
    "exact": ("QQ", "CycloField", "CycloNum", "cyclotomic_poly"),
    "polyring": ("Poly", "Ring"),
    "groebner": (
        "Certificate",
        "PairBudgetExceeded",
        "buchberger",
        "check_certificate",
        "grevlex_then_lex",
        "is_groebner",
        "is_zero_dimensional",
        "quotient_dimension",
    ),
    "sicgen": (
        "PolySystem",
        "SeidelSpec",
        "apply_weyl",
        "gen_complex_full",
        "gen_real_system",
        "gen_wh_system",
    ),
    "solver": (
        "SolutionPoint",
        "SolutionSet",
        "Tolerances",
        "solve_triangular",
        "zauner_vectors",
    ),
    "verify": (
        "gram_analysis",
        "spectral_reconstruct",
        "unit_certify",
        "verify_equiangular_real",
        "verify_fiducial",
    ),
}

_OWNER = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Exact computations in the motivic mod-2 Steenrod algebra with tau = 0.

The package provides the Milnor-basis Hopf algebra and its operations,
graded modules with Margolis homology, minimal free resolutions with Ext
charts, the periodicity tower complexes and their verification checks,
plus a CLI (``wsteenrod``) for element arithmetic, resolving, verifying
and chart emission.

Importing the package loads no submodule.  Each public name below is
imported from its submodule on first access (PEP 562), so a program pays
only for the modules it uses.  The value is not stored in the package
namespace: every access reads the submodule's current attribute.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    "ExtChart": "charts",
    "compare_charts": "charts",
    "koszul_chart": "charts",
    "polynomial_chart": "charts",
    "w_class_degree": "charts",
    "ClassicalElement": "classical",
    "classical_product": "classical",
    "milnor_product": "classical",
    "to_classical": "classical",
    "BitMatrix": "gf2",
    "BitVector": "gf2",
    "Subspace": "gf2",
    "kernel": "gf2",
    "rank": "gf2",
    "rref": "gf2",
    "solve": "gf2",
    "BiDegree": "milnor",
    "DualElement": "milnor",
    "DualMonomial": "milnor",
    "MilnorAlgebra": "milnor",
    "SteenrodElement": "milnor",
    "WindowError": "milnor",
    "algebra": "milnor",
    "bidegree_basis": "milnor",
    "AlgebraModule": "modules",
    "GradedModule": "modules",
    "InvariantViolation": "modules",
    "QuotientModule": "modules",
    "TrivialModule": "modules",
    "margolis": "modules",
    "tensor_power": "modules",
    "FreeModule": "resolution",
    "ModuleMap": "resolution",
    "PartialResultError": "resolution",
    "Resolution": "resolution",
    "minimal_resolution": "resolution",
    "KwComplex": "towers",
    "WbpComplex": "towers",
    "k_invariant_check": "towers",
    "kw_chow_check": "towers",
    "kw_homology": "towers",
    "smash_chow_check": "towers",
    "vi_basis": "towers",
    "wbp_complex_check": "towers",
    "wbp_differential_check": "towers",
    "VerificationReport": "verify",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{source}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCES))

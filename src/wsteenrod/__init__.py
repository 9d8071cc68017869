"""Exact computations in the motivic mod-2 Steenrod algebra with tau = 0.

The package provides the Milnor-basis Hopf algebra and its operations,
graded modules with Margolis homology, minimal free resolutions with Ext
charts, the periodicity tower complexes and their verification checks,
plus a CLI (``wsteenrod``) for element arithmetic, resolving, verifying
and chart emission.
"""

from .charts import (
    ChartDiff,
    ExtChart,
    compare_charts,
    koszul_chart,
    polynomial_chart,
    w_class_degree,
)
from .classical import ClassicalElement, classical_product, milnor_product, to_classical
from .gf2 import BitMatrix, BitVector, Subspace, kernel, quotient, rank, rref, solve
from .milnor import (
    BiDegree,
    DualElement,
    DualMonomial,
    MilnorAlgebra,
    SteenrodElement,
    WindowError,
    algebra,
    bidegree_basis,
)
from .modules import (
    AlgebraModule,
    ExteriorProfile,
    GradedModule,
    InvariantViolation,
    MargolisReport,
    QuotientModule,
    TrivialModule,
    margolis,
    quotient_by_exterior,
    tensor_diagonal,
    tensor_power,
)
from .resolution import FreeModule, ModuleMap, PartialResultError, Resolution, minimal_resolution
from .towers import (
    KwComplex,
    SequenceR,
    VerificationReport,
    WbpComplex,
    WbpLayer,
    k_invariant_check,
    kw_chow_check,
    kw_homology,
    laurent_chart,
    smash_chow_check,
    vi_basis,
    wbp_complex_check,
    wbp_differential_check,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraModule",
    "BiDegree",
    "BitMatrix",
    "BitVector",
    "ChartDiff",
    "ClassicalElement",
    "DualElement",
    "DualMonomial",
    "ExtChart",
    "ExteriorProfile",
    "FreeModule",
    "GradedModule",
    "InvariantViolation",
    "KwComplex",
    "MargolisReport",
    "MilnorAlgebra",
    "ModuleMap",
    "PartialResultError",
    "QuotientModule",
    "Resolution",
    "SequenceR",
    "SteenrodElement",
    "Subspace",
    "TrivialModule",
    "VerificationReport",
    "WbpComplex",
    "WbpLayer",
    "WindowError",
    "algebra",
    "bidegree_basis",
    "classical_product",
    "compare_charts",
    "k_invariant_check",
    "kernel",
    "koszul_chart",
    "kw_chow_check",
    "kw_homology",
    "laurent_chart",
    "margolis",
    "milnor_product",
    "minimal_resolution",
    "polynomial_chart",
    "quotient",
    "quotient_by_exterior",
    "rank",
    "rref",
    "smash_chow_check",
    "solve",
    "tensor_diagonal",
    "tensor_power",
    "to_classical",
    "vi_basis",
    "w_class_degree",
    "wbp_complex_check",
    "wbp_differential_check",
]

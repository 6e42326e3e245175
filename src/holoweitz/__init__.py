"""Exact computational representation theory for special holonomy.

Root systems, highest-weight representations, tensor and exterior
decompositions, Casimir eigenvalues, universal Weitzenboeck formulas and
a deduction engine for the parallelism of twistor, Killing and *-Killing
forms under G2 and Spin7 holonomy.  All arithmetic is exact rational.
"""

from .contexts import HolonomyContext, form_space, make_context
from .decompose import Decomposition, exterior_power, tensor
from .errors import (
    ContextNotSupported,
    DegreeOutOfRange,
    HoloweitzError,
    InternalError,
    MixedRootSystems,
    MultiplicityViolation,
    NotAFormComponent,
    TrivialHolonomyRep,
    UnsupportedContext,
    UnsupportedFormClass,
    UnsupportedType,
)
from .irreps import (
    Irrep,
    adjoint_irrep,
    casimir_lambda2,
    dimension,
)
from .prover import (
    ComponentVerdict,
    DegreeReport,
    FormClass,
    TheoremReport,
    integrability_factor,
    prove_component,
    prove_degree,
    prove_theorems,
)
from .roots import RootSystem, build_root_system
from .weitzenboeck import WeitzenboeckFormula, conformal_weights, trace_residual

__version__ = "0.1.0"

__all__ = [
    "ComponentVerdict",
    "ContextNotSupported",
    "Decomposition",
    "DegreeOutOfRange",
    "DegreeReport",
    "FormClass",
    "HolonomyContext",
    "HoloweitzError",
    "InternalError",
    "Irrep",
    "MixedRootSystems",
    "MultiplicityViolation",
    "NotAFormComponent",
    "RootSystem",
    "TheoremReport",
    "TrivialHolonomyRep",
    "UnsupportedContext",
    "UnsupportedFormClass",
    "UnsupportedType",
    "WeitzenboeckFormula",
    "adjoint_irrep",
    "build_root_system",
    "casimir_lambda2",
    "conformal_weights",
    "dimension",
    "exterior_power",
    "form_space",
    "integrability_factor",
    "make_context",
    "prove_component",
    "prove_degree",
    "prove_theorems",
    "tensor",
    "trace_residual",
]

"""Symbolic and numeric exterior calculus for singular symplectic geometry.

Charts carry a distinguished hypersurface Z = {x = 0}; forms are Laurent
polynomials in x with smooth coefficients.  The package verifies symplectic,
Poisson, contact, cosymplectic, and folded structures on such charts,
certifies gluing constructions, and evaluates cohomology formulas."""

from .expr import (
    Const, DEFAULT_SEED, DomainError, Expr, ExprError, Var, add, canon, cos,
    differentiate, evaluate, exp, is_provably_zero, is_zero, mul, powx, ser,
    sin, sqrt, var,
)
from .geometry import (
    Chart, GeometryError, SingularForm, ZeroVerdictMap, exterior_derivative,
    form_from_json, form_to_json, forms_equal,
    interior_product, laurent_decompose, make_form, smooth_form, top_power,
    wedge, zero_form,
)
from .certificates import Certificate, all_of, chart_grid
from .linalg import sym_adjugate, sym_det, sym_inverse
from .algebroids import (
    AlgebroidFrame, NoGoReport, coframe, is_smooth_section, no_go_check,
    nondegenerate,
)
from .structures import (
    ContactData, CosymplecticData, FillingVerdict, closedness,
    cosymplectic_extract, decompose, dual_jacobi_check, dual_roundtrip_check,
    dualize, induced_contact, lift, normal_form, reeb,
    restrict_to_z, strong_filling_check, verify_folded, verify_sc_symplectic,
    z_chart,
)
from .gluing import (
    FillingCollar, GluedForm, certify_folded_gluing, certify_sc_gluing,
    glue_concave_concave, glue_convex_concave, glue_convex_convex,
)
from .cohomology import (
    BettiProfile, CohomologyReport, FiniteRank, InfiniteDimensional,
    Unresolved, Zero, bk_poisson, kunneth, sc_derham, sc_poisson,
)
from .catalog import ExampleRecord, build_example, list_examples, run_example

# public names whose modules load on first use (PEP 562), so that importing
# the package compiles none of them
_LAZY = {
    "parse": "reader",
    "d_h_squared_check": "quotient",
    "horizontal_d": "quotient",
    "lie_derivative": "quotient",
    "quotient_kernel_check_rigged": "quotient",
    "quotient_kernel_check_sc": "quotient",
    "rigged_closed_representative": "quotient",
    "sc_reduction_primitive": "quotient",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)

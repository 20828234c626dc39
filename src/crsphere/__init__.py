"""Spectral CR calculus on the unit 3-sphere.

Truncated polynomial model of the standard CR structure: frame derivatives,
tangential Cauchy-Riemann complexes on scalars and contact fields, homotopy
inverses, contact flows with transported frame vectors, and the normal-form
solver that conjugates a deformed structure to ``i dbar Y + psi``.
"""

from .basis import (Basis, NonFiniteError, SpectralScalar, build_basis, frame_derivative,
                    fs_norm, multiply)
from .fields import (
    ComplexContactField,
    ContactField,
    VField,
    complex_contact,
    complex_contact_norm,
    contact_from_generating,
    decompose,
    pi_im,
    pi_re,
)
from .flow import (
    ContactDiffeo,
    DeformationTensor,
    FlowError,
    NeighbourhoodError,
    e_remainder,
    pullback_deformation,
    pullback_scalar,
)
from .geometry import QuadratureGrid, ReferenceGeometry, monomial_moment
from .normal_form import (
    ContractionError,
    ConvergenceError,
    NormalFormResult,
    contraction_t,
    estimate_harness,
    linear_solution,
    prefab_normal_form,
    pullback_of_zero,
    random_deformation,
    slice_check,
    solve,
)
from .operators import FieldForm01, HolField, OperatorSuite, ScalarForm01

__version__ = "0.1.0"

# the polynomial evaluation kernels, crsphere._core.eval_bilinear (scalars at
# points) and crsphere._core.eval_poly (the flow right-hand side)
kernel_implementation = "numpy"

__all__ = [
    "Basis",
    "ComplexContactField",
    "ContactDiffeo",
    "ContactField",
    "ContractionError",
    "ConvergenceError",
    "DeformationTensor",
    "FieldForm01",
    "FlowError",
    "HolField",
    "NeighbourhoodError",
    "NonFiniteError",
    "NormalFormResult",
    "OperatorSuite",
    "QuadratureGrid",
    "ReferenceGeometry",
    "ScalarForm01",
    "SpectralScalar",
    "VField",
    "build_basis",
    "complex_contact",
    "complex_contact_norm",
    "contact_from_generating",
    "contraction_t",
    "decompose",
    "e_remainder",
    "estimate_harness",
    "frame_derivative",
    "fs_norm",
    "kernel_implementation",
    "linear_solution",
    "monomial_moment",
    "multiply",
    "pi_im",
    "pi_re",
    "prefab_normal_form",
    "pullback_deformation",
    "pullback_of_zero",
    "pullback_scalar",
    "random_deformation",
    "slice_check",
    "solve",
    "__version__",
]

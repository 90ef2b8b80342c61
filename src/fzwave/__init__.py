"""Wave fields with fractional time and space memory.

The package computes the solution kernel of a viscoelastic wave model whose
constitutive law carries a fractional time derivative (Zener form) and whose
strain measure is a symmetrized fractional space derivative. The public
surface covers the characteristic-function machinery, its certified zero
pair, the residue-plus-branch-cut spectral kernel, the regularized space-time
kernel and displacement fields, the closed-form limiting kernels, and an
independent Bromwich-line inversion used as a cross-checking oracle.
"""

from .charfun import CharParams, branch_values, psi, psi_prime, theta_of_rho, zener_ratio
from .errors import FzwaveError, NumericsError, ValidationError
from .fracops import SampledSignal, caputo_derivative, l_operator_apply, symmetrized_derivative
from .kernel import (
    Field,
    SpectralKernel,
    delta_eps,
    kernel_classical,
    kernel_eps,
    kernel_eps_time_integrated,
    kernel_time_fractional,
    laplace_kernel_hat,
    spectral_kernel,
    spectral_kernel_alpha0,
)
from .laplace_oracle import BromwichConfig, bromwich_invert
from .params import ModelParams, PhysicalParams, Scales, nondimensionalize, validate_model
from .rootfinder import ZeroPair, find_zero_pair, winding_number
from .solver import InitialData, nonprop_solution, peak_metrics, solve_field
from .specfun import e_alpha, e_alpha_prime, mittag_leffler

__all__ = [
    "BromwichConfig",
    "CharParams",
    "Field",
    "FzwaveError",
    "InitialData",
    "ModelParams",
    "NumericsError",
    "PhysicalParams",
    "SampledSignal",
    "Scales",
    "SpectralKernel",
    "ValidationError",
    "ZeroPair",
    "branch_values",
    "bromwich_invert",
    "caputo_derivative",
    "delta_eps",
    "e_alpha",
    "e_alpha_prime",
    "find_zero_pair",
    "kernel_classical",
    "kernel_eps",
    "kernel_eps_time_integrated",
    "kernel_time_fractional",
    "l_operator_apply",
    "laplace_kernel_hat",
    "mittag_leffler",
    "nondimensionalize",
    "nonprop_solution",
    "peak_metrics",
    "psi",
    "psi_prime",
    "solve_field",
    "spectral_kernel",
    "spectral_kernel_alpha0",
    "symmetrized_derivative",
    "theta_of_rho",
    "validate_model",
    "winding_number",
    "zener_ratio",
]

__version__ = "0.1.0"

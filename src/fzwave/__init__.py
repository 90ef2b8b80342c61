"""Wave fields with fractional time and space memory.

The package computes the solution kernel of a viscoelastic wave model whose
constitutive law carries a fractional time derivative (Zener form) and whose
strain measure is a symmetrized fractional space derivative. The public
surface covers the characteristic-function machinery, its certified zero
pair, the residue-plus-branch-cut spectral kernel, the regularized space-time
kernel and displacement fields, the closed-form limiting kernels, and an
independent Bromwich-line inversion used as a cross-checking oracle.

``import fzwave`` loads neither NumPy nor any submodule: each public name is
imported from its submodule on first access (PEP 562) and then kept in this
module's globals, so later lookups are plain attribute reads.
"""

import importlib

# submodule -> the public names it provides; each name is listed once
_EXPORTS = {
    "charfun": ("CharParams", "branch_values", "psi", "psi_prime", "theta_of_rho",
                "zener_ratio"),
    "errors": ("FzwaveError", "NumericsError", "ValidationError"),
    "fracops": ("caputo_derivative", "l_operator_apply", "symmetrized_derivative"),
    "kernel": ("Field", "SpectralKernel", "delta_eps", "kernel_classical", "kernel_eps",
               "kernel_eps_time_integrated", "kernel_time_fractional", "laplace_kernel_hat",
               "spectral_kernel", "spectral_kernel_alpha0"),
    "laplace_oracle": ("bromwich_invert",),
    "params": ("ModelParams", "PhysicalParams", "SampledSignal", "Scales", "nondimensionalize",
               "validate_model"),
    "rootfinder": ("ZeroPair", "find_zero_pair", "winding_number"),
    "solver": ("InitialData", "nonprop_solution", "peak_metrics", "solve_field"),
    "specfun": ("e_alpha", "e_alpha_prime", "mittag_leffler"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        # a bare ``import fzwave`` still reaches the submodules: ``fzwave.kernel``
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))

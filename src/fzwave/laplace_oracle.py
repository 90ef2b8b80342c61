"""Independent Bromwich-line inversion of the Laplace-domain kernel.

This module certifies the residue-plus-branch-cut assembly in
:mod:`fzwave.kernel` by inverting s / (s^2 + theta * zener_ratio(s)) the slow,
honest way: a truncated trapezoid sum along a vertical line Re s = s0 with one
Richardson extrapolation over node doubling. No contour deformation is used —
the transform has a conjugate pole pair off the negative real axis that a
deformed contour could cross silently.

The 1/s long tail is removed analytically before quadrature: with
D(s) = zener_ratio(s),

    s/(s^2 + theta*D) = 1/s - Q(s),   Q(s) = theta*D / (s^3 + s*theta*D),

and |Q| ~ (theta/tau) |s|^-3, so the numerical integral converges like the
tail of p^-3 and the unit step is added back exactly. Both half-lines are
evaluated independently — conjugate symmetry is *not* exploited — so the
smallness of the imaginary residual is a real check, not an identity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .charfun import theta_of_rho
from .errors import NumericsError, ValidationError
from .params import ModelParams, _require_in

_T_GUARD = 1e-3
_MAX_DOUBLINGS = 12
_REL_TOL = 1e-7  # agreement of two consecutive Richardson levels
_ABS_TOL = 1e-9  # bound on the truncation tail beyond p_max
_EXP_ARG_MAX = math.log(sys.float_info.max)  # largest s0*t whose e^(s0 t) is finite


@dataclass(frozen=True)
class BromwichConfig:
    """Inversion-line placement: s = s0 + i p, |p| <= p_max, n_nodes to start."""

    s0: float = 1.0
    p_max: float = 1e4
    n_nodes: int = 65536

    def __post_init__(self) -> None:
        _require_in("s0", self.s0, "(0, inf)")
        _require_in("p_max", self.p_max, "(0, inf)")
        if not self.n_nodes >= 16:
            raise ValidationError("n_nodes", self.n_nodes, ">= 16")


def _q_hat(p: np.ndarray, s0: float, theta: float, alpha: float, tau: float) -> np.ndarray:
    """Q(s0 + ip) = theta*D / (s^3 + s*theta*D) on the inversion line."""
    s = s0 + 1j * p
    sa = s**alpha
    d = (1.0 + sa) / (1.0 + tau * sa)
    return theta * d / (s**3 + s * theta * d)


def bromwich_invert(
    rho: float,
    t: float,
    p: ModelParams,
    c: BromwichConfig = BromwichConfig(),
) -> float:
    """Invert the Laplace-domain kernel at (rho, t) along the Bromwich line.

    Returns 1 - (e^(s0 t)/2pi) * Int Q(s0+ip) e^(ipt) dp, refined by node
    doubling with one Richardson extrapolation per level and accepted after
    two consecutive levels agree to 1e-7 relative. The truncation tail and the
    imaginary residual are checked explicitly; failure of either is an error,
    never a silent degradation.
    """
    _require_in("rho", rho, "[0, inf)")
    _require_in("t", t, f"[{_T_GUARD:g}, inf) (e^(s0 t)-amplified truncation error "
                "is unbounded below the guard)")
    if c.p_max < 100.0 * max(1.0, 1.0 / t):
        raise ValidationError(
            "p_max", c.p_max, f">= 100*max(1, 1/t) = {100.0 * max(1.0, 1.0 / t):g}"
        )
    theta = float(theta_of_rho(rho, p.beta))
    if theta == 0.0:
        return 1.0  # Q vanishes identically; the unit step is exact

    s0 = c.s0
    if s0 * t > _EXP_ARG_MAX:
        raise NumericsError(
            f"e^(s0 t) overflows a float at s0*t = {s0 * t:g} > {_EXP_ARG_MAX:.2f}; "
            "the Bromwich line cannot amplify its integral that far (lower s0 or t)"
        )
    amp = math.exp(s0 * t) / (2.0 * math.pi)
    # Tail beyond p_max: |Q| ~ (theta/tau) p^-3 and integration by parts
    # against e^{ipt} gains a 1/t factor; |int| <= (|Q(p_max)| + int |Q'|)/t
    # ~ 2(theta/tau) p_max^-3 / t per half-line. Safety factor 4.
    tail = 16.0 * (theta / p.tau) / (t * c.p_max**3) * amp
    if tail > _ABS_TOL:
        raise NumericsError(
            f"Bromwich truncation tail {tail:.3e} exceeds 1e-9 at p_max={c.p_max:g}; "
            "raise p_max rather than accept a silently truncated inversion",
            achieved=tail,
        )

    def f(pp: np.ndarray) -> np.ndarray:
        return _q_hat(pp, s0, theta, p.alpha, p.tau) * np.exp(1j * pp * t)

    # Start fine enough that e^{ipt} is resolved before extrapolation begins.
    n = max(c.n_nodes, int(math.ceil(2.0 * c.p_max / (math.pi / (4.0 * max(1.0, t))))))
    h = 2.0 * c.p_max / n
    vals = f(-c.p_max + h * np.arange(n + 1))
    trap = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    n_int = n

    prev_richardson: complex | None = None
    result: complex | None = None
    achieved = math.inf
    for _ in range(_MAX_DOUBLINGS):
        mids = -c.p_max + h * (np.arange(n_int) + 0.5)
        trap_half = 0.5 * trap + 0.5 * h * f(mids).sum()
        richardson = (4.0 * trap_half - trap) / 3.0
        if prev_richardson is not None:
            achieved = abs(richardson - prev_richardson) * amp
            value_scale = max(abs(1.0 - amp * richardson.real), 1e-3)
            if achieved <= _REL_TOL * value_scale:
                result = richardson
                break
        prev_richardson = richardson
        trap = trap_half
        h *= 0.5
        n_int *= 2
    if result is None:
        raise NumericsError(
            "Bromwich node doubling did not converge", achieved=achieved
        )

    integral = amp * result
    value = 1.0 - integral.real
    im_resid = abs(integral.imag)
    if im_resid > 1e-6 * max(1.0, abs(value)):
        raise NumericsError(
            "imaginary residual of the Bromwich inversion is too large "
            "(the two half-lines failed to cancel)",
            achieved=im_resid,
        )
    return value

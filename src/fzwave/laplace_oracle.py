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

Nothing is tuned by the caller. The line |p| <= p_max is as long as the
tail bound asks for 1e-9 and at least 100*max(1, 1/t); a line that would need
more than 2^21 start nodes is refused before any node is evaluated. Only the
abscissa s0 is free, because the result must not depend on it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .charfun import theta_of_rho
from .errors import NumericsError
from .params import ModelParams, _require_in

_T_GUARD = 1e-3
_MAX_DOUBLINGS = 12
_REL_TOL = 1e-7  # agreement of two consecutive Richardson levels
_ABS_TOL = 1e-9  # bound on the truncation tail beyond p_max
_MIN_START = 1 << 16  # start nodes on the shortest line, and nodes per evaluated block
_START_BUDGET = 1 << 21  # start nodes past which a line is refused unsampled
_EXP_ARG_MAX = math.log(sys.float_info.max)  # largest s0*t whose e^(s0 t) is finite


def _q_hat(p: np.ndarray, s0: float, theta: float, alpha: float, tau: float) -> np.ndarray:
    """Q(s0 + ip) = theta*D / (s^3 + s*theta*D) on the inversion line."""
    s = s0 + 1j * p
    sa = s**alpha
    d = (1.0 + sa) / (1.0 + tau * sa)
    return theta * d / (s**3 + s * theta * d)


def _line_sum(f, p_max: float, h: float, count: int, shift: float) -> complex:
    """sum of f(-p_max + h (k + shift)) over k < count, in blocks of _MIN_START
    nodes added in order, so memory stays fixed however many nodes a level has."""
    total = 0j
    for lo in range(0, count, _MIN_START):
        total += f(-p_max + h * (np.arange(lo, min(lo + _MIN_START, count)) + shift)).sum()
    return total


def bromwich_invert(rho: float, t: float, p: ModelParams, *, s0: float = 1.0) -> float:
    """Invert the Laplace-domain kernel at (rho, t) along the line Re s = s0.

    Returns 1 - (e^(s0 t)/2pi) * Int_{|p| <= p_max} Q(s0+ip) e^(ipt) dp,
    refined by node doubling with one Richardson extrapolation per level and
    accepted after two consecutive levels agree to 1e-7 relative. p_max is
    the root of the truncation-tail bound at 1e-9, and at least
    100*max(1, 1/t) so that e^(ipt) is resolved. A line that needs more than
    2^21 start nodes, an e^(s0 t) past the float range, an unconverged
    doubling and a large imaginary residual are each a NumericsError, never a
    silent degradation.
    """
    _require_in("rho", rho, "[0, inf)")
    _require_in("t", t, f"[{_T_GUARD:g}, inf) (e^(s0 t)-amplified truncation error "
                "is unbounded below the guard)")
    _require_in("s0", s0, "(0, inf)")
    theta = float(theta_of_rho(rho, p.beta))
    if theta == 0.0:
        return 1.0  # Q vanishes identically; the unit step is exact

    if s0 * t > _EXP_ARG_MAX:
        raise NumericsError(
            f"e^(s0 t) overflows a float at s0*t = {s0 * t:g} > {_EXP_ARG_MAX:.2f}; "
            "the Bromwich line cannot amplify its integral that far (lower s0 or t)"
        )
    amp = math.exp(s0 * t) / (2.0 * math.pi)
    # Tail beyond p_max: |Q| ~ (theta/tau) p^-3 and integration by parts
    # against e^{ipt} gains a 1/t factor; |int| <= (|Q(p_max)| + int |Q'|)/t
    # ~ 2(theta/tau) p_max^-3 / t per half-line. Safety factor 4, so the
    # amplified tail is 16 (theta/tau) amp / (t p_max^3); p_max sets it to
    # _ABS_TOL, solved in logarithms so that no factor overflows.
    log_p = (math.log(16.0 * theta / (p.tau * t * _ABS_TOL)) + math.log(amp)) / 3.0
    p_max = max(100.0 * max(1.0, 1.0 / t), math.exp(log_p))
    # Start fine enough that e^{ipt} is resolved before extrapolation begins.
    start = 8.0 * p_max * max(1.0, t) / math.pi
    if not start <= _START_BUDGET:
        raise NumericsError(
            f"the Bromwich tail bound asks for p_max = {p_max:.3g}, {start:.3g} start "
            f"nodes past the budget of {_START_BUDGET:,}; refused before sampling"
        )

    def f(pp: np.ndarray) -> np.ndarray:
        return _q_hat(pp, s0, theta, p.alpha, p.tau) * np.exp(1j * pp * t)

    n = max(_MIN_START, math.ceil(start))
    h = 2.0 * p_max / n
    trap = h * (_line_sum(f, p_max, h, n + 1, 0.0) - 0.5 * f(-p_max + h * np.array([0, n])).sum())
    n_int = n

    prev_richardson: complex | None = None
    result: complex | None = None
    achieved = math.inf
    for _ in range(_MAX_DOUBLINGS):
        trap_half = 0.5 * trap + 0.5 * h * _line_sum(f, p_max, h, n_int, 0.5)
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

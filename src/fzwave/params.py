"""Model parameters, validation, and nondimensionalization.

The wave model is driven by four dimensionless numbers: the time-memory order
``alpha``, the space-memory order ``beta``, the relaxation-time ratio ``tau``
(strictly between 0 and 1 on thermodynamic grounds), and the regularization
width ``epsilon`` used when displaying delta-like data. Physical inputs are
reduced to this set plus a group of positive scale factors; multiplying a
dimensionless quantity by its scale factor recovers the physical one.

Every public scalar argument of the package with an admissible interval is
checked by :func:`_require_in`: an int or a float (never a bool), finite, and
inside the interval that starts its ``admissible`` text, or a
:class:`ValidationError` naming the argument.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

from .errors import ValidationError

DEFAULT_EPSILON = 0.01


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional material description.

    ``density`` and ``modulus`` are the medium's mass density and elastic
    modulus; ``tau_sigma`` and ``tau_eps`` are the stress and strain relaxation
    times (0 < tau_sigma < tau_eps); ``alpha`` and ``beta`` are the fractional
    orders of the time and space memory.
    """

    density: float
    modulus: float
    tau_sigma: float
    tau_eps: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameter bundle used by every solver entry point.

    Construction runs :func:`validate_model`, so every instance is valid.
    """

    alpha: float
    beta: float
    tau: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        validate_model(self)


@dataclass(frozen=True)
class Scales:
    """Multiplicative factors mapping dimensionless values back to physical.

    physical = dimensionless * factor, one factor per quantity kind.
    """

    length: float
    time: float
    displacement: float
    stress: float
    velocity: float


# the interval an admissible text starts with: "[0, 1)", "(0, inf) (a note)"
_INTERVAL = re.compile(r"([\[(])([^,]+), ([^\])]+)([\])])")


def _require_in(field: str, value: float, admissible: str) -> float:
    """``value`` as a float if it is an int or a float (never a bool), finite,
    and inside the interval that ``admissible`` starts with; otherwise a
    :class:`ValidationError` naming ``field``."""
    left, lo, hi, right = _INTERVAL.match(admissible).groups()
    # an exact comparison, so NaN, inf and an int past the floats all fail it
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        v, lo, hi = float(value), float(lo), float(hi)
        if (lo < v or (left == "[" and v == lo)) and (v < hi or (right == "]" and v == hi)):
            return v
    raise ValidationError(field, value, admissible)


def validate_model(m: ModelParams) -> ModelParams:
    """Validate a :class:`ModelParams`, returning it unchanged.

    Each out-of-range field raises a :class:`ValidationError` naming that
    field and its admissible interval. ``alpha`` lives in [0, 1) (the value 1
    is rejected: the time-memory kernel degenerates there), ``beta`` in
    [0, 1] (1 is admitted and routed to a dedicated kernel), ``tau`` in
    (0, 1), ``epsilon`` in (0, 1].
    """
    _require_in("alpha", m.alpha, "[0, 1)")
    _require_in("beta", m.beta, "[0, 1]")
    _require_in("tau", m.tau, "(0, 1)")
    _require_in("epsilon", m.epsilon, "(0, 1]")
    return m


def nondimensionalize(
    p: PhysicalParams, epsilon: float = DEFAULT_EPSILON
) -> tuple[ModelParams, Scales]:
    """Reduce physical parameters to the dimensionless bundle plus scales.

    The relaxation ratio becomes ``tau = tau_sigma / tau_eps``; space, time,
    displacement, stress and velocity each get a positive scale factor such
    that physical = dimensionless * factor. ``alpha = 0`` is rejected here
    (the time scale involves ``tau_eps**(1/alpha)``); purely dimensionless
    studies at ``alpha = 0`` should construct :class:`ModelParams` directly.
    """
    rho = _require_in("density", p.density, "(0, inf)")
    e_mod = _require_in("modulus", p.modulus, "(0, inf)")
    te = _require_in("tau_eps", p.tau_eps, "(0, inf)")
    ts = _require_in("tau_sigma", p.tau_sigma, "(0, inf)")
    if ts >= te:
        raise ValidationError("tau_sigma", p.tau_sigma, "(0, tau_eps)")
    alpha = _require_in(
        "alpha", p.alpha, "(0, 1) for nondimensionalization (time scale undefined at 0)"
    )
    beta = p.beta  # range-checked by ModelParams below

    model = ModelParams(alpha=alpha, beta=beta, tau=ts / te, epsilon=epsilon)

    length = (te ** (2.0 / alpha) * rho / e_mod) ** (1.0 / (1.0 + beta))
    time = te ** (1.0 / alpha)
    stress = e_mod * length ** (1.0 - beta)
    scales = Scales(
        length=length,
        time=time,
        displacement=length,
        stress=stress,
        velocity=length / time,
    )
    return model, scales

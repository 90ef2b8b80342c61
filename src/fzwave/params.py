"""Model parameters, validation, and nondimensionalization.

The wave model is driven by four dimensionless numbers: the time-memory order
``alpha``, the space-memory order ``beta``, the relaxation-time ratio ``tau``
(strictly between 0 and 1 on thermodynamic grounds), and the regularization
width ``epsilon`` used when displaying delta-like data. Physical inputs are
reduced to this set plus a group of positive scale factors; multiplying a
dimensionless quantity by its scale factor recovers the physical one.

Every input from outside the program with an admissible interval passes one
of two checks: :func:`_require_in` for a number, :func:`_require_reals` for an
array. Each entry must be an int or a float (never a bool or a string),
finite, and inside the interval that starts its ``admissible`` text, or a
:class:`ValidationError` names the argument.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass

import numpy as np

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
# what each bracket asks of a value and its end: on a float, or an array elementwise
_BRACKETS = {"[": operator.ge, "(": operator.gt, "]": operator.le, ")": operator.lt}


def _inside(value, admissible: str):
    """Whether ``value`` lies in the interval that ``admissible`` starts with."""
    left, lo, hi, right = _INTERVAL.match(admissible).groups()
    return _BRACKETS[left](value, float(lo)) & _BRACKETS[right](value, float(hi))


def _is_real(value) -> bool:
    """An int or a float, never a bool, and finite: an exact comparison, so
    NaN, inf and an int past the floats all fail it."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _require_in(field: str, value: float, admissible: str) -> float:
    """``value`` as a float if it is an int or a float (never a bool), finite,
    and inside the interval that ``admissible`` starts with; otherwise a
    :class:`ValidationError` naming ``field``."""
    if _is_real(value) and _inside(value, admissible):
        return float(value)
    raise ValidationError(field, value, admissible)


def _require_reals(field: str, values, admissible: str, increasing: bool = False) -> np.ndarray:
    """``values``, a number or a list, tuple or NumPy array of them, as a float
    array of at least one dimension, if each entry passes :func:`_require_in`'s
    rule and, with ``increasing``, it is a non-empty 1-d array each of whose
    entries exceeds the one before; otherwise a :class:`ValidationError`
    naming ``field``. An array of ints or floats is checked whole, without a
    Python loop; a list entry by entry."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        a = np.atleast_1d(np.asarray(values, dtype=float))
    else:
        items = values if isinstance(values, (list, tuple)) else [values]
        a = np.array(items, dtype=float) if all(map(_is_real, items)) else None
    if (a is not None and np.isfinite(a).all() and _inside(a, admissible).all()
            and not (increasing and (a.ndim != 1 or a.size == 0 or np.any(np.diff(a) <= 0)))):
        return a
    raise ValidationError(field, values, admissible)


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

"""Characteristic function of the memory wave model and its ingredients.

All complex powers use the principal branch, so every function here is
analytic on the cut plane C minus (-inf, 0]. Points on the cut itself are
rejected; the two one-sided limits onto the cut are provided separately by
:func:`branch_values`, which is what the branch-cut quadrature consumes.

Functions accept scalars or numpy arrays and broadcast in the usual way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import _require_in, _require_reals

__all__ = [
    "CharParams",
    "zener_ratio",
    "psi",
    "psi_prime",
    "branch_values",
    "theta_of_rho",
]


@dataclass(frozen=True)
class CharParams:
    """Parameter triple (alpha, tau, theta) of the characteristic function.

    theta is carried as a free positive parameter: the kernel layer composes
    it from a wave number via :func:`theta_of_rho`, but nothing here depends
    on that origin.
    """

    alpha: float
    tau: float
    theta: float

    def __post_init__(self) -> None:
        _require_in("alpha", self.alpha, "[0, 1)")
        _require_in("tau", self.tau, "(0, 1)")
        _require_in("theta", self.theta, "(0, inf)")


def _check_off_cut(s) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    on_cut = (s.imag == 0.0) & (s.real <= 0.0)
    if np.any(on_cut):
        raise ValidationError("s", s[on_cut].flat[0], "complex plane minus (-inf, 0]")
    return s


def zener_ratio(s, alpha: float, tau: float):
    """Ratio (1 + s**alpha) / (1 + tau * s**alpha) on the principal branch.

    This is the Laplace-domain factor converting strain history to stress for
    the fractional standard linear solid; for ``Re s > 0`` it avoids the
    negative real axis, which keeps the wave problem's inversion contour
    honest. Arguments on (-inf, 0] are rejected.
    """
    _require_in("alpha", alpha, "[0, 1)")
    _require_in("tau", tau, "(0, 1)")
    s = _check_off_cut(s)
    sa = s**alpha
    out = (1.0 + sa) / (1.0 + tau * sa)
    return out if out.ndim else complex(out)


def _power(s, alpha: float) -> np.ndarray:
    """Principal s**alpha as |s|**alpha * (cos(alpha arg s) + i sin(alpha arg s)).

    Real powers and cosines take about half the time of the complex power and
    agree with it to rounding; 0 maps to 0 for alpha > 0.
    """
    mag = np.abs(s) ** alpha
    ang = alpha * np.angle(s)
    out = np.empty(np.shape(s), dtype=complex)
    np.multiply(mag, np.cos(ang), out=out.real)
    np.multiply(mag, np.sin(ang), out=out.imag)
    return out


def _psi(s, alpha: float, tau: float, theta):
    """Array-friendly characteristic function; validation at the edges only.

    Defined at s = 0 too, where psi' is not: a winding contour may pass there.
    """
    sa = _power(s, alpha)
    return s * s + theta * (1.0 + sa) / (1.0 + tau * sa)


def _psi_pair(s, alpha: float, tau: float, theta):
    """(psi, psi') from one power :func:`_power`, s^(alpha-1) = s^alpha / s;
    psi is bit for bit :func:`_psi`."""
    sa = _power(s, alpha)
    den = 1.0 + tau * sa
    psi_s = s * s + theta * (1.0 + sa) / den
    return psi_s, 2.0 * s + theta * alpha * (1.0 - tau) * (sa / s) / (den * den)


def _psi_prime(s, alpha: float, tau: float, theta):
    return _psi_pair(s, alpha, tau, theta)[1]


def psi(s, p: CharParams):
    """Characteristic function s**2 + theta * zener_ratio(s).

    Its zeros are the poles of the Laplace-transformed spectral kernel; for
    theta > 0 there are exactly two, a complex-conjugate pair off the right
    half plane.
    """
    s = _check_off_cut(s)
    out = _psi(s, p.alpha, p.tau, p.theta)
    return out if out.ndim else complex(out)


def psi_prime(s, p: CharParams):
    """Derivative of :func:`psi` with respect to s.

    d/ds [ (1+s^a)/(1+tau s^a) ] collapses to a(1-tau) s^(a-1) / (1+tau s^a)^2,
    so psi'(s) = 2 s + theta * alpha * (1 - tau) * s^(alpha-1) / (1 + tau s^alpha)^2.
    """
    s = _check_off_cut(s)
    out = _psi_prime(s, p.alpha, p.tau, p.theta)
    return out if out.ndim else complex(out)


def _elastic_frequency(theta, tau: float):
    """The order-zero (alpha = 0) frequency sqrt(2 theta/(1+tau)): psi's zeros
    there are +-i times it. Scalar or array theta."""
    return np.sqrt(2.0 * theta / (1.0 + tau))


def branch_values(q, alpha: float, tau: float):
    """One-sided limits of :func:`zener_ratio` onto the negative real axis.

    For q > 0, returns ``(F_plus, F_minus)`` — the values approached from
    above and below the cut at s = -q. They are complex conjugates; the minus
    value is produced by conjugation so the pair is conjugate-exact in
    floating point.
    """
    _require_in("alpha", alpha, "[0, 1)")
    _require_in("tau", tau, "(0, 1)")
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0):
        raise ValidationError("q", float(np.min(q)), "(0, inf)")
    w = q**alpha * np.exp(1j * np.pi * alpha)
    f_plus = (1.0 + w) / (1.0 + tau * w)
    f_minus = np.conj(f_plus)
    if f_plus.ndim:
        return f_plus, f_minus
    return complex(f_plus), complex(f_minus)


def theta_of_rho(rho, beta: float):
    """Spatial spectral weight rho**(1+beta) * sin(beta*pi/2) for rho >= 0.

    This is the symbol of minus the regularizing spatial operator at wave
    number rho; it vanishes identically at beta = 0 and reduces to rho**2 at
    beta = 1.
    """
    _require_in("beta", beta, "[0, 1]")
    out = _require_reals("rho", rho, "[0, inf)") ** (1.0 + beta) * np.sin(beta * np.pi / 2.0)
    return out if np.ndim(rho) else float(out[0])

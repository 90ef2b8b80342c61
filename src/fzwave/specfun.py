"""Mittag-Leffler functions and the fractional relaxation function.

Everything downstream needs E_alpha (and the two-parameter extension) only on
and near the negative real axis, where the defining power series suffers
catastrophic cancellation long before it stops converging: at alpha = 1/4 and
z = -5 the largest series term exceeds the sum by ~270 orders of magnitude.
The evaluator, :func:`mittag_leffler`, therefore runs up to three regimes and
accepts a result only when its own error estimate meets the module's fixed
relative tolerance, 1e-10:

1. the power series (tried first for |z| <= 5), summed exactly-rounded, with
   a cancellation estimate from the largest term;
2. the large-argument expansion in the cone around the negative real axis,
   truncated at its smallest term;
3. for real z < 0, the cut integral of the Laplace-domain form
   s^(alpha-ml_beta)/(s^alpha + 1), which is regular precisely in the
   mid-range where the first two regimes both fail. The package's G7/K15
   engine integrates it after x = u^(1/g) removes the endpoint singularity.

If no regime certifies the tolerance, a NumericsError reports the best
achieved estimate rather than returning a silently wrong value.
"""

from __future__ import annotations

import cmath
import math
from math import fsum, lgamma

import numpy as np

from ._quad import adaptive_gk, geometric_edges
from .errors import NumericsError, ValidationError
from .params import _require_in

_EPS = 2.0 ** -52
_TINY = 1e-300
_MAX_SERIES_TERMS = 4000
_MAX_ASYMP_TERMS = 400
_SERIES_TOL = 1e-10  # relative error estimate a regime must reach to be accepted
_SWITCH_RADIUS = 5.0  # |z| up to which the power series is tried first


def _rgamma(x: float) -> float:
    """1/Gamma(x), zero at the poles 0, -1, -2, ... and where Gamma(x) overflows."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def _series(a: float, b: float, z: complex) -> tuple[complex, float]:
    """Power series sum_k z^k / Gamma(a*k + b) with a cancellation estimate.

    Summation itself is exactly rounded (fsum), so the dominant error is the
    rounding of each term exp(k*log z - lgamma(a*k+b)), which is proportional
    to the magnitude of the exponent. The estimate charges each term
    |t| * (|exponent| + 2) ulps and takes three times the worst one, which
    tracks the observed noise floor without being wildly pessimistic.
    """
    logz = cmath.log(z)
    abs_klogz = abs(logz)
    re_terms: list[float] = []
    im_terms: list[float] = []
    running = 0.0
    max_t = 0.0
    max_weighted = 0.0
    argmax = 0
    k = 0
    tail = math.inf
    while k < _MAX_SERIES_TERMS:
        lg = lgamma(a * k + b)
        t = cmath.exp(k * logz - lg)
        re_terms.append(t.real)
        im_terms.append(t.imag)
        mag = abs(t)
        running += mag
        weighted = mag * (k * abs_klogz + abs(lg) + 2.0)
        if weighted > max_weighted:
            max_weighted = weighted
        if mag > max_t:
            max_t, argmax = mag, k
        if k > argmax + 2 and mag <= 1e-18 * max(running, _TINY):
            tail = mag
            break
        if max_t > 1e40:  # hopeless cancellation for any double result
            break
        k += 1
    s = complex(fsum(re_terms), fsum(im_terms))
    if not math.isfinite(tail):
        return s, math.inf
    est = (3.0 * _EPS * max_weighted + tail) / max(abs(s), _TINY)
    return s, est


def _asymptotic(a: float, b: float, z: complex) -> tuple[complex, float]:
    """Expansion -sum_{k>=1} z^(-k)/Gamma(b - a*k), truncated at its smallest term.

    Individual term magnitudes are modulated by |sin(pi*(b - a*k))| through the
    reflection formula and can dip arbitrarily close to zero near poles of
    Gamma, so truncation decisions use the sin-free envelope
    |z|^(-k) * Gamma(1 + a*k - b) / pi, which is unimodal in k and bounds every
    term. For a > 2/3 the negative real axis also carries an exponentially
    small contribution ~ (2/a) |z|^((1-b)/a) exp(Re z^(1/a)) beyond all
    algebraic orders; its size is added to the error estimate rather than to
    the sum, so an unreachable tolerance fails over to another regime instead
    of returning a silently degraded value.
    """
    absz = abs(z)
    logz = cmath.log(z)
    log_absz = math.log(absz)
    s = 0.0 + 0.0j
    env_prev = math.inf
    est_abs = math.inf  # if the terms ran out, it would stay inf and refuse the regime
    for k in range(1, _MAX_ASYMP_TERMS):
        x = b - a * k
        if x > 0.0:
            log_env = -k * log_absz - lgamma(x)
        else:
            log_env = -k * log_absz + lgamma(1.0 - x) - math.log(math.pi)
        env = math.exp(log_env)
        if env >= env_prev:
            est_abs = env  # envelope minimum passed; bounds the first omitted term
            break
        s += -cmath.exp(-k * logz) * _rgamma(x)
        env_prev = env
        if env <= 1e-18 * max(abs(s), _TINY):
            est_abs = env
            break
    est_abs += 50.0 * _EPS * abs(s)  # term-rounding noise floor
    if a > 2.0 / 3.0:
        w = cmath.exp(logz / a)
        if w.real < 0.0:
            est_abs += (2.0 / a) * absz ** ((1.0 - b) / a) * math.exp(w.real)
    return s, est_abs / max(abs(s), _TINY)


def _cut_integral(a: float, b: float, lam: float) -> tuple[float, float]:
    """E_{a,b}(-lam) for lam > 0, 0 < a < 1, 0 < b <= 1 + a, via the branch-cut integral.

    Derived by inverting the Laplace transform s^(a-b)/(s^a + 1) of
    t^(b-1) E_{a,b}(-t^a) around the negative real axis, then scaling t = lam^(1/a):

        E_{a,b}(-lam) = (1/(pi*lam)) * Int_0^inf e^(-x) x^(a-b)
                        * (y*sin(pi*b) - sin(pi*(a-b))) / (y^2 + 2*y*cos(pi*a) + 1) dx,
        y = x^a / lam.

    The substitution x = u^(1/g), g = 1 + a - b > 0, turns x^(a-b) dx into
    du/g and leaves a bounded integrand on [0, 60^g].
    """
    sb = math.sin(math.pi * b)
    sab = math.sin(math.pi * (a - b))
    ca = math.cos(math.pi * a)
    g = 1.0 + a - b

    def integrand(u: np.ndarray) -> np.ndarray:
        x = u ** (1.0 / g)
        y = x ** a / lam
        return np.exp(-x) * (y * sb - sab) / (y * y + 2.0 * y * ca + 1.0)

    u_max = 60.0 ** g  # e^-60 ~ 1e-26: the integrand is negligible beyond
    v, e = adaptive_gk(integrand, geometric_edges(0.0, u_max, 1e-6 * u_max, ratio=2.0),
                       rel_tol=1e-13, abs_tol=1e-15, what="Mittag-Leffler cut integral")
    val = v / (g * math.pi * lam)
    return val, e / (g * math.pi * lam) / max(abs(val), _TINY)


def _spectral(a: float, b: float, lam: float) -> tuple[complex, float]:
    """Cut-integral route for real negative arguments, any ml_beta > 0.

    ml_beta above 1 + a is stepped down with
    E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z and unwound afterwards.
    """
    steps = 0
    bb = b
    while bb > 1.0 + 1e-12:  # land in (1-a, 1]: keeps the weight exponent above -1
        bb -= a
        steps += 1
    val, est = _cut_integral(a, bb, lam)
    z = -lam
    for _ in range(steps):
        val = (val - _rgamma(bb)) / z
        bb += a
    return complex(val), est


def mittag_leffler(ml_alpha: float, ml_beta: float, z: complex) -> complex:
    """Two-parameter Mittag-Leffler function E_{ml_alpha, ml_beta}(z), to _SERIES_TOL."""
    _require_in("ml_alpha", ml_alpha, "(0, 1]")
    _require_in("ml_beta", ml_beta, "(0, inf)")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError("z", z, "finite complex")
    a, b, tol = ml_alpha, ml_beta, _SERIES_TOL
    if a == 1.0 and b == 1.0:
        return cmath.exp(z)
    if z == 0:
        return complex(_rgamma(b))

    best_est = math.inf
    best_val: complex = complex("nan")

    def consider(val: complex, est: float) -> bool:
        nonlocal best_est, best_val
        if est < best_est:
            best_est, best_val = est, val
        return est <= tol

    if abs(z) <= _SWITCH_RADIUS:
        if consider(*_series(a, b, z)):
            return best_val
    # Large-argument expansion in the cone |arg(-z)| <= pi/4.
    if z.real < 0.0 and abs(z.imag) <= -z.real and abs(z) >= 2.0:
        if consider(*_asymptotic(a, b, z)):
            return best_val
    # The series guard is pessimistic only slightly past the switch radius;
    # give it a chance there before the heavier machinery.
    if _SWITCH_RADIUS < abs(z) <= 3.0 * _SWITCH_RADIUS:
        if consider(*_series(a, b, z)):
            return best_val
    if z.imag == 0.0 and z.real < 0.0 and a < 1.0:
        if consider(*_spectral(a, b, -z.real)):
            return best_val
    raise NumericsError(
        f"Mittag-Leffler({a}, {b}) at z={z} not evaluable to {tol:g} "
        "in any implemented regime",
        achieved=best_est,
    )


def e_alpha(t: float, alpha: float, tau: float) -> float:
    """Relaxation function E_alpha(-t^alpha / tau); equals 1 at t = 0."""
    _require_in("alpha", alpha, "(0, 1)")
    _require_in("tau", tau, "(0, 1)")
    _require_in("t", t, "[0, inf)")
    if t == 0.0:
        return 1.0
    return mittag_leffler(alpha, 1.0, -t ** alpha / tau).real


def e_alpha_prime(t: float, alpha: float, tau: float) -> float:
    """Time derivative of the relaxation function, via
    d/dt E_alpha(-t^alpha/tau) = -(t^(alpha-1)/tau) * E_{alpha,alpha}(-t^alpha/tau).

    Negative and finite for t > 0; diverges like t^(alpha-1) as t -> 0+.
    """
    _require_in("alpha", alpha, "(0, 1)")
    _require_in("tau", tau, "(0, 1)")
    _require_in("t", t, "(0, inf)")
    return -(t ** (alpha - 1.0) / tau) * mittag_leffler(
        alpha, alpha, -t ** alpha / tau
    ).real

"""Locating and certifying the conjugate zero pair of the characteristic function.

The dispersion function has exactly two zeros off the branch cut: a
complex-conjugate pair in the closed left half-plane, both simple. The
representative with positive imaginary part drives the oscillatory part of
every kernel, so we locate it by damped Newton iteration from the elastic
(``alpha = 0``) root, or for a batch from one fixed-point step past it, and
certify the count with an argument-principle winding integral over a
rectangle. One vectorized damped Newton serves both a single
zero and a whole batch; a quadtree bisection on winding counts gives it a
second start when the first fails the residual test.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quad import eval_tables, log_cheb_table
from .charfun import CharParams, _elastic_frequency, _power, _psi, _psi_pair, _psi_prime
from .errors import NumericsError, ValidationError

_NODE_BUDGET = 200_000
_CUT_CLEARANCE = 1e-9
_NEWTON_MAX_ITER = 100
# the winding-count descent stops at boxes this wide relative to their corner
_BISECTION_STOP = 1e-7
_RESIDUAL_TOL = 1e-10  # |psi(s)| <= _RESIDUAL_TOL * max(1, |s|^2) certifies a zero s


def _certified(residual, s):
    """Whether |psi(s)| = residual certifies s as a zero, elementwise; NaN fails."""
    return residual <= _RESIDUAL_TOL * np.maximum(1.0, np.abs(s) ** 2)


@dataclass(frozen=True)
class ZeroPair:
    """Upper-half-plane zero of the characteristic function.

    The conjugate partner is implied (available as :attr:`conjugate`), never
    stored.
    """

    s_z: complex
    residual: float

    def __post_init__(self) -> None:
        if not self.s_z.imag > 0.0:
            raise ValidationError("s_z", self.s_z, "Im(s_z) > 0")
        if self.s_z.real > _CUT_CLEARANCE:
            raise ValidationError("s_z", self.s_z, "Re(s_z) <= 0 (left half-plane)")
        if not (0.0 <= self.residual and _certified(self.residual, self.s_z)):
            raise ValidationError(
                "residual", self.residual, f"<= {_RESIDUAL_TOL:g} * max(1, |s_z|^2)"
            )

    @property
    def conjugate(self) -> complex:
        return self.s_z.conjugate()


def _arg_sweep(f, za: complex, zb: complex, budget: list[int]) -> float:
    """Accumulated continuous argument change of f along the segment [za, zb].

    Subdivides until consecutive samples differ in argument by less than
    pi/2, which pins the branch of the logarithm for an analytic, zero-free
    integrand.
    """
    stack = [(za, f(za), zb, f(zb))]
    total = 0.0
    while stack:
        a, fa, b, fb = stack.pop()
        d = cmath.phase(fb / fa)
        if abs(d) < 0.5 * math.pi and abs(b - a) < 0.2 * (abs(a) + 1.0):
            total += d
            continue
        budget[0] -= 1
        if budget[0] <= 0:
            raise NumericsError("zero too close to contour (node budget exhausted)")
        mid = 0.5 * (a + b)
        fm = f(mid)
        stack.append((mid, fm, b, fb))
        stack.append((a, fa, mid, fm))
    return total


def _rect_path(re_lo, re_hi, im_lo, im_hi) -> list[complex]:
    """Counterclockwise boundary, indented around the branch cut if straddled."""
    eta = _CUT_CLEARANCE
    sw = complex(re_lo, im_lo)
    se = complex(re_hi, im_lo)
    ne = complex(re_hi, im_hi)
    nw = complex(re_lo, im_hi)
    if re_lo < 0.0 and im_lo < 0.0 < im_hi:
        if re_hi <= 0.0:
            raise ValidationError(
                "rect",
                (re_lo, re_hi, im_lo, im_hi),
                "a rectangle crossing the negative real axis must extend past zero",
            )
        # Keyhole: descend the left edge to just above the cut, pass around
        # the origin on the right, and return just below the cut.
        return [
            sw, se, ne, nw,
            complex(re_lo, eta), complex(eta, eta),
            complex(eta, -eta), complex(re_lo, -eta),
            sw,
        ]
    return [sw, se, ne, nw, sw]


def winding_number(rect, p: CharParams) -> int:
    """Number of zeros of the characteristic function inside a rectangle.

    ``rect`` is ``(re_lo, re_hi, im_lo, im_hi)``, traversed counterclockwise;
    rectangles straddling the negative real axis are indented around the cut
    with a keyhole of half-width 1e-9. A coarse minimum-modulus scan guards
    the precondition that no zero sits within ~1e-8 |s| of the boundary (|psi|
    below 1e-8 (|s|^2 + theta) there); if one does, the rectangle is nudged
    outward a few times, by 1e-6 up to 0.1 of sqrt(max |s|^2 + theta) over the
    rectangle, before giving up.
    """
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in rect)
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValidationError(
            "rect", (re_lo, re_hi, im_lo, im_hi), "re_lo < re_hi and im_lo < im_hi"
        )

    def f(s: complex) -> complex:
        return complex(_psi(complex(s), p.alpha, p.tau, p.theta))

    # the size of s on the box: psi's own size there is about its square
    size = math.sqrt(max(abs(re_lo), abs(re_hi)) ** 2 + max(abs(im_lo), abs(im_hi)) ** 2
                     + p.theta)
    for attempt in range(6):
        path = _rect_path(re_lo, re_hi, im_lo, im_hi)
        # Minimum-modulus scan along the boundary, against psi's own size
        # |s|^2 + theta there, so that it means the same at every scale of s
        # (psi(0) = theta, so an absolute 1e-8 refused every theta below it)
        too_close = False
        for a, b in zip(path[:-1], path[1:]):
            ts = np.linspace(0.0, 1.0, 65)
            pts = a + (b - a) * ts
            vals = _psi(pts.astype(complex), p.alpha, p.tau, p.theta)
            scale = np.abs(pts) ** 2 + p.theta
            if (np.abs(vals) / scale < 1e-8).any():
                too_close = True
                break
        if not too_close:
            break
        pad = size * 10.0 ** (-6 + attempt)  # grow the window until the zero is interior
        re_lo -= pad
        re_hi += pad
        im_lo -= pad if im_lo > _CUT_CLEARANCE or im_lo < 0 else 0.0
        im_hi += pad
    else:
        raise NumericsError("zero too close to contour (perturbation failed)")

    budget = [_NODE_BUDGET]
    total = 0.0
    for a, b in zip(path[:-1], path[1:]):
        total += _arg_sweep(f, a, b, budget)
    w = total / (2.0 * math.pi)
    n = round(w)
    if abs(w - n) > 0.1:
        raise NumericsError(
            "winding number did not converge to an integer", achieved=abs(w - n)
        )
    return int(n)


def _fixed_point_start(alpha: float, tau: float, theta: np.ndarray) -> np.ndarray:
    """One step of the fixed point s = i*sqrt(theta*F(s)) of psi(s) = 0 from the
    elastic root, F the Zener ratio: the principal root keeps s in the upper
    left quadrant, and the step saves about two damped Newton sweeps."""
    sa = _power(1j * _elastic_frequency(theta, tau), alpha)
    return 1j * np.sqrt(theta * (1.0 + sa) / (1.0 + tau * sa))


def _bisection_fallback(p: CharParams) -> complex:
    """Quadtree descent on winding counts over the upper-left search window.

    The window is four times |s_z|'s bound sqrt(theta/tau) on a side, so it
    holds the zero however strongly the model damps it. The descent stops
    once the box is 1e-7 of its corner's modulus wide: winding_number pads a
    box whose edge passes within ~1e-8 |s| of a zero, so finer boxes no longer
    follow the zero. Newton polishes the centre.
    """
    m = max(1.0, math.sqrt(p.theta / p.tau))
    re_lo, re_hi = -4.0 * m, _CUT_CLEARANCE
    im_lo, im_hi = _CUT_CLEARANCE, 4.0 * m
    if winding_number((re_lo, re_hi, im_lo, im_hi), p) < 1:
        raise NumericsError("no zero of the characteristic function in the search window")
    for _ in range(60):
        if max(re_hi - re_lo, im_hi - im_lo) <= _BISECTION_STOP * max(
            1.0, abs(complex(re_lo, im_lo))
        ):
            break
        rm = 0.5 * (re_lo + re_hi)
        im = 0.5 * (im_lo + im_hi)
        for a, b, c, d in (
            (re_lo, rm, im_lo, im),
            (rm, re_hi, im_lo, im),
            (re_lo, rm, im, im_hi),
            (rm, re_hi, im, im_hi),
        ):
            if winding_number((a, b, c, d), p) >= 1:
                re_lo, re_hi, im_lo, im_hi = a, b, c, d
                break
        else:
            raise NumericsError("winding bisection lost the zero between subdivisions")
    return complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))


def find_zero_pair(p: CharParams) -> ZeroPair:
    """Locate the upper-half-plane characteristic zero and certify it.

    :func:`_damped_newton` starts from the exact order-zero root
    i*sqrt(2*theta/(1+tau)) and, if the residual test fails there, runs
    again from the winding-count bisection point. Certification re-runs the
    argument principle on a small rectangle around the located zero and
    requires a count of exactly one, which also confirms simplicity.
    """
    alpha, tau, theta = p.alpha, p.tau, p.theta

    def polish(start: complex) -> complex:
        s = complex(_damped_newton(alpha, tau, np.array([theta]), np.array([start]))[0])
        return s.conjugate() if s.imag < 0.0 else s

    def residual(s: complex) -> float:
        return abs(complex(_psi(s, alpha, tau, theta)))

    s = complex(1j * _elastic_frequency(theta, tau))
    if alpha != 0.0:  # at alpha = 0 the characteristic function is quadratic: s is exact
        s = polish(s)
        if not _certified(residual(s), s):
            s = polish(_bisection_fallback(p))
    res = residual(s)
    if not _certified(res, s):
        raise NumericsError("characteristic-zero residual too large", achieved=res)
    if s.real > _CUT_CLEARANCE:
        raise NumericsError(
            f"located zero {s} lies in the open right half-plane, contradicting passivity"
        )
    if alpha > 0.0 and abs(s.real) < _CUT_CLEARANCE:
        warnings.warn(
            "characteristic zero hugs the imaginary axis; damping may be under-resolved",
            stacklevel=2,
        )
        s = complex(min(s.real, 0.0), s.imag)

    d = max(1e-6, 1e-3 * max(1.0, abs(s)))
    im_lo = s.imag - d
    if im_lo <= 0.0:
        im_lo = 0.5 * s.imag
    count = winding_number(
        (s.real - d, max(s.real + d, _CUT_CLEARANCE), im_lo, s.imag + d), p
    )
    if count != 1:
        raise NumericsError(
            f"certification rectangle around {s} contains {count} zeros instead of 1"
        )
    return ZeroPair(s_z=s, residual=res)


def _damped_newton(
    alpha: float, tau: float, theta: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized damped Newton, one zero per theta, from start (default: the elastic roots)."""
    return _newton_sweep(alpha, tau, theta, start)[0]


def _newton_sweep(
    alpha: float, tau: float, theta: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_damped_newton`'s zeros s and psi(s) there, its last residual.

    Every iteration works on the whole batch and updates only the samples
    still under its ``active`` mask, so each sample takes the steps it would
    take alone, bit for bit, without gathering and scattering the active set.
    """
    s = 1j * _elastic_frequency(theta, tau) if start is None else np.array(start, dtype=complex)
    fs, dfs = _psi_pair(s, alpha, tau, theta)
    active = np.ones(s.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        if not active.any():
            break
        nonzero = dfs != 0
        step = np.where(nonzero, fs / np.where(nonzero, dfs, 1.0), 0.0)
        lam = np.ones(step.shape)
        cur = np.abs(fs)
        cand = s - step
        f_cand, df_cand = _psi_pair(cand, alpha, tau, theta)
        for _ in range(20):
            bad = active & (((cand.imag <= _CUT_CLEARANCE) & (cand.real <= 0.0))
                            | (np.abs(f_cand) >= cur))
            if not bad.any():
                break
            lam[bad] *= 0.5
            cand = s - lam * step
            f_cand, df_cand = np.where(bad, _psi_pair(cand, alpha, tau, theta),
                                       (f_cand, df_cand))
        np.copyto(s, cand, where=active)
        np.copyto(fs, f_cand, where=active)
        np.copyto(dfs, df_cand, where=active)
        done = (np.abs(lam * step) <= 1e-13 * np.abs(cand)) | (
            np.abs(f_cand) <= 1e-14 * np.abs(cand) ** 2
        )
        active &= ~done
    return s, fs


def _zero_pair_batch(
    alpha: float, tau: float, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero pairs for many theta values at fixed (alpha, tau), from one table.

    Returns arrays (s, psi_prime_at_s). Used by the kernel assembly where
    thousands of wave numbers need their zero pair at once. s/sqrt(theta)
    moves smoothly in log theta from i (theta -> 0) to i/sqrt(tau) (theta ->
    inf), so the damped Newton sweep runs only at the points of a Chebyshev
    table, from one fixed-point step past the elastic root
    (:func:`_fixed_point_start`); every node then takes the root from
    :func:`_quad.eval_tables` and one plain Newton step, which squares the
    table's error (its error is held to 1e-8). Each node pays two powers
    s^alpha (charfun._power): one for the Newton step, one for the residual
    and the returned psi'. A table sample is tested on the residual that its
    sweep (:func:`_newton_sweep`) ends with, a node on its own; samples and
    nodes alike that fail are recomputed through find_zero_pair. It serves
    alpha > 0 (the kernel's alpha = 0 signal is a closed form) and theta of
    positive span.
    """
    theta = np.asarray(theta, dtype=float)

    def replace_failed(s: np.ndarray, fs: np.ndarray, th: np.ndarray) -> np.ndarray:
        """Replace, in place, each root of s whose residual |fs| fails the test
        by find_zero_pair's; returns the mask of those replaced."""
        bad = ~_certified(np.abs(fs), s)
        for i in np.flatnonzero(bad):
            s[i] = find_zero_pair(CharParams(alpha, tau, float(th[i]))).s_z
        return bad

    def samples(th: np.ndarray) -> np.ndarray:
        """The table's roots over sqrt(theta), certified by the sweep's own residuals."""
        s, fs = _newton_sweep(alpha, tau, th, _fixed_point_start(alpha, tau, th))
        s = np.where(s.imag < 0.0, np.conj(s), s)
        replace_failed(s, fs, th)
        return s / np.sqrt(th)

    lo, hi = float(np.min(theta)), float(np.max(theta))
    table = log_cheb_table(samples, lo, hi, 1e-8, "zero-pair table")
    s = eval_tables([table], np.log(theta), lo, hi)[0]
    s *= np.sqrt(theta)
    fs, dfs = _psi_pair(s, alpha, tau, theta)
    s -= fs / dfs
    s = np.where(s.imag < 0.0, np.conj(s), s)
    fs, dfs = _psi_pair(s, alpha, tau, theta)
    bad = replace_failed(s, fs, theta)
    dfs[bad] = _psi_prime(s[bad], alpha, tau, theta[bad])
    return s, dfs

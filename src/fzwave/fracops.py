"""Discrete fractional operators on uniformly sampled signals.

Three operators drive the dimensionless model: the left Caputo derivative in
time (L1 product-integration scheme), the symmetrized fractional derivative
in space (spectral, via its odd Fourier symbol), and the constitutive
convolution operator built from the relaxation function e_alpha, each on a
:class:`~fzwave.params.SampledSignal`. No field or CLI run loads this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .params import SampledSignal, _require_in
from .specfun import mittag_leffler

_BOUNDARY_DECAY = 1e-12
_PAD_FACTOR = 16


def _require_uniform_from_zero(f: SampledSignal, op: str) -> None:
    if not f.uniform:
        raise ValidationError("f.uniform", False, f"uniform grid for {op}")
    span = float(f.grid[-1] - f.grid[0])
    if abs(float(f.grid[0])) > 1e-12 * span:
        raise ValidationError("f.grid[0]", float(f.grid[0]), "grid starting at 0")


def caputo_derivative(f: SampledSignal, alpha: float) -> SampledSignal:
    """Left Caputo derivative of order alpha on [0, T], L1 scheme.

    Piecewise-linear product integration: with b_k = (k+1)^(1-alpha) - k^(1-alpha),

        D_n = h^(-alpha)/Gamma(2-alpha) * sum_{k=0}^{n-1} b_k (f_{n-k} - f_{n-k-1}),

    which is exact for piecewise-linear f and O(h^(2-alpha)) for smooth f.
    Order zero returns the signal unchanged, matching the integer-order limit.
    """
    _require_in("alpha", alpha, "[0, 1)")
    _require_uniform_from_zero(f, "the Caputo derivative")
    if len(f.grid) < 3:
        raise ValidationError("f.grid", len(f.grid), "at least 3 points")
    if alpha == 0.0:
        return SampledSignal(f.grid, f.values.copy())
    n = len(f.grid)
    h = f.spacing
    k = np.arange(n - 1, dtype=float)
    b = (k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha)
    df = np.diff(f.values)
    out = np.zeros(n)
    out[1:] = np.convolve(b, df)[: n - 1]
    out[1:] *= h ** (-alpha) / math.gamma(2.0 - alpha)
    return SampledSignal(f.grid, out)


def symmetrized_derivative(f: SampledSignal, beta: float) -> SampledSignal:
    """Symmetrized space-fractional derivative of order beta, evaluated spectrally.

    Multiplies the Fourier transform by the odd symbol
    i * sign(xi) * |xi|^beta * sin(beta*pi/2), so order 0 is the zero operator
    and order 1 the ordinary first derivative. The signal is zero-padded by a
    factor of 16 before the transform because the result decays only
    algebraically (like |x|^(-1-beta)) even for rapidly decaying input, and
    the wrap-around of that tail is what limits accuracy.
    """
    _require_in("beta", beta, "[0, 1]")
    if not f.uniform:
        raise ValidationError("f.uniform", False, "uniform grid for the spectral route")
    scale = float(np.abs(f.values).max())
    if scale == 0.0:
        return SampledSignal(f.grid, np.zeros_like(f.values))
    edge = max(abs(float(f.values[0])), abs(float(f.values[-1])))
    if edge > _BOUNDARY_DECAY * scale:
        raise ValidationError(
            "f.values", edge, f"boundary samples below {_BOUNDARY_DECAY:g} * max|f| "
            "(signal must be compactly supported within the grid)"
        )
    n = len(f.grid)
    h = f.spacing
    m = _PAD_FACTOR * n
    start = (m - n) // 2
    padded = np.zeros(m)
    padded[start : start + n] = f.values
    xi = 2.0 * math.pi * np.fft.fftfreq(m, d=h)
    symbol = 1j * np.sign(xi) * np.abs(xi) ** beta * math.sin(0.5 * math.pi * beta)
    out = np.fft.ifft(np.fft.fft(padded) * symbol).real[start : start + n]
    return SampledSignal(f.grid, out)


def _relaxation_tables(alpha: float, tau: float, h: float, n: int):
    """e_alpha(m*h) and its running integral on m = 0..n, via Mittag-Leffler values."""
    e1 = np.empty(n + 1)
    g = np.empty(n + 1)
    e1[0], g[0] = 1.0, 0.0
    for m in range(1, n + 1):
        t = m * h
        z = -(t ** alpha) / tau
        e1[m] = mittag_leffler(alpha, 1.0, z).real
        # int_0^t e_alpha = t * E_{alpha,2}(-t^alpha/tau)
        g[m] = t * mittag_leffler(alpha, 2.0, z).real
    return e1, g


def l_operator_apply(f: SampledSignal, alpha: float, tau: float) -> SampledSignal:
    """Constitutive operator (1/tau) f(t) + (1/tau - 1) int_0^t e'_alpha(t-u) f(u) du.

    The weakly singular kernel e'_alpha is never sampled: on each cell the
    piecewise-linear interpolant of f is integrated against it exactly, using
    only e_alpha and its running integral (both regular), so the t^(alpha-1)
    singularity is absorbed analytically. At order zero the operator collapses
    to the constant 2/(1+tau) times the identity, which is taken as a fast
    path.
    """
    _require_in("alpha", alpha, "[0, 1)")
    _require_in("tau", tau, "(0, 1)")
    _require_uniform_from_zero(f, "the constitutive operator")
    if alpha == 0.0:
        return SampledSignal(f.grid, (2.0 / (1.0 + tau)) * f.values)
    n = len(f.grid)
    h = f.spacing
    e1, g = _relaxation_tables(alpha, tau, h, n - 1)
    m = np.arange(1, n, dtype=float)
    b = e1[1:] - e1[:-1]
    a = m * h * e1[1:] - (m - 1.0) * h * e1[:-1] - (g[1:] - g[:-1])
    p = a / h - (m - 1.0) * b
    q = m * b - a / h
    conv_p = np.convolve(p, f.values)
    conv_q = np.convolve(q, f.values)
    c = np.zeros(n)
    c[1:] = conv_p[: n - 1] + conv_q[1:n]
    # convolve's row n picks up q[n]*f[0], one cell beyond the causal sum
    c[1:-1] -= q[1:] * f.values[0]
    out = f.values / tau + (1.0 / tau - 1.0) * c
    return SampledSignal(f.grid, out)

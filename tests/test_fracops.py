"""Tests for the discrete fractional operators (Caputo, symmetrized, constitutive)."""

import math

import numpy as np
import pytest
from scipy import integrate

from fzwave.errors import ValidationError
from fzwave.fracops import (
    SampledSignal,
    caputo_derivative,
    l_operator_apply,
    symmetrized_derivative,
)
from fzwave.specfun import e_alpha


def uniform_signal(fn, a, b, n):
    t = np.linspace(a, b, n)
    return SampledSignal.from_arrays(t, fn(t))


# ---------------------------------------------------------------- Caputo


def test_caputo_of_identity_function():
    # D^0.5 t = t^{1/2} / Gamma(1.5)
    f = uniform_signal(lambda t: t, 0.0, 1.0, 1000)
    d = caputo_derivative(f, 0.5)
    want = f.grid ** 0.5 / math.gamma(1.5)
    assert np.max(np.abs(d.values - want)) <= 1e-3


def test_caputo_of_constant_is_zero():
    f = uniform_signal(lambda t: 3.0 + 0.0 * t, 0.0, 2.0, 64)
    d = caputo_derivative(f, 0.7)
    assert np.all(d.values == 0.0)


def test_caputo_of_square():
    # D^0.25 t^2 = 2 t^{1.75} / Gamma(2.75)
    f = uniform_signal(lambda t: t**2, 0.0, 1.0, 2000)
    d = caputo_derivative(f, 0.25)
    want = 2.0 * f.grid ** 1.75 / math.gamma(2.75)
    np.testing.assert_allclose(d.values, want, atol=2e-6)


def test_caputo_of_square_against_quadrature():
    # the defining integral, evaluated independently at an interior time
    alpha, t_star = 0.25, 0.625
    f = uniform_signal(lambda t: t**2, 0.0, 1.0, 1601)
    d = caputo_derivative(f, alpha)
    i_star = int(round(t_star / f.spacing))
    assert f.grid[i_star] == pytest.approx(t_star, abs=1e-12)
    # quad's alg weight supplies (t-u)^(-alpha); integrand passed without it
    oracle, err = integrate.quad(
        lambda u: 2.0 * u, 0.0, t_star, weight="alg", wvar=(0.0, -alpha)
    )
    oracle /= math.gamma(1.0 - alpha)
    assert err < 1e-10
    assert d.values[i_star] == pytest.approx(oracle, rel=1e-5)


def test_caputo_order_zero_is_identity():
    f = uniform_signal(np.cos, 0.0, 3.0, 50)
    d = caputo_derivative(f, 0.0)
    assert np.array_equal(d.values, f.values)


def test_caputo_near_one_approaches_first_derivative():
    f = uniform_signal(np.sin, 0.0, 2.0, 4001)
    d = caputo_derivative(f, 0.99)
    sel = (f.grid >= 0.5) & (f.grid <= 1.0)
    np.testing.assert_allclose(d.values[sel], np.cos(f.grid[sel]), rtol=0.05)


def test_caputo_requires_grid_from_zero():
    f = uniform_signal(lambda t: t, 1.0, 2.0, 32)
    with pytest.raises(ValidationError):
        caputo_derivative(f, 0.5)


# ----------------------------------------------------- symmetrized derivative


def gaussian_signal(n=1201, half_width=12.0):
    x = np.linspace(-half_width, half_width, n)
    return SampledSignal.from_arrays(x, np.exp(-(x**2)))


def test_symmetrized_order_zero_is_zero_operator():
    d = symmetrized_derivative(gaussian_signal(), 0.0)
    assert np.all(d.values == 0.0)


def test_symmetrized_order_one_is_first_derivative():
    f = gaussian_signal()
    d = symmetrized_derivative(f, 1.0)
    want = -2.0 * f.grid * np.exp(-(f.grid**2))
    np.testing.assert_allclose(d.values, want, atol=1e-8)


def test_symmetrized_half_order_against_fourier_quadrature():
    """Independent oracle: the symbol applied under a continuous Fourier integral.

    For f = exp(-x^2), fhat(xi) = sqrt(pi) exp(-xi^2/4), so the operator value
    is -(sin(beta pi/2)/sqrt(pi)) * int_0^inf xi^beta exp(-xi^2/4) sin(xi x) dxi.
    """
    beta = 0.5
    f = gaussian_signal()
    d = symmetrized_derivative(f, beta)
    pref = -math.sin(0.5 * math.pi * beta) / math.sqrt(math.pi)
    for x_star in (-1.7, -0.4, 0.0, 0.6, 1.3, 2.5):
        i = int(np.argmin(np.abs(f.grid - x_star)))
        oracle, err = integrate.quad(
            lambda xi: xi**beta * math.exp(-0.25 * xi**2) * math.sin(xi * f.grid[i]),
            0.0,
            40.0,
            limit=200,
        )
        assert err < 1e-7
        assert d.values[i] == pytest.approx(pref * oracle, abs=2e-6)


def test_symmetrized_is_odd_preserving():
    # even input -> odd output, so the center sample vanishes
    f = gaussian_signal(n=1201)
    d = symmetrized_derivative(f, 0.45)
    mid = len(f.grid) // 2
    assert abs(d.values[mid]) < 1e-12
    np.testing.assert_allclose(d.values, -d.values[::-1], atol=1e-12)


def test_symmetrized_rejects_undecayed_boundary():
    x = np.linspace(-4.0, 4.0, 257)
    f = SampledSignal.from_arrays(x, np.exp(-(x**2)))  # exp(-16) ~ 1e-7 at edges
    with pytest.raises(ValidationError):
        symmetrized_derivative(f, 0.5)


def test_symmetrized_zero_signal_short_circuits():
    x = np.linspace(-1.0, 1.0, 33)
    d = symmetrized_derivative(SampledSignal.from_arrays(x, np.zeros(33)), 0.5)
    assert np.all(d.values == 0.0)


# ----------------------------------------------------- constitutive operator


def test_l_operator_of_zero():
    f = uniform_signal(lambda t: 0.0 * t, 0.0, 1.0, 65)
    out = l_operator_apply(f, 0.25, 0.1)
    assert np.all(out.values == 0.0)


def test_l_operator_of_unit_step():
    # L1(t) = 1/tau + (1/tau - 1)(e_alpha(t) - 1); exact for constant input
    alpha, tau = 0.25, 0.1
    f = uniform_signal(lambda t: 1.0 + 0.0 * t, 0.0, 5.0, 801)
    out = l_operator_apply(f, alpha, tau)
    want = np.array(
        [1.0 / tau + (1.0 / tau - 1.0) * (e_alpha(t, alpha, tau) - 1.0) for t in f.grid]
    )
    np.testing.assert_allclose(out.values, want, rtol=1e-8)
    # instantaneous response is the glassy modulus 1/tau, long-time the relaxed 1
    assert out.values[0] == pytest.approx(1.0 / tau)
    assert abs(out.values[-1] - 1.0) < abs(out.values[len(f.grid) // 2] - 1.0)


def test_l_operator_alpha_zero_fast_path():
    f = uniform_signal(np.sin, 0.0, 2.0, 41)
    out = l_operator_apply(f, 0.0, 0.25)
    np.testing.assert_allclose(out.values, (2.0 / 1.25) * f.values, rtol=0, atol=0)


def test_l_operator_linearity():
    t = np.linspace(0.0, 2.0, 301)
    f = SampledSignal.from_arrays(t, np.sin(t))
    g = SampledSignal.from_arrays(t, t**2)
    combo = SampledSignal.from_arrays(t, 2.0 * np.sin(t) - 3.0 * t**2)
    lf = l_operator_apply(f, 0.4, 0.3).values
    lg = l_operator_apply(g, 0.4, 0.3).values
    lc = l_operator_apply(combo, 0.4, 0.3).values
    scale = np.max(np.abs(lc))
    assert np.max(np.abs(lc - (2.0 * lf - 3.0 * lg))) <= 1e-10 * scale


def test_l_operator_encodes_constitutive_law():
    """sigma = L eps satisfies sigma + tau D^alpha sigma = eps + D^alpha eps."""
    alpha, tau = 0.25, 0.1
    t = np.linspace(0.0, 2.0, 2000)
    eps = SampledSignal.from_arrays(t, 1.0 - np.cos(t))
    sigma = l_operator_apply(eps, alpha, tau)
    lhs = sigma.values + tau * caputo_derivative(sigma, alpha).values
    rhs = eps.values + caputo_derivative(eps, alpha).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-2 * scale


# ---------------------------------------------------------------- validation


def test_signal_rejects_non_monotone_grid():
    with pytest.raises(ValidationError):
        SampledSignal(np.array([0.0, 1.0, 0.5]), np.zeros(3))


def test_signal_reads_uniform_spacing_from_its_grid():
    # the grid alone decides it: no flag to pass, and none to pass wrongly
    t = np.linspace(0.0, 1.0, 11)
    d = caputo_derivative(SampledSignal(t, t), 0.5)
    assert d.uniform
    np.testing.assert_allclose(d.values, t**0.5 / math.gamma(1.5), atol=1e-12)


def test_from_arrays_detects_spacing():
    assert SampledSignal.from_arrays([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]).uniform
    assert not SampledSignal.from_arrays([0.0, 1.0, 2.5], [0.0] * 3).uniform


def test_operators_reject_bad_orders():
    f = uniform_signal(lambda t: t, 0.0, 1.0, 16)
    with pytest.raises(ValidationError):
        caputo_derivative(f, 1.0)
    with pytest.raises(ValidationError):
        symmetrized_derivative(gaussian_signal(n=64), 1.5)
    with pytest.raises(ValidationError):
        l_operator_apply(f, 0.5, 1.0)

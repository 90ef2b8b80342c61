"""Tests for the characteristic function, its derivative, and cut boundary values."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from fzwave.charfun import (
    CharParams,
    _power,
    _psi,
    _psi_pair,
    branch_values,
    psi,
    psi_prime,
    theta_of_rho,
    zener_ratio,
)
from fzwave.errors import ValidationError

P_BASE = CharParams(alpha=0.25, tau=0.1, theta=1.0)


def test_ratio_at_one_is_tau_independent_of_alpha():
    for alpha in (0.0, 0.25, 0.7):
        for tau in (0.1, 0.5):
            assert zener_ratio(1.0, alpha, tau) == pytest.approx(2.0 / (1.0 + tau))


def test_ratio_alpha_zero_is_constant():
    for s in (2.0 + 3.0j, -1.0 + 0.5j, 5.0, 0.01j):
        assert zener_ratio(s, 0.0, 0.3) == pytest.approx(2.0 / 1.3, rel=1e-15)


def test_ratio_at_i_frozen():
    # mpmath, 50 digits: (1 + e^{i pi/8}) / (1 + 0.1 e^{i pi/8})
    want = 1.7712672930925202410298261382615110024 + 0.2882675213437023501887946243563198122j
    got = zener_ratio(1j, 0.25, 0.1)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_cut_points_rejected():
    for bad in (-1.0, 0.0, -1e-8):
        with pytest.raises(ValidationError):
            zener_ratio(bad, 0.25, 0.1)
        with pytest.raises(ValidationError):
            psi(bad, P_BASE)
        with pytest.raises(ValidationError):
            psi_prime(bad, P_BASE)
    with pytest.raises(ValidationError):
        psi(np.array([1.0 + 1.0j, -2.0 + 0.0j]), P_BASE)


def test_psi_quadratic_root_at_alpha_zero():
    for tau, theta in ((0.1, 1.0), (0.5, 3.0), (0.9, 0.25)):
        p = CharParams(alpha=0.0, tau=tau, theta=theta)
        root = 1j * math.sqrt(2.0 * theta / (1.0 + tau))
        assert abs(psi(root, p)) <= 1e-14 * theta


def test_psi_theta_to_zero_limit_is_pure_square():
    p = CharParams(alpha=0.25, tau=0.1, theta=1e-30)
    assert psi(1.0, p) == pytest.approx(1.0, rel=1e-12)
    assert psi_prime(1.0, p) == pytest.approx(2.0, rel=1e-12)


def test_theta_must_be_positive():
    with pytest.raises(ValidationError):
        CharParams(alpha=0.25, tau=0.1, theta=0.0)
    with pytest.raises(ValidationError):
        CharParams(alpha=0.25, tau=0.1, theta=-1.0)


def test_psi_prime_matches_finite_differences():
    h = 1e-6
    s0 = -0.3 + 0.9j
    fd = (psi(s0 + h, P_BASE) - psi(s0 - h, P_BASE)) / (2.0 * h)
    assert abs(psi_prime(s0, P_BASE) - fd) <= 1e-6 * abs(fd)

    rng = np.random.default_rng(7)
    for _ in range(100):
        r = rng.uniform(0.2, 3.0)
        phi = rng.uniform(-0.9 * math.pi, 0.9 * math.pi)
        s = r * cmath.exp(1j * phi)
        if s.imag == 0.0 and s.real <= 0.0:  # pragma: no cover
            continue
        fd = (psi(s + h, P_BASE) - psi(s - h, P_BASE)) / (2.0 * h)
        assert abs(psi_prime(s, P_BASE) - fd) <= 1e-6 * max(abs(fd), 1.0)


# (alpha, tau) of the six kernel table settings; two of them share (0.9, 0.9)
PAIR_SETTINGS = [(0.25, 0.1), (0.6, 0.1), (0.9, 0.9), (0.5, 0.5), (0.1, 0.2)]


@pytest.mark.parametrize("alpha, tau", PAIR_SETTINGS)
def test_psi_pair_matches_the_power_formulas(alpha, tau):
    # psi and psi' from one power s^alpha against the two-power formulas,
    # |s| from 1e-6 to 1e6 in the closed upper-left quadrant off the cut
    r = np.geomspace(1e-6, 1e6, 121)[:, None]
    s = (r * np.exp(1j * np.linspace(0.5 * np.pi, 0.999 * np.pi, 9))).ravel()
    for theta in (1e-4, 1.0, 1e4):
        sa = s**alpha
        ratio = theta * (1.0 + sa) / (1.0 + tau * sa)
        slope = theta * alpha * (1.0 - tau) * s ** (alpha - 1.0) / (1.0 + tau * sa) ** 2
        psi_s, dpsi = _psi_pair(s, alpha, tau, theta)
        np.testing.assert_array_equal(psi_s, _psi(s, alpha, tau, theta))
        assert np.max(np.abs(psi_s - (s * s + ratio)) / (np.abs(s * s) + np.abs(ratio))) <= 1e-14
        assert np.max(np.abs(dpsi - (2.0 * s + slope)) / (np.abs(2.0 * s) + np.abs(slope))) <= 1e-14


@pytest.mark.parametrize("alpha", sorted({a for a, _ in PAIR_SETTINGS}))
def test_power_matches_the_complex_power(alpha):
    # |s| from 1e-6 to 1e6 across the closed upper half-plane, and s = 0,
    # against 40-digit powers: numpy's own s**alpha is off by up to 1.6e-15
    # at alpha = 0.9 here, the real-arithmetic form by under 4e-16
    r = np.geomspace(1e-6, 1e6, 61)[:, None]
    s = (r * np.exp(1j * np.linspace(0.0, np.pi, 17))).ravel()
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.mpc(z.real, z.imag) ** mpmath.mpf(alpha))
                          for z in s])
    assert np.max(np.abs(_power(s, alpha) - exact) / np.abs(exact)) <= 1e-15
    assert np.max(np.abs(_power(s, alpha) - s**alpha) / np.abs(exact)) <= 2e-15
    zero = np.zeros(1, dtype=complex)
    np.testing.assert_array_equal(_power(zero, alpha), zero**alpha)


def test_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = complex(rng.uniform(-3.0, 3.0), rng.uniform(1e-6, 3.0))
        for f in (lambda z: zener_ratio(z, 0.25, 0.1), lambda z: psi(z, P_BASE)):
            v, vc = f(s), f(s.conjugate())
            assert abs(vc - v.conjugate()) <= 1e-13 * abs(v)


def test_cartesian_matches_polar_form():
    """Re/Im of psi recomputed from the polar decomposition of s^alpha."""
    alpha, tau, theta = 0.25, 0.1, 1.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = rng.uniform(0.1, 4.0)
        phi = rng.uniform(-0.95 * math.pi, 0.95 * math.pi)
        s = r * cmath.exp(1j * phi)
        ra, ap = r**alpha, alpha * phi
        den = 1.0 + 2.0 * tau * ra * math.cos(ap) + (tau * ra) ** 2
        re_ratio = ((1.0 + ra * math.cos(ap)) * (1.0 + tau * ra * math.cos(ap))
                    + tau * (ra * math.sin(ap)) ** 2) / den
        im_ratio = (1.0 - tau) * ra * math.sin(ap) / den
        want = complex(
            r**2 * math.cos(2.0 * phi) + theta * re_ratio,
            r**2 * math.sin(2.0 * phi) + theta * im_ratio,
        )
        got = psi(s, CharParams(alpha, tau, theta))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_branch_values_alpha_zero():
    fp, fm = branch_values(2.0, 0.0, 0.1)
    assert fp == pytest.approx(2.0 / 1.1)
    assert fm == pytest.approx(2.0 / 1.1)


def test_branch_values_limits():
    # approach to the endpoints is only O(q^alpha) / O(q^-alpha), so push hard
    fp, _ = branch_values(1e-16, 0.25, 0.1)
    assert fp == pytest.approx(1.0, abs=1e-3)
    fp, _ = branch_values(1e28, 0.25, 0.1)
    assert fp == pytest.approx(1.0 / 0.1, abs=1e-5)


def test_branch_values_conjugate_pair():
    q = np.geomspace(1e-3, 1e3, 25)
    fp, fm = branch_values(q, 0.45, 0.2)
    assert np.array_equal(fm, np.conj(fp))  # exact by construction
    assert np.all(fp.imag != 0.0)


def test_branch_values_reject_nonpositive():
    with pytest.raises(ValidationError):
        branch_values(0.0, 0.25, 0.1)
    with pytest.raises(ValidationError):
        branch_values(np.array([1.0, -2.0]), 0.25, 0.1)


def test_theta_of_rho_values():
    assert theta_of_rho(1.0, 1.0) == pytest.approx(1.0)
    assert theta_of_rho(2.0, 0.0) == 0.0
    assert theta_of_rho(2.0, 0.45) == pytest.approx(
        2.0**1.45 * math.sin(0.225 * math.pi), rel=1e-15
    )
    assert theta_of_rho(0.0, 0.45) == 0.0


def test_theta_of_rho_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        theta_of_rho(1.0, 1.5)
    with pytest.raises(ValidationError):
        theta_of_rho(-1.0, 0.5)

"""Tests for the Mittag-Leffler evaluator and the relaxation function e_alpha.

High-precision reference values were generated with an independent mpmath
route (50-digit series / integral representation) and frozen here.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from fzwave.errors import NumericsError, ValidationError
from fzwave.specfun import e_alpha, e_alpha_prime, mittag_leffler


def test_ml_one_one_is_exp():
    for t in np.linspace(0.0, 10.0, 101):
        got = mittag_leffler(1.0, 1.0, -t)
        assert abs(got - math.exp(-t)) <= 1e-12


def test_ml_half_is_scaled_erfc():
    # E_{1/2,1}(-x) = exp(x^2) * erfc(x)
    for x in np.linspace(0.0, 5.0, 51):
        got = mittag_leffler(0.5, 1.0, -x)
        want = math.exp(x**2) * special.erfc(x)
        assert abs(got.imag) < 1e-12  # roundoff relative to the largest series term
        assert got.real == pytest.approx(want, rel=1e-8)


def test_ml_at_zero_is_one():
    for a in (0.25, 0.5, 0.75, 0.99):
        assert mittag_leffler(a, 1.0, 0.0) == 1.0


# mpmath, mp.dps = 50
ML_FIXTURES = [
    (0.5, 1.0, -1.0, 0.4275835761558070044107503),
    (0.25, 1.0, -10.0, 0.0762370352397216356882418),
    (0.25, 0.25, -11.892071150027210667175, 0.001285114389400360658516744),
    # mpmath series at mp.dps = 120; each point reaches the cut integral, the
    # second through the ml_beta > 1 + ml_alpha step-down
    (0.7, 0.5, -9.0, -0.01723076014115053377306),
    (0.6, 1.75, -6.0, 0.1614361729665223456228477),
    (0.95, 1.0, -12.0, 0.00515379776328542718435),
    (0.9, 0.95, -7.0, 0.01205352908032416838944),
    # mpmath series at mp.dps = 50: |z| = 6 is past the first series attempt and
    # off the asymptotic cone, so the series is tried again there
    (0.9, 1.0, 6.0, 1680.861655350585752725342867),
]


@pytest.mark.parametrize("a, b, z, want", ML_FIXTURES)
def test_ml_frozen_values(a, b, z, want):
    assert mittag_leffler(a, b, z).real == pytest.approx(want, rel=1e-10)


def test_ml_at_zero_is_zero_where_gamma_overflows():
    # 1/Gamma(200) ~ 1e-373 underflows, and Gamma(200) overflows a float first
    assert mittag_leffler(0.5, 200.0, 0.0) == 0.0


def test_ml_rejects_bad_orders():
    with pytest.raises(ValidationError):
        mittag_leffler(0.0, 1.0, -1.0)
    with pytest.raises(ValidationError):
        mittag_leffler(-0.5, 1.0, -1.0)


def test_e_alpha_at_zero():
    assert e_alpha(0.0, 0.25, 0.1) == 1.0
    assert e_alpha(0.0, 0.75, 0.5) == 1.0


def test_e_alpha_tends_to_exponential_as_alpha_to_one():
    # alpha -> 1 turns the relaxation function into exp(-t/tau)
    got = e_alpha(1.0, 1.0 - 1e-10, 0.5)
    assert got == pytest.approx(math.exp(-2.0), abs=1e-9)


def test_e_alpha_prime_tends_to_exponential_derivative():
    got = e_alpha_prime(1.0, 1.0 - 1e-10, 0.5)
    assert got == pytest.approx(-2.0 * math.exp(-2.0), abs=1e-9)


def test_e_alpha_prime_frozen_value():
    # mpmath: -(t^(alpha-1)/tau) E_{alpha,alpha}(-t^alpha/tau) at t=2
    got = e_alpha_prime(2.0, 0.25, 0.1)
    assert got == pytest.approx(-0.007641335877336431803336874, rel=1e-10)


def test_e_alpha_prime_initial_singularity():
    # near t = 0+ the derivative blows up like -t^(alpha-1) / (tau Gamma(alpha))
    alpha, tau = 0.5, 0.1
    for t in (1e-12, 1e-11, 1e-10):
        got = e_alpha_prime(t, alpha, tau)
        want = -(t ** (alpha - 1.0)) / (tau * math.gamma(alpha))
        assert got < 0
        assert got == pytest.approx(want, rel=1e-3)


def test_e_alpha_rejects_out_of_range():
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValidationError):
            e_alpha(1.0, bad, 0.1)
    with pytest.raises(ValidationError):
        e_alpha(1.0, 0.5, 1.0)
    with pytest.raises(ValidationError):
        e_alpha(-1.0, 0.5, 0.1)


def test_e_alpha_is_completely_monotone():
    """Alternating forward differences of orders 1..3 on a log grid.

    Complete monotonicity means (-1)^n Delta^n e >= 0 for every order; finite
    differences on samples are a necessary-condition probe, not a proof.
    """
    t = np.geomspace(0.01, 10.0, 400)
    vals = np.array([e_alpha(tt, 0.25, 0.1) for tt in t])
    assert np.all(vals > 0)
    slack = 1e-9 * vals.max()  # room for evaluator noise in high-order diffs
    d = vals
    for order in range(1, 4):
        d = np.diff(d)
        signed = d if order % 2 == 0 else -d
        assert np.all(signed > -slack), f"order {order} difference changed sign"


def test_e_alpha_laplace_transform():
    # int_0^T e_alpha(t) exp(-s t) dt -> s^(alpha-1) / (s^alpha + 1/tau)
    alpha, tau, s = 0.25, 0.1, 2.0
    want = s ** (alpha - 1.0) / (s**alpha + 1.0 / tau)
    got, err = integrate.quad(
        lambda t: e_alpha(t, alpha, tau) * math.exp(-s * t),
        0.0,
        200.0,
        limit=400,
        epsabs=1e-10,
        epsrel=1e-8,
    )
    assert err < 1e-7
    assert got == pytest.approx(want, abs=1e-6)


def test_ml_refuses_an_argument_no_regime_serves():
    # |z| = 30 off the negative axis: past the series, outside the asymptotic
    # cone, and not on the spectral route's half-line
    with pytest.raises(NumericsError, match="not evaluable") as exc:
        mittag_leffler(0.5, 1.0, 30j)
    assert exc.value.achieved == math.inf

"""Tests for zero location and argument-principle certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fzwave.charfun import CharParams, psi
from fzwave.errors import NumericsError, ValidationError
from fzwave.rootfinder import ZeroPair, find_zero_pair, winding_number

P_BASE = CharParams(alpha=0.25, tau=0.1, theta=1.0)

# Newton from the elastic root, frozen after convergence to residual ~1e-16
GOLDEN_S_Z = -0.1194701505825608 + 1.355245568401648j


def test_winding_right_half_plane_is_empty():
    assert winding_number((1e-3, 2.0, -1.5, 1.5), P_BASE) == 0


def test_winding_counts_upper_zero():
    assert winding_number((-2.0, -1e-3, 1e-3, 2.0), P_BASE) == 1


def test_winding_counts_conjugate_pair_through_keyhole():
    # straddles the cut: the path indents around (-inf, 0] and sees both zeros
    assert winding_number((-2.0, 2.0, -2.0, 2.0), P_BASE) == 2


def test_winding_budget_exhaustion_raises():
    with pytest.raises(NumericsError):
        winding_number((-2.0, -1e-3, 1e-3, 2.0), P_BASE, node_budget=1)


def test_winding_rejects_degenerate_rect():
    with pytest.raises(ValidationError):
        winding_number((1.0, 1.0, -1.0, 1.0), P_BASE)


def test_alpha_zero_root_is_elastic():
    pair = find_zero_pair(CharParams(alpha=0.0, tau=0.1, theta=1.0))
    assert pair.s_z == pytest.approx(1.348399724926484j, abs=1e-12)
    pair = find_zero_pair(CharParams(alpha=0.0, tau=0.5, theta=3.0))
    assert pair.s_z == pytest.approx(2.0j, abs=1e-12)


def _winding_around(s: complex, p: CharParams) -> int:
    d = 1e-3 * max(1.0, abs(s))
    return winding_number((s.real - d, s.real + d, s.imag - d, s.imag + d), p)


def test_golden_zero_for_experiment_parameters():
    pair = find_zero_pair(P_BASE)
    assert pair.s_z == pytest.approx(GOLDEN_S_Z, rel=1e-12)
    assert _winding_around(pair.s_z, P_BASE) == 1
    assert pair.residual <= 1e-10
    assert pair.conjugate == pair.s_z.conjugate()


def test_zero_is_in_left_half_plane_and_upper():
    pair = find_zero_pair(P_BASE)
    assert pair.s_z.real <= 1e-9
    assert pair.s_z.imag > 0.0


def test_zero_pair_validates_its_fields():
    with pytest.raises(ValidationError):
        ZeroPair(s_z=1.0 - 1.0j, residual=0.0, iterations=1)
    with pytest.raises(ValidationError):
        ZeroPair(s_z=-0.1 + 1.0j, residual=1.0, iterations=1)


def test_random_parameter_sweep_certifies():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        p = CharParams(
            alpha=float(rng.uniform(0.0, 0.95)),
            tau=float(rng.uniform(0.05, 0.95)),
            theta=float(10.0 ** rng.uniform(-2.0, 3.0)),
        )
        pair = find_zero_pair(p)
        assert _winding_around(pair.s_z, p) == 1
        assert pair.residual <= 1e-10 * max(1.0, abs(pair.s_z) ** 2)
        assert pair.s_z.real <= 1e-9
        assert abs(psi(pair.s_z, p)) <= 1e-9 * max(1.0, abs(pair.s_z) ** 2)


def test_zero_magnitude_grows_with_theta():
    mags = []
    for theta in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
        pair = find_zero_pair(CharParams(alpha=0.25, tau=0.1, theta=theta))
        mags.append(abs(pair.s_z))
    assert all(a < b for a, b in zip(mags, mags[1:]))


def test_zero_vanishes_with_theta():
    pair = find_zero_pair(CharParams(alpha=0.25, tau=0.1, theta=1e-6))
    assert abs(pair.s_z) < 5e-3


def test_zero_depends_continuously_on_theta():
    base = find_zero_pair(P_BASE).s_z
    bumped = find_zero_pair(CharParams(0.25, 0.1, 1.01)).s_z
    assert abs(bumped - base) < 0.1 * abs(base)


@pytest.mark.filterwarnings("ignore:characteristic zero hugs the imaginary axis")
@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.0, 0.9),
    tau=st.floats(0.05, 0.9),
    log_theta=st.floats(-1.5, 2.5),
)
def test_located_zero_annihilates_psi(alpha, tau, log_theta):
    p = CharParams(alpha=alpha, tau=tau, theta=10.0**log_theta)
    pair = find_zero_pair(p)
    assert abs(psi(pair.s_z, p)) <= 1e-10 * max(1.0, abs(pair.s_z) ** 2)

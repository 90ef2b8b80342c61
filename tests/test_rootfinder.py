"""Tests for zero location and argument-principle certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fzwave.kernel
import fzwave.rootfinder
from fzwave.charfun import CharParams, _psi_prime, psi, theta_of_rho
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


def test_winding_contour_may_pass_through_the_origin():
    # psi is finite at s = 0 (psi' is not), so a scan through it still counts
    assert winding_number((-1.0, 1.0, 0.0, 2.0), P_BASE) == 1


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


@pytest.mark.parametrize("alpha, tau, theta", [(0.25, 0.1, 1.0), (0.7, 0.4, 30.0)])
def test_bisection_fallback_recovers_the_certified_root(alpha, tau, theta, monkeypatch):
    p = CharParams(alpha=alpha, tau=tau, theta=theta)
    expected = find_zero_pair(p).s_z
    newton = fzwave.rootfinder._damped_newton
    starts = []

    def stalls_once(alpha, tau, theta, start=None):
        starts.append(start)
        if len(starts) == 1:
            return np.array(start, dtype=complex)  # the unpolished elastic start
        return newton(alpha, tau, theta, start)

    monkeypatch.setattr(fzwave.rootfinder, "_damped_newton", stalls_once)
    pair = find_zero_pair(p)
    assert len(starts) == 2  # the second run starts from the bisection point
    assert abs(starts[1][0] - expected) <= 1e-6 * abs(expected) < abs(starts[0][0] - expected)
    assert abs(pair.s_z - expected) <= 1e-12 * abs(expected)
    assert _winding_around(pair.s_z, p) == 1


def test_bisection_fallback_stops_where_its_winding_counts_stop_informing(monkeypatch):
    # descending to 1e-12 boxes took 129 winding counts here; below ~1e-8 the
    # counts no longer follow the zero, and Newton polishes the point anyway
    calls = []
    count = fzwave.rootfinder.winding_number

    def counted(*args, **kwargs):
        calls.append(args[0])
        return count(*args, **kwargs)

    expected = find_zero_pair(P_BASE).s_z
    monkeypatch.setattr(fzwave.rootfinder, "winding_number", counted)
    s = fzwave.rootfinder._bisection_fallback(P_BASE)
    assert len(calls) <= 2 * 129 // 3
    assert abs(s - expected) <= 1e-6 * abs(expected)


@pytest.mark.parametrize("theta", [150.0, 211.6, 1e3, 1e4])
def test_strongly_damped_roots_are_found_inside_their_bound(theta):
    # Newton from the elastic root fails here, and a search window sized by
    # sqrt(2 theta) held no zero; |s_z|^2 <= theta/tau bounds it
    p = CharParams(alpha=0.9, tau=0.01, theta=theta)
    pair = find_zero_pair(p)
    assert abs(pair.s_z) ** 2 <= theta / p.tau
    assert abs(psi(pair.s_z, p)) <= 1e-10 * abs(pair.s_z) ** 2
    assert _winding_around(pair.s_z, p) == 1


def test_zero_pair_validates_its_fields():
    with pytest.raises(ValidationError):
        ZeroPair(s_z=1.0 - 1.0j, residual=0.0)
    with pytest.raises(ValidationError):
        ZeroPair(s_z=-0.1 + 1.0j, residual=1.0)


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


# ------------------------------------------------------ batch roots from a table

FIELD_SETTINGS = [(0.25, 0.45, 0.1), (0.6, 0.8, 0.1), (0.9, 0.45, 0.9), (0.9, 0.9, 0.9)]


def _field_theta(beta: float, n_panels: int = 2000, rho_max: float = 860.0) -> np.ndarray:
    """theta at the 8-point Gauss nodes of equal panels on (0, rho_max]."""
    rho, _ = fzwave.kernel._gauss_panels(rho_max / n_panels, n_panels)
    return theta_of_rho(rho, beta)


def _counted_fallbacks(monkeypatch) -> list:
    calls = []
    scalar = fzwave.rootfinder.find_zero_pair

    def counted(p):
        calls.append(p.theta)
        return scalar(p)

    monkeypatch.setattr(fzwave.rootfinder, "find_zero_pair", counted)
    return calls


@pytest.mark.parametrize("alpha, beta, tau", FIELD_SETTINGS + [(0.1, 0.9, 0.2)])
def test_table_roots_match_damped_newton_on_every_node(alpha, beta, tau, monkeypatch):
    theta = _field_theta(beta)
    fallbacks = _counted_fallbacks(monkeypatch)
    s, dpsi = fzwave.rootfinder._zero_pair_batch(alpha, tau, theta)
    oracle = fzwave.rootfinder._damped_newton(alpha, tau, theta)
    assert np.max(np.abs(s - oracle) / np.abs(oracle)) <= 1e-12
    assert fallbacks == []
    np.testing.assert_array_equal(dpsi, _psi_prime(s, alpha, tau, theta))


def test_skewed_root_table_falls_back_to_certified_roots(monkeypatch):
    build = fzwave.rootfinder.log_cheb_table

    def skewed(*args):
        return 1.01 * build(*args)

    monkeypatch.setattr(fzwave.rootfinder, "log_cheb_table", skewed)
    fallbacks = _counted_fallbacks(monkeypatch)
    theta = _field_theta(0.45, n_panels=12, rho_max=20.0)
    s, dpsi = fzwave.rootfinder._zero_pair_batch(0.25, 0.1, theta)
    assert len(fallbacks) == theta.size
    np.testing.assert_array_equal(dpsi, _psi_prime(s, 0.25, 0.1, theta))
    for s_i, th in zip(s, theta):
        pair = find_zero_pair(CharParams(0.25, 0.1, float(th)))
        assert s_i == pair.s_z


def test_failed_table_samples_are_replaced_by_certified_roots(monkeypatch):
    # spoil every 5th root the table's sweeps return: exactly those samples
    # take find_zero_pair, and the batch keeps its clean roots
    theta = _field_theta(0.45)
    clean, _ = fzwave.rootfinder._zero_pair_batch(0.25, 0.1, theta)
    newton = fzwave.rootfinder._damped_newton
    spoiled = []

    def spoils_samples(alpha, tau, th, start=None):
        s = newton(alpha, tau, th, start)
        if th.size > 1:  # a table sweep, not find_zero_pair's own one-root run
            s[::5] *= 1.0 + 1e-3
            spoiled.extend(th[::5].tolist())
        return s

    monkeypatch.setattr(fzwave.rootfinder, "_damped_newton", spoils_samples)
    fallbacks = _counted_fallbacks(monkeypatch)
    s, dpsi = fzwave.rootfinder._zero_pair_batch(0.25, 0.1, theta)
    assert spoiled and fallbacks == spoiled
    assert np.max(np.abs(s - clean) / np.abs(clean)) <= 1e-12
    np.testing.assert_array_equal(dpsi, _psi_prime(s, 0.25, 0.1, theta))

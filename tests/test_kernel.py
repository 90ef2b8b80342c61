"""Tests for the spectral kernel, its Laplace transform, and field assembly.

The frozen spectral values below were produced by this package's
residue-plus-cut evaluation and independently confirmed against a regularized
Bromwich-contour inversion (two unrelated routes agreeing to ~1e-10); they
are pinned at 1e-8 so incidental quadrature retuning does not move them.
"""

import math

import numpy as np
import pytest

import fzwave.kernel
from fzwave.errors import NumericsError, ValidationError
from fzwave.kernel import (
    Field,
    QuadratureConfig,
    delta_eps,
    kernel_classical,
    kernel_eps,
    kernel_eps_time_integrated,
    kernel_time_fractional,
    laplace_kernel_hat,
    spectral_kernel,
    spectral_kernel_alpha0,
)
from fzwave.params import ModelParams

P_EXP = ModelParams(alpha=0.25, beta=0.45, tau=0.1, epsilon=0.01)


# ------------------------------------------------------------ Laplace domain


def test_hat_at_rho_zero_is_pure_pole():
    assert laplace_kernel_hat(0.0, 2.0, P_EXP) == pytest.approx(0.5)


def test_hat_at_beta_zero_is_pure_pole():
    p = ModelParams(0.25, 0.0, 0.1)
    assert laplace_kernel_hat(3.0, 2.0, p) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        laplace_kernel_hat(3.0, 0.0, p)


def test_hat_initial_value_theorem():
    # s * K_hat -> 1 as s -> inf (kernel starts at 1)
    s = 1e6
    for rho in (0.0, 1.0, 10.0):
        val = s * laplace_kernel_hat(rho, s, P_EXP)
        assert abs(val - 1.0) <= 1e-4


# ------------------------------------------------------------ spectral modes

SPECTRAL_TABLE = {
    (0.5, 0.5): 0.936518000668,
    (0.5, 1.0): 0.773063278005,
    (0.5, 2.0): 0.255500414010,
    (1.0, 0.5): 0.830236472632,
    (1.0, 1.0): 0.427290616648,
    (1.0, 2.0): -0.502227711141,
    (2.0, 0.5): 0.562698845911,
    (2.0, 1.0): -0.253529613936,
    (2.0, 2.0): -0.656737376347,
}


@pytest.mark.parametrize("rho, t", sorted(SPECTRAL_TABLE))
def test_spectral_kernel_frozen_table(rho, t):
    got = spectral_kernel(rho, t, P_EXP)
    assert got.total == pytest.approx(SPECTRAL_TABLE[(rho, t)], abs=1e-8)
    assert got.total == pytest.approx(got.branch_part + got.residue_part, rel=1e-12)


def test_spectral_kernel_at_rho_zero_is_unit():
    s = spectral_kernel(0.0, 1.0, P_EXP)
    assert s.total == 1.0
    assert s.branch_part == 0.0


def test_spectral_kernel_starts_at_one():
    s = spectral_kernel(1.0, 1e-3, P_EXP)
    assert s.total == pytest.approx(1.0, abs=1e-5)


def test_spectral_kernel_is_bounded_and_decays():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rho = float(rng.uniform(0.05, 5.0))
        t = float(rng.uniform(0.1, 5.0))
        assert abs(spectral_kernel(rho, t, P_EXP).total) <= 1.0 + 1e-9
    early = max(abs(spectral_kernel(1.0, t, P_EXP).total) for t in (0.5, 1.0, 1.5, 2.0))
    late = max(abs(spectral_kernel(1.0, t, P_EXP).total) for t in (10.0, 15.0, 20.0))
    assert late < 0.5 * early


def test_spectral_kernel_rejects_alpha_edges():
    with pytest.raises(ValidationError):
        spectral_kernel(1.0, 1.0, ModelParams(0.0, 0.45, 0.1))
    with pytest.raises(ValidationError):
        spectral_kernel(1.0, -1.0, P_EXP)


def test_alpha0_mode_closed_form():
    assert spectral_kernel_alpha0(1.0, 0.0, 0.45, 0.1) == 1.0
    assert spectral_kernel_alpha0(2.0, 3.0, 0.0, 0.1) == 1.0  # beta=0: theta vanishes
    # beta=1, rho=1: omega = sqrt(2/(1+tau)); half period lands on -1
    omega = math.sqrt(2.0 / 1.1)
    assert spectral_kernel_alpha0(1.0, math.pi / omega, 1.0, 0.1) == pytest.approx(-1.0)


# ------------------------------------------------------------ field assembly


def test_beta_zero_field_is_stationary_mollifier():
    x = np.linspace(-2.0, 2.0, 201)
    f = kernel_eps(x, [0.5, 1.0, 2.0], ModelParams(0.25, 0.0, 0.1))
    for i in range(3):
        np.testing.assert_array_equal(f.values[i], delta_eps(x, 0.01))


def test_beta_zero_integrated_grows_linearly():
    x = np.linspace(-1.0, 1.0, 101)
    f = kernel_eps_time_integrated(x, [0.5, 2.0], ModelParams(0.25, 0.0, 0.1))
    np.testing.assert_allclose(f.values[0], 0.5 * delta_eps(x, 0.01), rtol=1e-14)
    np.testing.assert_allclose(f.values[1], 2.0 * delta_eps(x, 0.01), rtol=1e-14)


def test_classical_kernel_is_split_mollifier_pair():
    x = np.linspace(-4.0, 4.0, 2001)
    t = 2.0
    f = kernel_classical(x, [t], tau=0.1, epsilon=0.01)
    c = math.sqrt(2.0 / 1.1)
    want = 0.5 * (delta_eps(x - c * t, 0.01) + delta_eps(x + c * t, 0.01))
    np.testing.assert_allclose(f.values[0], want, atol=1e-14)
    # frozen pulse location: c*t at experiment tau
    assert c * t == pytest.approx(2.6967994498529685, abs=1e-12)
    peak = x[np.argmax(f.values[0] * (x > 0))]
    assert abs(peak - c * t) <= (x[1] - x[0])


def test_classical_kernel_early_time_is_single_mollifier():
    x = np.linspace(-1.0, 1.0, 401)
    f = kernel_classical(x, [1e-12], tau=0.1, epsilon=0.01)
    np.testing.assert_allclose(f.values[0], delta_eps(x, 0.01), rtol=1e-6)


def test_classical_kernel_accepts_equal_relaxation_times():
    # tau = 1 admitted here only; unit speed puts the pulses at +-t
    x = np.linspace(-3.0, 3.0, 1201)
    f = kernel_classical(x, [2.0], tau=1.0, epsilon=0.01)
    right = x[np.argmax(f.values[0] * (x > 0))]
    assert right == pytest.approx(2.0, abs=(x[1] - x[0]))


def test_classical_integrated_matches_erf_antiderivative():
    from scipy.special import erf

    x = np.linspace(-4.0, 4.0, 401)
    t, tau, eps = 1.5, 0.1, 0.01
    f = kernel_eps_time_integrated(x, [t], ModelParams(0.0, 1.0, tau, eps))
    c = math.sqrt(2.0 / (1.0 + tau))
    want = (erf((x + c * t) / eps) - erf((x - c * t) / eps)) / (4.0 * c)
    np.testing.assert_allclose(f.values[0], want, atol=1e-13)


def test_alpha0_field_integrated_consistency():
    """At alpha = 0 every mode is cos(w t); its exact integral is sin(w t)/w.

    Gauss-Legendre integration of the kernel rows over [0, t] must land on
    the dedicated integrated assembly.
    """
    x = np.array([-0.8, -0.2, 0.0, 0.2, 0.8])
    t = 1.0
    p = ModelParams(0.0, 0.45, 0.1)
    nodes, weights = np.polynomial.legendre.leggauss(96)
    tq = 0.5 * t * (nodes + 1.0)
    wq = 0.5 * t * weights
    rows = kernel_eps(x, np.sort(tq), p).values
    order = np.argsort(tq)
    quad = (wq[order][:, None] * rows).sum(axis=0)
    direct = kernel_eps_time_integrated(x, [t], p).values[0]
    np.testing.assert_allclose(direct, quad, atol=5e-6)


def test_general_field_integrated_consistency():
    # centered finite difference of the running integral reproduces the kernel
    x = np.array([-1.2, 1.2])
    h = 1e-3
    ip = kernel_eps_time_integrated(x, [1.0 + h], P_EXP).values[0]
    im = kernel_eps_time_integrated(x, [1.0 - h], P_EXP).values[0]
    k = kernel_eps(x, [1.0], P_EXP).values[0]
    np.testing.assert_allclose((ip - im) / (2.0 * h), k, atol=5e-3)


def test_field_rows_are_even_and_finite():
    x = np.linspace(-3.0, 3.0, 121)
    f = kernel_eps(x, [0.5, 1.0], P_EXP)
    assert f.values.shape == (2, 121)
    np.testing.assert_allclose(f.values, f.values[:, ::-1], atol=1e-12)
    assert np.all(np.isfinite(f.values))
    assert f.meta["model"]["beta"] == 0.45
    assert f.meta["quadrature"]["rho_max"] > 800.0


def test_time_fractional_mass_is_conserved():
    # compact support cone keeps the whole unit mass inside a finite window
    x = np.linspace(-4.0, 4.0, 3201)
    f = kernel_time_fractional(x, [0.5, 1.0], 0.25, 0.1, 0.01)
    for i in range(2):
        mass = np.trapezoid(f.values[i], x)
        assert mass == pytest.approx(1.0, abs=1e-5)


def test_fourier_field_mass_approaches_unity_with_window():
    # beta < 1 kernels carry an algebraic tail, so a finite window always
    # misses some mass; widening the window must recover it monotonically
    t = [0.5]
    small = kernel_eps(np.linspace(-6.0, 6.0, 1201), t, P_EXP)
    wide = kernel_eps(np.linspace(-12.0, 12.0, 2401), t, P_EXP)
    m_small = np.trapezoid(small.values[0], small.x_grid)
    m_wide = np.trapezoid(wide.values[0], wide.x_grid)
    assert m_small < m_wide < 1.0
    assert m_wide == pytest.approx(1.0, abs=5e-3)


def test_zero_pairs_are_found_once_per_field(monkeypatch):
    # stage 1 finds the zero pair of every rho node once, for all t rows;
    # spectral_kernel uses its certified scalar root and no batch
    calls = []
    batch = fzwave.kernel._zero_pair_batch

    def counted(*args):
        calls.append(args)
        return batch(*args)

    monkeypatch.setattr(fzwave.kernel, "_zero_pair_batch", counted)
    p = ModelParams(0.25, 0.45, 0.1, 0.1)
    kernel_eps(np.linspace(-0.5, 0.5, 11), [0.1, 0.2, 0.3, 0.4], p)
    assert len(calls) == 1
    calls.clear()
    spectral_kernel(1.0, 1.0, P_EXP)
    assert calls == []


# ------------------------------------------------------- time-fractional edge


def test_time_fractional_center_value_frozen():
    x = np.linspace(-4.0, 4.0, 161)
    f = kernel_time_fractional(x, [1.0], 0.25, 0.1, 0.01)
    assert f.values[0, 80] == pytest.approx(0.01886209588790408, rel=1e-6)


def test_time_fractional_vanishes_outside_cone():
    # support cone is |x| <= t/sqrt(tau) = 3.162...
    x = np.linspace(-4.0, 4.0, 161)
    f = kernel_time_fractional(x, [1.0], 0.25, 0.1, 0.01)
    outside = np.abs(x) > 3.5
    assert np.max(np.abs(f.values[0, outside])) == 0.0


def test_time_fractional_matches_fourier_route_pointwise():
    # beta -> 1 continuity across two unrelated representations, probed at x=1
    x = np.array([-1.0, 0.0, 1.0])
    v99 = kernel_eps(x, [1.0], ModelParams(0.25, 0.99, 0.1)).values[0, 2]
    vtf = kernel_time_fractional(x, [1.0], 0.25, 0.1, 0.01).values[0, 2]
    assert abs(v99 - vtf) <= 0.02 * abs(vtf)


def test_time_fractional_near_classical_at_small_alpha():
    x = np.linspace(-4.0, 4.0, 321)
    tf = kernel_time_fractional(x, [1.0], 1e-3, 0.1, 0.01)
    cl = kernel_classical(x, [1.0], 0.1, 0.01)
    gap = np.max(np.abs(tf.values - cl.values))
    assert gap <= 0.02 * np.max(cl.values)


def test_time_fractional_rejects_alpha_edges():
    with pytest.raises(ValidationError):
        kernel_time_fractional([0.0, 1.0], [1.0], 0.0, 0.1, 0.01)
    with pytest.raises(ValidationError):
        kernel_time_fractional([0.0, 1.0], [1.0], 1.0, 0.1, 0.01)


# ------------------------------------------------------------- configuration


def test_quadrature_config_validation():
    with pytest.raises(ValidationError):
        QuadratureConfig(rel_tol=1e-13)
    with pytest.raises(ValidationError):
        QuadratureConfig(panels_per_period=2)
    with pytest.raises(ValidationError):
        QuadratureConfig(rho_max=-1.0)


def test_for_model_saturates_mollifier_bound():
    q = QuadratureConfig.for_model(P_EXP)
    assert q.rho_max >= q.required_rho_max(P_EXP.epsilon)


def test_insufficient_rho_max_is_rejected():
    q = QuadratureConfig(rho_max=10.0)
    with pytest.raises(ValidationError):
        kernel_eps(np.linspace(-1.0, 1.0, 11), [1.0], P_EXP, q)


def test_field_shape_validation():
    with pytest.raises(ValidationError):
        Field(np.array([0.0, 1.0]), (1.0,), np.zeros((2, 2)), meta={})
    with pytest.raises(ValidationError):
        Field(np.array([1.0, 0.0]), (1.0,), np.zeros((1, 2)), meta={})
    with pytest.raises(ValidationError):
        Field(np.array([0.0, 1.0]), (-1.0,), np.zeros((1, 2)), meta={})

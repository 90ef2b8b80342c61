"""Tests for initial-data handling, the convolution solver, and peak metrics."""

import math

import numpy as np
import pytest

import fzwave.kernel
import fzwave.solver
from fzwave.errors import NumericsError, ValidationError
from fzwave.fracops import SampledSignal
from fzwave.kernel import (
    Field,
    delta_eps,
    kernel_classical,
    kernel_eps,
    kernel_eps_time_integrated,
)
from fzwave.params import ModelParams
from fzwave.solver import InitialData, nonprop_solution, peak_metrics, solve_field

P_EXP = ModelParams(alpha=0.25, beta=0.45, tau=0.1, epsilon=0.01)
P_FLAT = ModelParams(alpha=0.25, beta=0.0, tau=0.1, epsilon=0.01)
P_EDGE = ModelParams(alpha=0.0, beta=1.0, tau=0.1, epsilon=0.01)  # the classical pair
P_TF = ModelParams(alpha=0.25, beta=1.0, tau=0.1, epsilon=0.01)  # the time-fractional wave


# ------------------------------------------------------------- initial data


def test_initial_data_constructors():
    d = InitialData.dirac(center=0.5, height=2.0)
    assert d.kind == "dirac" and not d.is_zero
    g = InitialData.gaussian(width=0.3)
    assert g.evaluate(0.0) == 1.0
    b = InitialData.box(width=2.0, height=3.0)
    assert b.evaluate(0.99) == 3.0 and b.evaluate(1.01) == 0.0
    z = InitialData.zero()
    assert z.is_zero


def test_initial_data_validation():
    with pytest.raises(ValidationError):
        InitialData("ramp")
    with pytest.raises(ValidationError):
        InitialData.gaussian(width=0.0)
    with pytest.raises(ValidationError):
        InitialData.dirac(center=math.inf)
    with pytest.raises(ValidationError):
        InitialData.dirac().evaluate(np.array([0.0]))
    signal = SampledSignal(np.linspace(-1.0, 1.0, 5), np.zeros(5))
    with pytest.raises(ValidationError, match="none for dirac data"):
        InitialData("dirac", samples=signal)
    with pytest.raises(ValidationError, match="a SampledSignal for sampled data"):
        InitialData("sampled")


def test_sampled_data_interpolates_with_zero_extension():
    d = InitialData.sampled([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], height=2.0)
    assert d.evaluate(1.0) == 2.0
    assert d.evaluate(0.5) == 1.0
    assert d.evaluate(-3.0) == 0.0 and d.evaluate(5.0) == 0.0


# ------------------------------------------------------------------- solver


def test_dirac_source_reproduces_kernel_bitwise():
    x = np.linspace(-3.0, 3.0, 241)
    ts = [0.5, 1.0]
    sol = solve_field(InitialData.dirac(), InitialData.zero(), x, ts, P_EXP)
    ker = kernel_eps(x, ts, P_EXP)
    assert np.array_equal(sol.values, ker.values)


def test_dirac_translation_and_scaling():
    x = np.linspace(-3.0, 3.0, 121)
    ts = [1.0]
    sol = solve_field(
        InitialData.dirac(center=0.5, height=2.0), InitialData.zero(), x, ts, P_FLAT
    )
    np.testing.assert_array_equal(sol.values[0], 2.0 * delta_eps(x - 0.5, 0.01))


def test_gaussian_data_in_flat_regime_is_mollified_exactly():
    # beta = 0: u = delta_eps * u0; for a Gaussian the convolution is closed-form
    w = 0.4
    x = np.linspace(-4.0, 4.0, 401)
    sol = solve_field(
        InitialData.gaussian(width=w), InitialData.zero(), x, [1.0], P_FLAT
    )
    eps = P_FLAT.epsilon
    s2 = w * w + eps * eps
    want = (w / math.sqrt(s2)) * np.exp(-(x**2) / s2)
    np.testing.assert_allclose(sol.values[0], want, atol=5e-4)


def test_velocity_term_grows_linearly_in_flat_regime():
    x = np.linspace(-2.0, 2.0, 161)
    sol = solve_field(
        InitialData.zero(), InitialData.gaussian(width=0.5), x, [0.5, 1.0, 2.0], P_FLAT
    )
    np.testing.assert_allclose(sol.values[1], 2.0 * sol.values[0], rtol=1e-12)
    np.testing.assert_allclose(sol.values[2], 4.0 * sol.values[0], rtol=1e-12)


def test_velocity_term_conserves_mass_at_beta_one():
    # the beta = 1 kernel keeps unit mass in its cone, so v0 * int K holds t * int v0
    x, ts = np.linspace(-4.0, 4.0, 801), [0.5, 1.0]
    sol = solve_field(InitialData.zero(), InitialData.gaussian(width=0.3), x, ts,
                      ModelParams(alpha=0.25, beta=1.0, tau=0.1))
    for row, t in zip(sol.values, ts):
        assert np.trapezoid(row, x) == pytest.approx(t * 0.3 * math.sqrt(math.pi), abs=1e-5)


def test_solution_is_linear_in_the_data():
    x = np.linspace(-2.0, 2.0, 81)
    one = solve_field(
        InitialData.gaussian(width=0.5), InitialData.zero(), x, [1.0], P_EXP
    )
    two = solve_field(
        InitialData.gaussian(width=0.5, height=2.0), InitialData.zero(), x, [1.0], P_EXP
    )
    np.testing.assert_allclose(two.values, 2.0 * one.values, rtol=1e-12)


def test_sampled_profile_matches_analytic_profile():
    # the same Gaussian fed as samples: differences are interpolation-level
    w = 0.5
    grid = np.linspace(-6.0, 6.0, 1201)
    x = np.linspace(-2.0, 2.0, 81)
    analytic = solve_field(
        InitialData.gaussian(width=w), InitialData.zero(), x, [1.0], P_EXP
    )
    sampled = solve_field(
        InitialData.sampled(grid, np.exp(-((grid / w) ** 2))),
        InitialData.zero(),
        x,
        [1.0],
        P_EXP,
    )
    scale = np.max(np.abs(analytic.values))
    assert np.max(np.abs(sampled.values - analytic.values)) <= 5e-3 * scale


def test_superposition_of_dirac_and_gaussian():
    x = np.linspace(-2.0, 2.0, 161)
    ts = [1.0]
    both = solve_field(
        InitialData.dirac(), InitialData.gaussian(width=0.5), x, ts, P_EXP
    )
    u_only = solve_field(InitialData.dirac(), InitialData.zero(), x, ts, P_EXP)
    v_only = solve_field(
        InitialData.zero(), InitialData.gaussian(width=0.5), x, ts, P_EXP
    )
    np.testing.assert_allclose(
        both.values, u_only.values + v_only.values, rtol=0, atol=1e-12
    )


def _counted_batches(monkeypatch) -> list:
    sizes = []
    batch = fzwave.kernel._zero_pair_batch

    def counted(alpha, tau, theta):
        sizes.append(theta.size)
        return batch(alpha, tau, theta)

    monkeypatch.setattr(fzwave.kernel, "_zero_pair_batch", counted)
    return sizes


def test_same_support_data_share_one_zero_pair_batch(monkeypatch):
    # u0 and v0 with one plan key share the stage-1 plan and its zero pairs,
    # and each row runs one transform on their summed coefficients
    x = np.linspace(-0.5, 0.5, 21)
    ts = (0.5,)
    u0 = InitialData.gaussian(width=0.1)
    v0 = InitialData.gaussian(width=0.1, height=0.5)
    batches = _counted_batches(monkeypatch)
    sol = solve_field(u0, v0, x, ts, P_EXP)
    assert len(batches) == 1
    apart = (solve_field(u0, InitialData.zero(), x, ts, P_EXP).values
             + solve_field(InitialData.zero(), v0, x, ts, P_EXP).values)
    assert len(batches) == 3
    # one transform of a sum against the sum of two: equal up to rounding
    # (measured 0.25 ulp of the peak; 45 ulps allowed)
    peak = float(np.max(np.abs(apart)))
    assert np.max(np.abs(sol.values - apart)) <= 1e-14 * max(1.0, peak)
    # no plan outlives its call
    solve_field(u0, v0, x, ts, P_EXP)
    assert len(batches) == 4
    # a box v0 has another reach and rho_max, so another plan and another batch
    batches.clear()
    solve_field(u0, InitialData.box(width=0.2), x, ts, P_EXP)
    assert len(batches) == 2 and batches[0] != batches[1]


@pytest.mark.parametrize("center", [0.0, 0.2])
def test_dirac_data_at_one_centre_share_one_zero_pair_batch(monkeypatch, center):
    # a dirac u0 and v0 at one centre are the kernel and its time integral on
    # one shifted grid: one plan, one batch, one transform per row
    x = np.linspace(-0.5, 0.5, 21)
    ts = (0.25, 0.5)
    u0, v0 = InitialData.dirac(center), InitialData.dirac(center, 0.5)
    batches = _counted_batches(monkeypatch)
    sol = solve_field(u0, v0, x, ts, P_EXP)
    assert len(batches) == 1
    apart = (kernel_eps(x - center, ts, P_EXP).values
             + 0.5 * kernel_eps_time_integrated(x - center, ts, P_EXP).values)
    assert len(batches) == 3
    # measured 1.2 ulps of the peak
    peak = float(np.max(np.abs(apart)))
    assert np.max(np.abs(sol.values - apart)) <= 1e-14 * max(1.0, peak)
    # diracs at two centres need two plans
    batches.clear()
    solve_field(u0, InitialData.dirac(center + 0.1), x, ts, P_EXP)
    assert len(batches) == 2


def _signed_lattice_row(x, t, data, p, integrated):
    """Oracle: the trapezoid convolution with the kernel on every signed
    difference x_i - y_j, on a lattice that refines x to eps/4."""
    h = x[1] - x[0]
    target = min(h, 0.25 * p.epsilon)
    if data.kind == "sampled":
        target = min(target, float(np.min(np.diff(data.samples.grid))))
    fine = max(1, math.ceil(h / target - 1e-12))
    lo, hi = data._support()
    j0 = math.floor((lo - x[0]) / (h / fine)) - 1
    j1 = max(math.ceil((hi - x[0]) / (h / fine)) + 1, j0 + 2)
    w = np.full(j1 - j0 + 1, h / fine)
    w[[0, -1]] *= 0.5
    coeffs = (w * data.evaluate(x[0] + (h / fine) * np.arange(j0, j1 + 1)))[::-1]
    k = np.arange(-j1, (x.size - 1) * fine - j0 + 1)
    route = kernel_eps_time_integrated if integrated else kernel_eps
    kern = route((h / fine) * k, [t], p).values[0]
    return np.correlate(kern, coeffs, mode="valid")[::fine]


# ------------------------------------------------------ spectral assembly


SOLVE_DATA = (0.0, 0.1)  # centre and width of the benchmark's seed-0 data


@pytest.mark.parametrize("p, center, width", [
    pytest.param(P_EXP, *SOLVE_DATA, id="0.0-0.1"),
    pytest.param(P_EXP, 0.3, 0.1, id="0.3-0.1"),
    pytest.param(P_EXP, -0.45, 0.07, id="-0.45-0.07"),
    pytest.param(P_TF, 0.3, 0.1, id="beta1-0.3-0.1"),  # v0 takes the cut transform
])
def test_gaussian_data_match_the_lattice_oracle(p, center, width):
    # the spectral route against the x-space trapezoid convolution it replaces
    x = np.linspace(-1.0, 1.0, 41)
    u0 = InitialData.gaussian(center, width)
    v0 = InitialData.gaussian(center, width, 0.5)
    got = solve_field(u0, v0, x, [0.5], p).values[0]
    want = (_signed_lattice_row(x, 0.5, u0, p, False)
            + _signed_lattice_row(x, 0.5, v0, p, True))
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


def _box_oracle(x, t, center, width, p, route=kernel_eps):
    """int over the box of K_eps(x - y) dy (or of another route's kernel): 30
    panels of 16-point Gauss-Legendre."""
    g, gw = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(center - 0.5 * width, center + 0.5 * width, 31)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    y = (mid[:, None] + half[:, None] * g).ravel()
    wy = (half[:, None] * gw).ravel()
    d = np.abs(x[:, None] - y[None, :])
    points, back = np.unique(d, return_inverse=True)
    rows = route(points, [t], p).values[0][back].reshape(d.shape)
    return rows @ wy


@pytest.mark.parametrize("center", [0.0, 0.1])
def test_box_data_match_gauss_legendre_in_y(center):
    # a trapezoid sum over the box's jumps was first order: 5.5e-3 off at the centre
    x = np.array([-0.3, -0.15, 0.0, 0.15, 0.3])
    got = solve_field(InitialData.box(center, 0.3), InitialData.zero(), x, [0.5], P_EXP)
    want = _box_oracle(x, 0.5, center, 0.3, P_EXP)
    assert np.max(np.abs(got.values[0] - want)) <= 1e-8


@pytest.mark.parametrize("alpha, tau", [(0.25, 0.1), (0.6, 0.5)])
def test_box_velocity_at_beta_one_matches_gauss_legendre_in_y(alpha, tau):
    # the transform of the cut integral; the difference lattice's trapezoid
    # sum was first order across the jumps (3.2e-4 and 4.6e-4 off)
    p = ModelParams(alpha=alpha, beta=1.0, tau=tau, epsilon=0.01)
    x = np.linspace(-1.0, 1.0, 201)
    got = solve_field(InitialData.zero(), InitialData.box(0.1, 0.3), x, [0.5], p).values[0]
    want = _box_oracle(x, 0.5, 0.1, 0.3, p, kernel_eps_time_integrated)
    assert np.max(np.abs(got - want)) <= 1e-10 * float(np.max(np.abs(want)))


@pytest.mark.parametrize("nx", [48, 49])
def test_box_centred_at_zero_is_even(nx):
    x = np.linspace(-0.6, 0.6, nx)
    f = solve_field(InitialData.box(0.0, 0.3), InitialData.box(0.0, 0.3, 0.5), x,
                    [0.25, 0.5], P_EXP).values
    assert np.max(np.abs(f - f[:, ::-1])) <= 1e-12 * float(np.max(np.abs(f)))


def _gauss_legendre_transform(grid, values, rho):
    """int of the linear interpolant times e^{-i rho y}: 64 points per segment."""
    g, gw = np.polynomial.legendre.leggauss(64)
    a, b = grid[:-1, None], grid[1:, None]
    y = 0.5 * (a + b) + 0.5 * (b - a) * g
    line = values[:-1, None] + (values[1:, None] - values[:-1, None]) * (y - a) / (b - a)
    return np.sum(0.5 * (b - a) * gw * line * np.exp(-1j * rho * y))


@pytest.mark.parametrize("rho", [1e-6, 1e-2, 1.0, 100.0, 800.0])
def test_segment_transform_matches_gauss_legendre(rho):
    # rough data on a jittered grid, segments short enough (rho L <= 16) for
    # 64 Gauss points; |u^| <= int|u| sets the scale
    rng = np.random.default_rng(7)
    grid = np.linspace(-1.0, 1.0, 161) + rng.uniform(-0.3, 0.3, 161) * 0.0125
    values = rng.standard_normal(161)
    got = fzwave.solver._segment_transform(grid[:-1], grid[1:], values[:-1], values[1:],
                                           np.array([rho]))[0]
    want = _gauss_legendre_transform(grid, values, rho)
    mass = float(np.sum(0.5 * (np.abs(values[:-1]) + np.abs(values[1:])) * np.diff(grid)))
    assert abs(got - want) <= 1e-13 * mass


def _sample_grid(jitter: float, n: int = 121) -> np.ndarray:
    grid = np.linspace(-0.6, 0.6, n)
    shift = np.random.default_rng(5).uniform(-jitter, jitter, n - 2) * (grid[1] - grid[0])
    return grid + np.r_[0.0, shift, 0.0]


def _rough(n: int) -> np.ndarray:
    return np.r_[0.0, np.random.default_rng(6).standard_normal(n - 2), 0.0]


def _sampled_case(case: str):
    """Sample grid and values: smooth or rough (noise), on a uniform, jittered,
    fine jittered or clustered grid."""
    if case == "fine rough":  # slope jumps large enough for the Taylor sums to matter
        grid = _sample_grid(0.3, 601)
        return grid, _rough(601)
    if case == "clustered rough":  # 1e-6 steps among 0.01 ones: Taylor, segments, jumps
        grid = np.sort(np.r_[np.linspace(-0.6, 0.6, 121), 0.105 + 1e-6 * np.arange(1, 6)])
        return grid, _rough(126)
    shape, jitter = case.split()
    grid = _sample_grid({"uniform": 0.0, "jittered": 0.3}[jitter])
    if shape == "rough":
        return grid, _rough(121)
    return grid, np.exp(-np.square(grid / 0.1)) * np.cos(9.0 * grid)


@pytest.mark.parametrize("case", ["smooth uniform", "smooth jittered", "rough uniform",
                                  "rough jittered", "fine rough", "clustered rough"])
def test_sampled_transform_matches_the_segment_sum_at_every_node(case):
    grid, values = _sampled_case(case)
    plan = fzwave.kernel._stage1(np.linspace(-1.0, 1.0, 41), (0.5,), P_EXP, 0.6)
    got = fzwave.solver._sampled_transform(grid, values, plan)
    want = fzwave.solver._segment_transform(grid[:-1], grid[1:], values[:-1], values[1:],
                                            plan.rho)
    mass = 0.5 * np.sum(np.diff(grid) * (np.abs(values[:-1]) + np.abs(values[1:])))
    assert np.max(np.abs(got - want)) <= 1e-13 * mass


@pytest.mark.parametrize("case", ["rough uniform", "rough jittered", "fine rough"])
def test_sample_transform_spot_check_catches_a_wrong_sum(monkeypatch, case):
    # rough data keep |u^| up at every node, so a 1e-6 relative slip shows
    exact = fzwave.solver._scattered_sums
    monkeypatch.setattr(fzwave.solver, "_scattered_sums",
                        lambda *args: exact(*args) * (1.0 + 1e-6))
    data = InitialData.sampled(*_sampled_case(case))
    with pytest.raises(NumericsError, match="sample transform"):
        solve_field(data, InitialData.zero(), np.linspace(-1.0, 1.0, 41), [0.5], P_EXP)


@pytest.mark.parametrize("center, width", [SOLVE_DATA, (0.3, 0.1)])
def test_gaussian_rho_cut_is_converged(monkeypatch, center, width):
    x = np.linspace(-1.0, 1.0, 41)
    u0 = InitialData.gaussian(center, width)
    v0 = InitialData.gaussian(center, width, 0.5)
    cut = solve_field(u0, v0, x, [0.5], P_EXP)
    key = fzwave.solver._plan_key

    def wider(data, p):
        kind, c, reach, rho_cut = key(data, p)
        return kind, c, reach, 1.5 * rho_cut

    monkeypatch.setattr(fzwave.solver, "_plan_key", wider)
    wide = solve_field(u0, v0, x, [0.5], P_EXP)
    assert wide.meta["assembly"]["u0"]["rho_max"] >= 1.49 * cut.meta["assembly"]["u0"]["rho_max"]
    assert np.max(np.abs(wide.values - cut.values)) <= 1e-2 * fzwave.kernel._ABS_TOL


def test_meta_records_each_datums_assembly():
    x = np.linspace(-1.0, 1.0, 41)
    rho_max = fzwave.kernel._rho_max(P_EXP.epsilon)
    u0 = InitialData.gaussian(*SOLVE_DATA)
    seed0 = solve_field(u0, InitialData.gaussian(*SOLVE_DATA, 0.5), x, [0.5], P_EXP).meta
    assert seed0["assembly"]["u0"] == seed0["assembly"]["v0"]
    assert seed0["assembly"]["u0"]["route"] == "fourier"
    assert seed0["assembly"]["u0"]["rho_nodes"] <= 3000  # 24,984 on the full range
    assert seed0["assembly"]["u0"]["rho_max"] < 0.11 * rho_max
    boxed = solve_field(InitialData.dirac(), InitialData.box(width=0.2), x, [0.5], P_EXP).meta
    assert boxed["assembly"]["u0"] == {"route": "kernel"}
    assert boxed["assembly"]["v0"]["route"] == "fourier"
    assert boxed["assembly"]["v0"]["rho_max"] == rho_max
    flat = solve_field(u0, InitialData.zero(), x, [0.5], P_FLAT).meta
    assert flat["assembly"]["u0"]["route"] == "fourier"
    assert flat["assembly"]["v0"] == {"route": "zero"}
    # distributed v0 at beta = 1, alpha > 0 takes the spectral sum too; a
    # dirac v0 there is the cut integral itself
    cut = solve_field(u0, InitialData.box(width=0.2), x, [0.5], P_TF).meta
    assert cut["assembly"]["u0"]["route"] == "fourier"
    assert cut["assembly"]["v0"]["route"] == "fourier"
    assert cut["assembly"]["v0"]["rho_max"] == rho_max
    point = solve_field(u0, InitialData.dirac(), x, [0.5], P_TF).meta
    assert point["assembly"]["v0"] == {"route": "kernel"}
    classical = solve_field(InitialData.dirac(), u0, x, [0.5], P_EDGE).meta
    assert classical["assembly"]["u0"] == {"route": "kernel"}
    assert classical["assembly"]["v0"]["route"] == "fourier"


def test_fourier_route_takes_a_non_uniform_grid():
    # the factored sum serves grids the chirp-z transform cannot
    uniform = np.linspace(-0.8, 0.8, 9)
    sparse = uniform[[0, 3, 4, 5, 8]]
    u0, v0 = InitialData.gaussian(0.1, 0.1), InitialData.box(-0.2, 0.3)
    full = solve_field(u0, v0, uniform, [0.5], P_EXP).values
    got = solve_field(u0, v0, sparse, [0.5], P_EXP).values
    np.testing.assert_allclose(got, full[:, [0, 3, 4, 5, 8]], rtol=0.0, atol=1e-12)


def _mollified_box(x, center, width, height, eps):
    """A box convolved with delta_eps: h/2 [erf((x - a)/eps) - erf((x - b)/eps)]."""
    erf = np.vectorize(math.erf)
    a, b = center - 0.5 * width, center + 0.5 * width
    return 0.5 * height * (erf((x - a) / eps) - erf((x - b) / eps))


def test_box_at_beta_zero_is_the_mollified_box():
    # S = 1: the field is the box under the mollifier at every t (the lattice was 7e-2 off)
    x = np.linspace(-1.0, 1.0, 201)
    got = solve_field(InitialData.box(0.1, 0.5, 2.0), InitialData.zero(), x, [0.5, 2.0], P_FLAT)
    want = _mollified_box(x, 0.1, 0.5, 2.0, P_FLAT.epsilon)
    assert np.max(np.abs(got.values - want)) <= 1e-9 * 2.0


def test_box_at_the_classical_pair_is_dalembert():
    # u = (b(x - ct) + b(x + ct))/2 with b the mollified box (the lattice was 6.1e-2 off)
    x, t = np.linspace(-1.0, 1.0, 201), 0.5
    c = math.sqrt(2.0 / (1.0 + P_EDGE.tau))
    got = solve_field(InitialData.box(0.0, 0.4), InitialData.zero(), x, [t], P_EDGE).values[0]
    want = 0.5 * (_mollified_box(x - c * t, 0.0, 0.4, 1.0, P_EDGE.epsilon)
                  + _mollified_box(x + c * t, 0.0, 0.4, 1.0, P_EDGE.epsilon))
    assert np.max(np.abs(got - want)) <= 1e-9 * float(np.max(want))


def test_gaussian_keeps_its_mass_at_beta_one_early():
    # the cut route's K kept 0.2467 of it at t = 0.02
    x, w = np.linspace(-1.0, 1.0, 801), 0.05
    p = ModelParams(alpha=0.6, beta=1.0, tau=0.5)
    sol = solve_field(InitialData.gaussian(0.0, w), InitialData.zero(), x, [0.02], p)
    assert np.trapezoid(sol.values[0], x) == pytest.approx(w * math.sqrt(math.pi), rel=1e-4)


@pytest.mark.parametrize("p, u0, v0", [
    (P_FLAT, InitialData.gaussian(0.1, 0.1), InitialData.box(-0.2, 0.3)),
    (P_EDGE, InitialData.gaussian(0.1, 0.1), InitialData.box(-0.2, 0.3)),
    (P_TF, InitialData.box(-0.2, 0.3), InitialData.zero()),
    (P_TF, InitialData.gaussian(0.1, 0.1), InitialData.box(-0.2, 0.3)),
    (P_TF, InitialData.gaussian(0.1, 0.1), InitialData.dirac()),
], ids=["beta0", "classical", "beta1", "beta1-v0", "beta1-dirac-v0"])
def test_spectral_sum_takes_a_non_uniform_grid_at_the_edges(p, u0, v0):
    uniform = np.linspace(-0.8, 0.8, 9)
    full = solve_field(u0, v0, uniform, [0.5], p).values
    got = solve_field(u0, v0, uniform[[0, 3, 4, 5, 8]], [0.5], p).values
    np.testing.assert_allclose(got, full[:, [0, 3, 4, 5, 8]], rtol=0.0, atol=1e-12)


def test_beta_zero_velocity_term_is_linear_at_a_late_time():
    # S needs no rho nodes for t: t = 1e4 takes the panels of t = 1
    x = np.linspace(-1.0, 1.0, 101)
    v0 = InitialData.box(0.0, 0.5)
    late = solve_field(InitialData.zero(), v0, x, [1e4], P_FLAT)
    early = solve_field(InitialData.zero(), v0, x, [1.0], P_FLAT)
    assert late.meta["assembly"]["v0"]["route"] == "fourier"
    assert late.meta["assembly"] == early.meta["assembly"]
    peak = float(np.max(np.abs(late.values)))
    assert np.max(np.abs(late.values - 1e4 * early.values)) <= 1e-12 * peak


def test_theta_underflow_at_the_first_nodes_is_refused():
    # a 1e300-wide Gaussian cuts the panels near rho = 1e-300, where theta(rho)
    # underflows to 0 and log theta, the tables' variable, does not exist
    with pytest.raises(NumericsError):
        solve_field(InitialData.gaussian(width=1e300), InitialData.zero(), [0.0, 0.5], [0.5],
                    P_EXP)


def test_wide_velocity_at_beta_one_reads_no_log_theta():
    # its theta = rho^2 underflows too, but only a table would read log theta: the
    # time integral at beta = 1 takes the cut samples, and a datum that is 1 on
    # every scale the field sees moves the whole line by t
    f = solve_field(InitialData.zero(), InitialData.gaussian(width=1e300), [-0.5, 0.0, 0.5],
                    [0.5], P_TF)
    np.testing.assert_allclose(f.values, 0.5, rtol=1e-6)


def test_sampled_data_must_vanish_at_its_edges():
    grid = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(ValidationError):
        solve_field(
            InitialData.sampled(grid, np.cos(grid)),  # cos(1) ~ 0.54 at the edge
            InitialData.zero(),
            np.linspace(-2.0, 2.0, 41),
            [1.0],
            P_FLAT,
        )


def test_solver_requires_initial_data_instances():
    with pytest.raises(ValidationError):
        solve_field(None, InitialData.zero(), np.linspace(-1, 1, 11), [1.0], P_EXP)
    with pytest.raises(ValidationError) as exc:
        nonprop_solution(None, InitialData.zero(), np.linspace(-1, 1, 11), [1.0])
    assert exc.value.field == "u0/v0"


def test_meta_records_the_initial_data():
    x = np.linspace(-1.0, 1.0, 21)
    sol = solve_field(
        InitialData.dirac(height=3.0), InitialData.gaussian(width=0.2), x, [1.0], P_FLAT
    )
    assert sol.meta["initial"]["u0"]["kind"] == "dirac"
    assert sol.meta["initial"]["u0"]["height"] == 3.0
    assert sol.meta["initial"]["v0"]["kind"] == "gaussian"


# ------------------------------------------------------- nonprop closed form


def test_nonprop_dirac_center_value():
    x = np.linspace(-1.0, 1.0, 201)
    f = nonprop_solution(InitialData.dirac(), InitialData.zero(), x, [1.0, 2.0])
    center = 1.0 / (0.01 * math.sqrt(math.pi))
    assert f.values[0, 100] == pytest.approx(center, rel=1e-14)
    np.testing.assert_array_equal(f.values[0], f.values[1])  # static without v0


def test_nonprop_velocity_tilts_linearly():
    x = np.linspace(-1.0, 1.0, 51)
    f = nonprop_solution(
        InitialData.gaussian(width=0.3), InitialData.gaussian(width=0.3), x, [0.5, 1.5]
    )
    g = np.exp(-((x / 0.3) ** 2))
    np.testing.assert_allclose(f.values[0], 1.5 * g, rtol=1e-14)
    np.testing.assert_allclose(f.values[1], 2.5 * g, rtol=1e-14)


def test_nonprop_agrees_with_full_solver_at_beta_zero():
    x = np.linspace(-2.0, 2.0, 161)
    closed = nonprop_solution(InitialData.dirac(), InitialData.zero(), x, [1.0])
    solved = solve_field(InitialData.dirac(), InitialData.zero(), x, [1.0], P_FLAT)
    np.testing.assert_allclose(solved.values, closed.values, rtol=1e-12)


# --------------------------------------------------------------- peak metrics


def test_peak_metrics_on_classical_pulses():
    x = np.linspace(-4.0, 4.0, 2001)
    f = kernel_classical(x, [1.0], tau=0.1, epsilon=0.01)
    peaks = peak_metrics(f, 0)
    assert len(peaks) == 1
    loc, height = peaks[0]
    assert loc == pytest.approx(math.sqrt(2.0 / 1.1), abs=x[1] - x[0])
    # sampled up to half a grid step off the crest, so allow the sub-grid droop
    assert height == pytest.approx(0.5 / (0.01 * math.sqrt(math.pi)), rel=5e-3)


def test_peak_metrics_center_peak():
    x = np.linspace(-1.0, 1.0, 201)
    f = nonprop_solution(InitialData.dirac(), InitialData.zero(), x, [1.0])
    peaks = peak_metrics(f, 0)
    assert peaks[0][0] == 0.0
    assert peaks[0][1] == pytest.approx(1.0 / (0.01 * math.sqrt(math.pi)), rel=1e-14)


def test_peak_metrics_counts_experiment_ripples():
    x = np.linspace(-4.0, 4.0, 801)
    f = kernel_eps(x, [1.0], P_EXP)
    peaks = peak_metrics(f, 0)
    assert len(peaks) >= 2  # central bump plus at least one outrunning lobe


def test_peak_metrics_validation():
    x = np.linspace(-1.0, 1.0, 41)
    f = nonprop_solution(InitialData.dirac(), InitialData.zero(), x, [1.0])
    with pytest.raises(ValidationError):
        peak_metrics(f, 1)
    with pytest.raises(ValidationError):
        peak_metrics(f, "0")
    asym = Field(
        np.linspace(0.0, 2.0, 11), (1.0,), np.ones((1, 11)), meta={}
    )
    with pytest.raises(ValidationError):
        peak_metrics(asym, 0)
    with pytest.raises(ValidationError) as exc:
        peak_metrics(f.values, 0)
    assert exc.value.field == "f"
    short = Field(np.array([-1.0, 0.0, 1.0]), (1.0,), np.ones((1, 3)), meta={})
    with pytest.raises(ValidationError, match="at least 3 points with x >= 0"):
        peak_metrics(short, 0)

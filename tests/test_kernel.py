"""Tests for the spectral kernel, its Laplace transform, and field assembly.

The frozen spectral values below were produced by this package's
residue-plus-cut evaluation and independently confirmed against a regularized
Bromwich-contour inversion (two unrelated routes agreeing to ~1e-10); they
are pinned at 1e-8 so incidental quadrature retuning does not move them.
"""

import cmath
import functools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fzwave._quad
import fzwave.cli
import fzwave.kernel
import fzwave.rootfinder
from fzwave.charfun import CharParams, _psi_prime, branch_values, theta_of_rho, zener_ratio
from fzwave.errors import NumericsError, ValidationError
from fzwave.fracops import (
    SampledSignal,
    caputo_derivative,
    l_operator_apply,
    symmetrized_derivative,
)
from fzwave.kernel import (
    _CHUNK,
    Field,
    delta_eps,
    kernel_classical,
    kernel_eps,
    kernel_eps_time_integrated,
    kernel_time_fractional,
    laplace_kernel_hat,
    spectral_kernel,
    spectral_kernel_alpha0,
)
from fzwave.laplace_oracle import bromwich_invert
from fzwave.params import ModelParams
from fzwave.rootfinder import find_zero_pair
from fzwave.solver import InitialData, nonprop_solution, solve_field
from fzwave.specfun import e_alpha, e_alpha_prime, mittag_leffler

P_EXP = ModelParams(alpha=0.25, beta=0.45, tau=0.1, epsilon=0.01)
ABS_TOL, REL_TOL = fzwave.kernel._ABS_TOL, fzwave.kernel._REL_TOL


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


@pytest.mark.filterwarnings("ignore:characteristic zero hugs the imaginary axis")
def test_residue_terms_are_conjugate_symmetric_bit_for_bit():
    # spectral_kernel sums the pole pair as 2 Re[s e^{st}/psi'(s)]: exact only if
    # the conjugate zero's psi' and e^{st} are the conjugates, to the last bit,
    # of the zero's own (criterion 2's draws)
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        p = CharParams(
            alpha=float(rng.uniform(0.0, 0.95)),
            tau=float(rng.uniform(0.05, 0.95)),
            theta=float(10.0 ** rng.uniform(-2.0, 3.0)),
        )
        s = find_zero_pair(p).s_z
        dpsi = complex(_psi_prime(s, p.alpha, p.tau, p.theta))
        assert complex(_psi_prime(s.conjugate(), p.alpha, p.tau, p.theta)) == dpsi.conjugate()
        for t in (0.1, 1.0, 7.3):
            assert cmath.exp(s.conjugate() * t) == cmath.exp(s * t).conjugate()


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
    # at alpha = 0 the signal is the closed form cos(omega t): no zeros to find
    kernel_eps(np.linspace(-0.5, 0.5, 11), [0.1, 0.2], ModelParams(0.0, 0.45, 0.1, 0.1))
    assert calls == []


# ------------------------------------------------------ Chebyshev branch table

TABLE_SETTINGS = [(0.25, 0.45, 0.1), (0.6, 0.8, 0.1), (0.9, 0.45, 0.9),
                  (0.5, 0.3, 0.5), (0.1, 0.9, 0.2), (0.9, 0.9, 0.9)]


def _field_nodes(p: ModelParams, t: float):
    """theta at the rho nodes of a 41-point field on [-1, 1], and its table budget."""
    x = np.linspace(-1.0, 1.0, 41)
    scale = fzwave.kernel._freq_scale(x, (t,), p.beta, p.tau)
    delta, n_panels, _ = fzwave.kernel._panel_lattice(scale, fzwave.kernel._rho_max(p.epsilon))
    rho, wts = fzwave.kernel._gauss_panels(delta, n_panels)
    damp = np.exp(-np.square(p.epsilon * rho) / 4.0)
    budget = 1e-2 * ABS_TOL * math.pi / float(np.sum(wts * damp))
    return fzwave.kernel.theta_of_rho(rho, p.beta), budget


@pytest.mark.parametrize("integrated", [False, True])
@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("alpha, beta, tau", TABLE_SETTINGS)
def test_branch_table_matches_per_node_branch_part(alpha, beta, tau, t, integrated):
    p = ModelParams(alpha, beta, tau, 0.02)
    theta, budget = _field_nodes(p, t)
    plan = fzwave.kernel._stage1(np.linspace(-1.0, 1.0, 41), (t,), p)
    np.testing.assert_array_equal(plan.theta, theta)
    (signal,), = fzwave.kernel._spectral_signal(plan, p, (integrated,), (t,))
    s_z, psi_p = fzwave.kernel._zero_pair_batch(alpha, tau, theta)
    if integrated:
        residue = 2.0 * np.real((np.exp(s_z * t) - 1.0) / psi_p)
    else:
        residue = 2.0 * np.real(s_z * np.exp(s_z * t) / psi_p)
    # the extreme nodes set the integration panels, so every chunk carries them
    ends = theta[[0, -1]]
    per_node = np.concatenate([
        fzwave.kernel._branch_part(np.r_[ends, theta[i : i + 1024]], t, alpha, tau,
                                   (integrated,))[0, 2:]
        for i in range(0, theta.size, 1024)
    ])
    assert np.max(np.abs(signal - residue - per_node)) <= budget


def _per_mode_branch(theta, t, alpha, tau, integrated, u_end):
    """One mode's branch part from its own adaptive pass, its own first panel
    width, out to u_end."""
    span = fzwave.kernel._branch_span(float(theta[-1]), t, alpha, tau, integrated)
    first = max(min(0.05, min(1.0, t * math.sqrt(theta[0])) / 8.0, span / 64.0), 1e-12)

    def f(u):
        qq = u / t
        fp = fzwave.kernel.branch_values(qq, alpha, tau)[0]
        a, b = np.square(qq)[:, None] + np.outer(fp.real, theta), np.outer(fp.imag, theta)
        weight = -np.expm1(-u) if integrated else qq * np.exp(-u) / t  # q t (1 - e^-u)/u
        return -b / (a * a + b * b) / math.pi * weight[:, None]

    edges = fzwave._quad.geometric_edges(0.0, u_end, first, ratio=1.7)
    return fzwave._quad.adaptive_gk(f, edges, REL_TOL, ABS_TOL)[0]


@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("alpha, beta, tau", TABLE_SETTINGS)
def test_fused_branch_modes_match_per_mode_passes(alpha, beta, tau, t):
    # K and its time integral share one pass that ends with the wider of the
    # two; stopping the time integral at its own, narrower span where K's is
    # wider drops a tail of up to 1.8e-8 at (0.9, 0.45, 0.9), t = 2, so the
    # per-mode passes run to the shared end too
    theta, _ = _field_nodes(ModelParams(alpha, beta, tau, 0.02), t)
    theta = np.geomspace(theta[0], theta[-1], 65)
    u_end = max(fzwave.kernel._branch_span(theta[-1], t, alpha, tau, integrated)
                for integrated in (False, True))
    fused = fzwave.kernel._branch_part(theta, t, alpha, tau, (False, True))
    for integrated, got in zip((False, True), fused):
        want = _per_mode_branch(theta, t, alpha, tau, integrated, u_end)
        assert np.all(np.abs(got - want) <= np.maximum(ABS_TOL, REL_TOL * np.abs(want)))


def _branch_panels(monkeypatch) -> list:
    """Per _branch_part call, the panel count of each _quad._panel_rule call it makes."""
    calls, inside = [], []
    rule, branch = fzwave._quad._panel_rule, fzwave.kernel._branch_part

    def counted_rule(f, lo, hi):
        if inside:
            calls[-1].append(lo.size)
        return rule(f, lo, hi)

    def counted_branch(*args):
        calls.append([])
        inside.append(True)
        try:
            return branch(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(fzwave._quad, "_panel_rule", counted_rule)
    monkeypatch.setattr(fzwave.kernel, "_branch_part", counted_branch)
    return calls


def test_branch_passes_start_from_panels_the_kronrod_rule_resolves(monkeypatch):
    # panels of ratio 2.5 need no bisection on either benchmark input: the
    # solve_data pass takes 16 panels (27 at ratio 1.7), process A of the
    # cli_export benchmark 16 + 16 + 15 + 15 over its four rows (99 at 1.7)
    calls = _branch_panels(monkeypatch)
    solve_field(*_solve_data_input())
    assert calls == [[16]]
    calls.clear()
    kernel_eps(np.linspace(-1.0, 1.0, 201), (0.25, 0.5, 0.75, 1.0), P_EXP)
    assert calls == [[16], [16], [15], [15]]


@pytest.mark.parametrize("integrated", [False, True])
@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("alpha, beta, tau", TABLE_SETTINGS)
def test_branch_part_does_not_depend_on_the_panel_ratio(alpha, beta, tau, t, integrated,
                                                        monkeypatch):
    # a grid of ratio 1.7, on whose panels K15 is exact to ~6e-21, moves no
    # value by more than rounding (6.1e-15 at (0.9, 0.9, 0.9), t = 2)
    theta, _ = _field_nodes(ModelParams(alpha, beta, tau, 0.02), t)
    theta = np.geomspace(theta[0], theta[-1], 65)
    got = fzwave.kernel._branch_part(theta, t, alpha, tau, (integrated,))
    edges = fzwave._quad.geometric_edges
    monkeypatch.setattr(fzwave.kernel, "geometric_edges",
                        lambda lo, hi, first, ratio: edges(lo, hi, first, 1.7))
    want = fzwave.kernel._branch_part(theta, t, alpha, tau, (integrated,))
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_branch_table_doubles_when_its_tail_is_too_large():
    # the last table sampled is the accepted one; the kept head may be shorter
    sampled = {}
    for alpha, tau in ((0.25, 0.1), (0.9, 0.9)):
        p = ModelParams(alpha, 0.45, tau, 0.01)
        theta, budget = _field_nodes(p, 0.5)

        def branch(th):
            sampled[alpha] = th.size
            return fzwave.kernel._branch_part(th, 0.5, alpha, tau)[0]

        fzwave.kernel.log_cheb_table(branch, theta[0], theta[-1], budget, "branch table")
    assert sampled == {0.25: 65, 0.9: 129}


def _chopped_and_full(f, lo, hi, budget, what):
    """The coefficients log_cheb_table returns, and the full series through its
    last samples as a numpy Chebyshev in log theta."""
    samples = []

    def recorded(th):
        samples.append(f(th))
        return samples[-1]

    table = fzwave._quad.log_cheb_table(recorded, lo, hi, budget, what)
    assert isinstance(table, np.ndarray) and table.ndim == 1
    full = np.polynomial.Chebyshev(fzwave._quad._cheb_coeffs(samples[-1]),
                                   domain=[math.log(lo), math.log(hi)])
    return table, full


def _assert_shortest_head_within_budget(table, full, budget):
    """table is the shortest head of full whose dropped part fits budget - tail."""
    c = full.coef
    n = c.size - 1
    room = budget - np.sum(np.abs(c[-(n // 8):]))
    keep = table.size
    np.testing.assert_array_equal(table, c[:keep])
    assert keep == 1 or np.sum(np.abs(c[keep - 1:])) > room
    u = np.linspace(*full.domain, 2001)
    head = np.polynomial.Chebyshev(table, domain=full.domain)
    assert np.max(np.abs(head(u) - full(u))) <= room


@pytest.mark.parametrize("alpha, beta, tau", TABLE_SETTINGS)
def test_chopped_branch_table_stays_within_budget(alpha, beta, tau):
    p = ModelParams(alpha, beta, tau, 0.02)
    theta, budget = _field_nodes(p, 0.5)
    table, full = _chopped_and_full(
        lambda th: fzwave.kernel._branch_part(th, 0.5, alpha, tau, (True,))[0],
        theta[0], theta[-1], budget, "branch table",
    )
    assert table.size < full.coef.size
    _assert_shortest_head_within_budget(table, full, budget)


def test_root_table_is_chopped_to_its_budget(monkeypatch):
    # s/sqrt(theta) is smooth enough in log theta that about a dozen of the
    # 65 coefficients already meet the 1e-8 budget at the paper's model
    tables = []

    def recorded(f, lo, hi, budget, what):
        tables.append((*_chopped_and_full(f, lo, hi, budget, what), budget))
        return tables[-1][0]

    monkeypatch.setattr(fzwave.rootfinder, "log_cheb_table", recorded)
    theta, _ = _field_nodes(P_EXP, 0.5)
    fzwave.rootfinder._zero_pair_batch(P_EXP.alpha, P_EXP.tau, theta)
    [(table, full, budget)] = tables
    assert table.size <= 16
    _assert_shortest_head_within_budget(table, full, budget)


def _solve_data_input():
    """The solve_data benchmark's seed-0 input: Gaussian u0 and v0 on 41 x, t = 0.5."""
    u0, v0 = InitialData.gaussian(0.0, 0.1), InitialData.gaussian(0.0, 0.1, 0.5)
    return u0, v0, np.linspace(-1.0, 1.0, 41), (0.5,), P_EXP


def test_zero_pairs_are_built_only_for_tables_that_read_them(monkeypatch):
    # a box v0 at beta = 1 takes the cut integral's transform, which reads no zeros
    calls = []
    batch = fzwave.kernel._zero_pair_batch

    def counted(alpha, tau, theta):
        calls.append(theta.size)
        return batch(alpha, tau, theta)

    monkeypatch.setattr(fzwave.kernel, "_zero_pair_batch", counted)
    solve_field(InitialData.zero(), InitialData.box(0.0, 0.3), np.linspace(-1.0, 1.0, 201),
                (0.5,), ModelParams(0.25, 1.0, 0.1))
    assert calls == []
    solve_field(*_solve_data_input())
    assert len(calls) == 1


def test_eval_tables_matches_chebyshev_call(monkeypatch):
    # 28,848 nodes of kernel_eps on 201 x by 4 t cross the block edge 7 times;
    # real branch tables of two lengths, the complex root table, both mixed,
    # three real tables, and one real table, which the product pads with a
    # zero row; products of at most 256 multiply-adds split the rows into
    # blocks of 2, zero-padding the three, and the nodes into many
    plan = fzwave.kernel._stage1(np.linspace(-1.0, 1.0, 201), (0.25, 0.5, 0.75, 1.0), P_EXP)
    theta = plan.theta
    assert theta.size > 7 * fzwave._quad._EVAL_BLOCK
    lo, hi = float(theta[0]), float(theta[-1])
    branch = fzwave._quad.log_cheb_table(
        lambda th: fzwave.kernel._branch_part(th, 0.5, P_EXP.alpha, P_EXP.tau,
                                              (False, True)).T,
        lo, hi, plan.budget, "branch table")
    roots = fzwave._quad.log_cheb_table(
        lambda th: fzwave.rootfinder._damped_newton(P_EXP.alpha, P_EXP.tau, th) / np.sqrt(th),
        lo, hi, 1e-8, "zero-pair table")
    assert branch[0].size != branch[1].size and np.iscomplexobj(roots)
    u = np.log(theta)
    for serial_mnk in (fzwave._quad._SERIAL_MNK, 256):
        monkeypatch.setattr(fzwave._quad, "_SERIAL_MNK", serial_mnk)
        for tables in (branch, [roots], [branch[0], roots, branch[1]], [*branch, branch[0]],
                       [branch[0]]):
            got = fzwave._quad.eval_tables(tables, u, lo, hi)
            assert got.shape == (len(tables), u.size)
            for row, table in zip(got, tables):
                oracle = np.polynomial.Chebyshev(table, domain=[math.log(lo), math.log(hi)])
                assert np.max(np.abs(row - oracle(u))) <= 1e-14 * np.sum(np.abs(table))


def test_every_blas_product_runs_in_serial_blocks(monkeypatch):
    # every 2-d product that _quad._serial_product hands to BLAS is at least
    # 2 x 2 and at most _SERIAL_MNK multiply-adds, so BLAS keeps it on one
    # thread: process A of the cli_export benchmark (201 x by 4 t, factored),
    # a 1,201-sample u0 and a dirac v0 at beta = 1 (the scattered sums), a
    # 3,001-point non-uniform kernel, and a read of one real table
    shapes, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    x, ts = np.linspace(-1.0, 1.0, 401), (0.25, 0.5, 1.0)
    y = np.linspace(-0.6, 0.6, 1201)
    u = (1.0 - (y / 0.6) ** 2) ** 2 * (1.0 + 0.1 * np.random.default_rng(0).standard_normal(y.size))
    plan = fzwave.kernel._stage1(np.linspace(-1.0, 1.0, 201), (0.25,), P_EXP)
    lo, hi = float(plan.theta[0]), float(plan.theta[-1])
    single = fzwave._quad.log_cheb_table(
        lambda th: fzwave.kernel._branch_part(th, 0.25, P_EXP.alpha, P_EXP.tau, (False,)).T,
        lo, hi, plan.budget, "branch table")
    assert len(single) == 1 and not np.iscomplexobj(single[0])
    runs = [
        lambda: kernel_eps(np.linspace(-1.0, 1.0, 201), (0.25, 0.5, 0.75, 1.0), P_EXP),
        lambda: solve_field(InitialData.sampled(y, u), InitialData.zero(), x, ts, P_EXP),
        lambda: solve_field(InitialData.zero(), InitialData.dirac(), x, ts,
                            ModelParams(0.25, 1.0, 0.1)),
        lambda: kernel_eps(np.sort(np.random.default_rng(1).uniform(-1.0, 1.0, 3001)), (0.5,),
                           P_EXP),
        lambda: fzwave._quad.eval_tables(single, np.log(plan.theta), lo, hi),
    ]
    for run in runs:
        shapes.clear()
        run()
        assert shapes
        for a, b in shapes:
            assert len(a) >= 2 and len(b) >= 2  # a 1-d operand goes to gemv
            (m, k), n = a[-2:], b[-1]
            assert m >= 2 and n >= 2 and m * n * k <= fzwave._quad._SERIAL_MNK


def _counted_table_reads(monkeypatch) -> list:
    """The number of tables each of stage 1's _quad.eval_tables calls reads."""
    calls = []
    read = fzwave.kernel.eval_tables

    def counted(tables, *args):
        calls.append(len(tables))
        return read(tables, *args)

    monkeypatch.setattr(fzwave.kernel, "eval_tables", counted)
    return calls


def test_stage1_reads_the_tables_of_all_rows_in_one_call(monkeypatch):
    # process A of the cli_export benchmark: one read of 4 rows' tables; and
    # u0 with v0, both modes of each of 3 rows in one read
    calls = _counted_table_reads(monkeypatch)
    kernel_eps(np.linspace(-1.0, 1.0, 201), (0.25, 0.5, 0.75, 1.0), P_EXP)
    assert calls == [4]
    u0, v0, x, _, p = _solve_data_input()
    solve_field(u0, v0, x, (0.25, 0.5, 1.0), p)
    assert calls == [4, 6]


def test_stage1_groups_rows_within_its_value_budget(monkeypatch):
    # 28,848 nodes: a budget of 2.5 rows' values reads the 4 rows as 2 + 2,
    # then one row at a time, and every grouping gives the same bits
    x, ts = np.linspace(-1.0, 1.0, 201), (0.25, 0.5, 0.75, 1.0)
    calls = _counted_table_reads(monkeypatch)
    grouped = kernel_eps(x, ts, P_EXP).values
    monkeypatch.setattr(fzwave.kernel, "_GROUP_VALUES", 5 * 28_848 // 2)
    pairs = kernel_eps(x, ts, P_EXP).values
    monkeypatch.setattr(fzwave.kernel, "_GROUP_VALUES", 1)
    rows = kernel_eps(x, ts, P_EXP).values
    assert calls == [4, 2, 2, 1, 1, 1, 1]
    np.testing.assert_array_equal(pairs, grouped)
    np.testing.assert_array_equal(rows, grouped)


def test_kernel_bytes_do_not_depend_on_blas_threads():
    # library use, where no launcher pins BLAS: the grouped table read is
    # widest on 1,201 x, whose stage 2 takes chirp-z, and 201 x take the
    # factored sum
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    code = ("import hashlib, numpy as np, fzwave; p = fzwave.ModelParams(0.25, 0.45, 0.1); "
            "print([hashlib.sha256(fzwave.kernel_eps(np.linspace(-1, 1, nx), "
            "(0.25, 0.5, 0.75, 1.0), p).values.tobytes()).hexdigest() for nx in (201, 1201)])")
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-B", "-c", code],
            env={"OPENBLAS_NUM_THREADS": threads, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": pkg_root},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_root_table_sweeps_start_one_fixed_point_step_in(monkeypatch):
    # the elastic start needed 5 damped Newton sweeps at the solve_data plan.
    # A damped Newton run takes (psi, psi') once at its start, then once per
    # sweep and once per halving of a step: the count past the start bounds
    # the sweeps from above
    rf = fzwave.rootfinder
    newton, pair = rf._newton_sweep, rf._psi_pair
    runs, inside = [], []

    def counted_newton(*args):
        runs.append(0)
        inside.append(True)
        try:
            return newton(*args)
        finally:
            inside.pop()

    def counted_pair(*args):
        if inside:
            runs[-1] += 1
        return pair(*args)

    monkeypatch.setattr(rf, "_newton_sweep", counted_newton)
    monkeypatch.setattr(rf, "_psi_pair", counted_pair)
    solve_field(*_solve_data_input())
    sweeps = sum(runs) - len(runs)
    assert 1 <= sweeps <= 3


@pytest.mark.parametrize("alpha, beta, tau", TABLE_SETTINGS)
def test_fixed_point_start_finds_the_elastic_start_roots(alpha, beta, tau):
    rf = fzwave.rootfinder
    theta = np.geomspace(1e-6, 1e6, 129)
    oracle = rf._damped_newton(alpha, tau, theta)
    fixed = rf._damped_newton(alpha, tau, theta, rf._fixed_point_start(alpha, tau, theta))
    assert np.max(np.abs(fixed - oracle) / np.abs(oracle)) <= 1e-13
    theta, _ = _field_nodes(ModelParams(alpha, beta, tau, 0.02), 0.5)
    s, _ = rf._zero_pair_batch(alpha, tau, theta)
    oracle = rf._damped_newton(alpha, tau, theta)
    assert np.max(np.abs(s - oracle) / np.abs(oracle)) <= 1e-13


def test_cheb_table_without_a_falling_tail_raises():
    # a kink at theta = 1: the coefficients fall only like 1/k^2
    with pytest.raises(NumericsError, match="kinked table"):
        fzwave.kernel.log_cheb_table(lambda th: np.abs(np.log(th)), 0.1, 10.0, 1e-10,
                                     "kinked table")


def test_adaptive_gk_refuses_an_exhausted_panel_budget():
    # the last rounds split only the worst panels up to the cap of 2000
    with pytest.raises(NumericsError, match="panel budget") as exc:
        fzwave._quad.adaptive_gk(lambda u: np.sin(1e6 * u), [0.0, 1.0], 1e-10, 1e-12)
    assert exc.value.achieved > 1e10


def test_adaptive_gk_refuses_a_refinement_that_does_not_end():
    # each round splits only the panel at the singularity: 64 rounds, 65 panels
    with pytest.raises(NumericsError, match="did not terminate"):
        fzwave._quad.adaptive_gk(lambda u: u**-0.9, [0.0, 1.0], 1e-10, 1e-12)


def test_adaptive_gk_refuses_a_nan_integrand():
    # a NaN error estimate fails no comparison, so it would pass as converged
    with pytest.raises(NumericsError, match="non-finite error estimate while refining probe"):
        fzwave._quad.adaptive_gk(lambda u: np.where(u > 0.5, np.nan, u), [0.0, 1.0],
                                 1e-6, 1e-8, what="probe")


def test_branch_spot_check_catches_a_wrong_table(monkeypatch, capsys):
    build = fzwave.kernel.log_cheb_table

    def off_by_1e_6(*args):
        return [np.r_[table[0] + 1e-6, table[1:]] for table in build(*args)]

    monkeypatch.setattr(fzwave.kernel, "log_cheb_table", off_by_1e_6)
    with pytest.raises(NumericsError, match="branch table"):
        kernel_eps(np.linspace(-1.0, 1.0, 21), [0.5], P_EXP)
    rc = fzwave.cli.run_command(["kernel", "--nx", "21", "--t-list", "0.5"])
    assert rc == 3
    assert "branch table" in capsys.readouterr().err


def test_branch_quadrature_integrates_only_table_points(monkeypatch):
    # per-node quadrature would integrate every one of the ~29k rho nodes
    columns, nodes = [], []
    quad, batch = fzwave.kernel.adaptive_gk, fzwave.kernel._zero_pair_batch

    def counted_quad(*args, **kwargs):
        result = quad(*args, **kwargs)
        columns.append(np.size(result[0]))
        return result

    def counted_batch(alpha, tau, theta):
        nodes.append(theta.size)
        return batch(alpha, tau, theta)

    monkeypatch.setattr(fzwave.kernel, "adaptive_gk", counted_quad)
    monkeypatch.setattr(fzwave.kernel, "_zero_pair_batch", counted_batch)
    kernel_eps(np.linspace(-1.0, 1.0, 201), [0.5, 1.0], P_EXP)
    assert nodes[0] > 25_000
    assert max(columns) <= fzwave._quad._CHEB_MAX + 1
    assert sum(columns) < 0.01 * nodes[0]


def test_one_branch_quadrature_per_row(monkeypatch):
    # K, its time integral and the spot checks of both come from one adaptive pass
    calls = []
    quad = fzwave.kernel.adaptive_gk

    def counted_quad(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(fzwave.kernel, "adaptive_gk", counted_quad)
    solve_field(*_solve_data_input())
    assert len(calls) == 1
    calls.clear()
    kernel_eps(np.linspace(-1.0, 1.0, 201), [0.25, 0.5, 0.75, 1.0], P_EXP)
    assert len(calls) == 4


# --------------------------------------------------------- rho -> x transform


def _cosine_sweep(coeff: np.ndarray, rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re sum_j coeff_j e^{i rho_j x} in fixed chunked order."""
    out = np.zeros(x.size)
    for start in range(0, rho.size, _CHUNK):
        c = coeff[start : start + _CHUNK, None]
        block = np.outer(rho[start : start + _CHUNK], x)
        if np.iscomplexobj(c):
            block = c.real * np.cos(block) - c.imag * np.sin(block)
        else:
            np.cos(block, out=block)
            block *= c
        out += block.sum(axis=0)
    return out


# rho*x stays below ~1e4 rad, as on the package's grids: beyond that the
# rounding of rho_j*x_i alone moves the dense sum by ~1e-12 sum|c|
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_panels=st.integers(1, 300),
    rho_max=st.floats(1.0, 1000.0),
    x0=st.floats(-3.0, 3.0),
    h=st.floats(1e-3, 0.02),
    n=st.integers(1, 300) | st.sampled_from([1, 2]),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# one wide panel against many x: chirp phases w*m^2/2 reach ~1e6 rad
@example(n_panels=1, rho_max=997.0, x0=0.3, h=0.0197, n=300, symmetric=False, seed=1)
@example(n_panels=3, rho_max=640.0, x0=0.0, h=0.0191, n=299, symmetric=True, seed=2)
def test_chirp_z_transform_matches_dense_sweep(n_panels, rho_max, x0, h, n, symmetric, seed):
    rho, _ = fzwave.kernel._gauss_panels(rho_max / n_panels, n_panels)
    coeff = np.random.default_rng(seed).standard_normal(rho.size)
    half_width = 0.5 * h * (n - 1)
    x = np.linspace(-half_width, half_width, n) if symmetric else x0 + h * np.arange(n)
    fast = fzwave.kernel._chirp_plan(rho_max / n_panels, n_panels, x)
    if n < 2:
        assert fast is None
        return
    dense = _cosine_sweep(coeff, rho, x)
    assert np.max(np.abs(fast(coeff) - dense)) <= 1e-12 * np.sum(np.abs(coeff))


@pytest.mark.parametrize("n_panels, rho_max, x0, h, n, seed", [
    (1, 997.0, 0.3, 0.0197, 300, 1), (3, 640.0, -0.8, 0.0191, 85, 2),
    (311, 85.8, -1.0, 0.05, 41, 3), (300, 860.0, -2.0, 0.01, 401, 4),
])
def test_chirp_z_transform_takes_complex_coefficients(n_panels, rho_max, x0, h, n, seed):
    # data off the origin give complex coefficients: Re sum_j c_j e^{i rho_j x}
    rho, _ = fzwave.kernel._gauss_panels(rho_max / n_panels, n_panels)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(rho.size) + 1j * rng.standard_normal(rho.size)
    x = x0 + h * np.arange(n)
    dense = np.real(np.exp(1j * np.outer(x, rho)) @ coeff)
    np.testing.assert_allclose(_cosine_sweep(coeff, rho, x), dense,
                               rtol=0.0, atol=1e-12 * np.sum(np.abs(coeff)))
    fast = fzwave.kernel._chirp_plan(rho_max / n_panels, n_panels, x)
    assert np.max(np.abs(fast(coeff) - dense)) <= 1e-12 * np.sum(np.abs(coeff))


@pytest.mark.parametrize("n_panels, rho_max, m, seed", [
    (1, 50.0, 7, 1), (311, 85.8, 561, 2), (700, 860.0, 1201, 3), (64, 860.0, 2, 4),
])
def test_scattered_sums_match_the_dense_sum(n_panels, rho_max, m, seed):
    # sum_m f_m e^{-i rho_j y_m} at any sample points, as a blocked product,
    # for two weight vectors at once
    rho, _ = fzwave.kernel._gauss_panels(rho_max / n_panels, n_panels)
    rng = np.random.default_rng(seed)
    f, y = rng.standard_normal((2, m)), np.sort(rng.uniform(-3.0, 3.0, m))
    dense = f @ np.exp(-1j * np.outer(rho, y)).T
    got = fzwave.kernel._scattered_sums(f, y, rho_max / n_panels, rho.size)
    assert got.shape == dense.shape
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.sum(np.abs(f))


def test_cut_panels_are_the_head_of_the_full_tiling():
    # a Gaussian's plan keeps the full plan's first nodes and weights, bit for bit
    x, reach = np.linspace(-1.0, 1.0, 41), 0.7
    full = fzwave.kernel._stage1(x, (0.5,), P_EXP, reach)
    cut = fzwave.kernel._stage1(x, (0.5,), P_EXP, reach, rho_cut=85.6)
    assert cut.rho_max - cut.delta < 85.6 <= cut.rho_max and cut.n_panels < full.n_panels
    assert cut.delta == full.delta and cut.rho.size == 8 * cut.n_panels
    np.testing.assert_array_equal(cut.rho, full.rho[: cut.rho.size])
    np.testing.assert_array_equal(cut.weights, full.weights[: cut.rho.size])
    past = fzwave.kernel._stage1(x, (0.5,), P_EXP, reach, rho_cut=2e3)
    np.testing.assert_array_equal(past.rho, full.rho)
    assert past.rho_max == full.rho_max == fzwave.kernel._rho_max(P_EXP.epsilon)


@pytest.mark.parametrize("rho_cut", [None, 85.6], ids=["full", "cut"])
def test_plan_nodes_are_the_panel_lattice(rho_cut):
    # stage 2 factors e^{i rho x} over node p*8 + k at p*delta + c_k: the plan's
    # nodes and weights are that lattice itself
    plan = fzwave.kernel._stage1(np.linspace(-1.0, 1.0, 41), (0.5,), P_EXP, 0.7, rho_cut)
    rho, wts = fzwave.kernel._gauss_panels(plan.delta, plan.n_panels)
    np.testing.assert_array_equal(plan.rho, rho)
    np.testing.assert_array_equal(plan.weights, wts * np.exp(-np.square(P_EXP.epsilon * rho) / 4))


@pytest.mark.parametrize("complex_coeff", [False, True])
def test_chirp_z_spot_reference_matches_the_dense_sweep(complex_coeff):
    # the 8-point factored sum a chirp-z row is checked against, on the plan
    # of kernel_eps on 1,201 x (601 at x >= 0), against the dense sweep
    x = np.linspace(0.0, 1.0, 601)
    plan = fzwave.kernel._stage1(x, (0.5,), P_EXP)
    rng = np.random.default_rng(5)
    coeff = rng.standard_normal(plan.rho.size)
    if complex_coeff:
        coeff = coeff + 1j * rng.standard_normal(plan.rho.size)
    spot = x[fzwave.kernel._spot_indices(x.size)]
    assert spot.size == 8 and spot[0] == 0.0 and spot[-1] == 1.0
    got = fzwave.kernel._factored_plan(plan.delta, plan.n_panels, spot)(coeff)
    assert np.max(np.abs(got - _cosine_sweep(coeff, plan.rho, spot))) <= 1e-12 * np.sum(
        np.abs(coeff))


def test_spot_check_catches_a_wrong_transform(monkeypatch, capsys):
    # the spot check recomputes the first point of every row by the factored sum
    plan = fzwave.kernel._chirp_plan

    def off_by_1e_9(*args):
        fast = plan(*args)

        def sweep(coeff):
            out = fast(coeff)
            out[0] += 1e-9
            return out

        return sweep

    monkeypatch.setattr(fzwave.kernel, "_chirp_plan", off_by_1e_9)
    # chirp-z serves uniform rows wider than 256 points after mirroring
    x = np.linspace(-1.0, 1.0, 1201)
    with pytest.raises(NumericsError, match="chirp-z"):
        kernel_eps(x, [0.5], P_EXP)
    # off-centre data: complex coefficients, checked the same way
    with pytest.raises(NumericsError, match="chirp-z"):
        solve_field(InitialData.gaussian(0.1, 0.1), InitialData.zero(), x, [0.5], P_EXP)
    rc = fzwave.cli.run_command(["kernel", "--nx", "1201", "--t-list", "0.5"])
    assert rc == 3
    assert "chirp-z" in capsys.readouterr().err


def test_spot_check_catches_a_nan_transform(monkeypatch, capsys):
    # a NaN gap fails no comparison: the check must not read it as a pass
    plan = fzwave.kernel._chirp_plan

    def nan_rows(*args):
        fast = plan(*args)
        return lambda coeff: np.full_like(fast(coeff), np.nan)

    monkeypatch.setattr(fzwave.kernel, "_chirp_plan", nan_rows)
    with pytest.raises(NumericsError, match="chirp-z") as exc:
        kernel_eps(np.linspace(-1.0, 1.0, 1201), [0.5], P_EXP)
    assert math.isnan(exc.value.achieved)
    rc = fzwave.cli.run_command(["kernel", "--nx", "1201", "--t-list", "0.5"])
    assert rc == 3
    assert "chirp-z" in capsys.readouterr().err


_XP = np.linspace(0.01, 1.0, 100)


@pytest.mark.parametrize("route", [
    lambda x, ts: kernel_eps(x, ts, ModelParams(0.25, 0.0, 0.1, 0.01)),
    lambda x, ts: kernel_eps_time_integrated(x, ts, ModelParams(0.25, 0.0, 0.1, 0.01)),
    lambda x, ts: kernel_eps(x, ts, ModelParams(0.0, 1.0, 0.1, 0.01)),
    lambda x, ts: kernel_eps_time_integrated(x, ts, ModelParams(0.0, 1.0, 0.1, 0.01)),
    lambda x, ts: kernel_classical(x, ts, 0.1, 0.01),
    lambda x, ts: kernel_time_fractional(x, ts, 0.5, 0.3, 0.01),
    lambda x, ts: kernel_eps(x, ts, P_EXP),
], ids=["beta-zero", "beta-zero-integrated", "classical-pair", "classical-pair-integrated",
        "kernel-classical", "time-fractional", "fourier"])
def test_fourier_rows_are_exactly_even_on_symmetric_grids(route):
    # every route is even by construction: the closed forms and the cut sum
    # from x -> -x symmetric arithmetic, the Fourier route by mirroring
    x = np.r_[-_XP[::-1], 0.0, _XP]
    f = route(x, [0.25, 1.0])
    np.testing.assert_array_equal(f.values, f.values[:, ::-1])


def test_closed_form_is_exact_on_a_nearly_symmetric_grid():
    # kernel._symmetric takes this grid for its own mirror image (to 1e-12 of
    # its scale), yet delta_eps, steep there, moves 2e-9 with the moved point
    x = np.linspace(-1.0, 1.0, 201)
    x[np.argmin(np.abs(x - 0.01))] += 5e-13
    f = kernel_eps(x, [0.5], ModelParams(0.25, 0.0, 0.1, 0.01))
    np.testing.assert_array_equal(f.values[0], delta_eps(x, 0.01))


def test_dense_fallback_agrees_with_chirp_z_through_kernel_eps():
    # same max|x|, so the same rho panels; x >= 0 is [0, 0.2, 0.8] (the
    # factored sum) against a uniform 601-point [0, 0.8] (chirp-z)
    sparse = kernel_eps([-0.8, -0.2, 0.0, 0.2, 0.8], [0.5, 1.0], P_EXP).values
    full = kernel_eps(np.linspace(-0.8, 0.8, 1201), [0.5, 1.0], P_EXP).values
    np.testing.assert_allclose(sparse, full[:, [0, 450, 600, 750, 1200]], rtol=0.0, atol=1e-12)


def test_only_wide_uniform_rows_build_a_chirp_plan_and_probe(monkeypatch):
    # the probe of a chirp-z plan is the factored sum at its 8 spot points
    built = []
    chirp_plan, factored_plan = fzwave.kernel._chirp_plan, fzwave.kernel._factored_plan

    def counted_plan(*args):
        built.append("chirp")
        return chirp_plan(*args)

    def counted_factored(delta, n_panels, x):
        built.append(f"factored {x.size}")
        return factored_plan(delta, n_panels, x)

    monkeypatch.setattr(fzwave.kernel, "_chirp_plan", counted_plan)
    monkeypatch.setattr(fzwave.kernel, "_factored_plan", counted_factored)
    solve_field(*_solve_data_input())
    kernel_eps(np.linspace(-1.0, 1.0, 201), [0.25, 0.5, 0.75, 1.0], P_EXP)  # cli_export's A
    assert built == ["factored 21", "factored 101"]  # both mirrored about x = 0
    built.clear()
    kernel_eps(np.linspace(-1.0, 1.0, 1201), [0.5], P_EXP)
    assert built == ["chirp", "factored 8"]


# x*rho below ~1e4 rad, as for the chirp-z test above
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_panels=st.integers(1, 400),
    rho_max=st.floats(1.0, 1000.0),
    x0=st.floats(-3.0, 3.0),
    h=st.floats(1e-3, 0.02),
    n=st.integers(1, 300),
    uniform=st.booleans(),
    complex_coeff=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_panels=1, rho_max=997.0, x0=0.3, h=0.0197, n=300, uniform=True,
         complex_coeff=False, seed=1)
@example(n_panels=3, rho_max=640.0, x0=-2.9, h=0.02, n=257, uniform=False,
         complex_coeff=True, seed=2)
@example(n_panels=311, rho_max=85.8, x0=0.0, h=0.05, n=21, uniform=True,
         complex_coeff=False, seed=3)
def test_factored_sum_matches_dense_sweep(n_panels, rho_max, x0, h, n, uniform,
                                          complex_coeff, seed):
    rho, _ = fzwave.kernel._gauss_panels(rho_max / n_panels, n_panels)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(rho.size)
    if complex_coeff:
        coeff = coeff + 1j * rng.standard_normal(rho.size)
    x = x0 + h * (np.arange(n) if uniform else np.cumsum(rng.uniform(0.0, 2.0, n)))
    fast = fzwave.kernel._factored_plan(rho_max / n_panels, n_panels, x)
    dense = _cosine_sweep(coeff, rho, x)
    assert np.max(np.abs(fast(coeff) - dense)) <= 1e-12 * np.sum(np.abs(coeff))


def test_dense_sweep_sees_only_spot_check_points(monkeypatch):
    # on uniform chirp-z grids the only other sum is the 8-point factored
    # reference of each transform: one for the kernel, one for the data
    # sharing a plan
    points = []
    factored_plan = fzwave.kernel._factored_plan

    def counted_factored(delta, n_panels, x):
        points.append(x.size)
        return factored_plan(delta, n_panels, x)

    monkeypatch.setattr(fzwave.kernel, "_factored_plan", counted_factored)
    p = ModelParams(0.25, 0.45, 0.1, 0.05)
    kernel_eps(np.linspace(-1.0, 1.0, 1201), [0.5, 1.0], p)
    assert points == [8]
    points.clear()
    u0 = InitialData.gaussian(0.1, 0.2)
    solve_field(u0, InitialData.gaussian(0.1, 0.2, 0.5), np.linspace(-1.0, 1.0, 1201), (0.5,), p)
    assert points == [8]


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


def test_time_fractional_refuses_an_uncertified_exponent(monkeypatch):
    # an exponent peak past the budget everywhere: the shifted-line bound at
    # y = 0 cannot certify the kernel negligible there
    monkeypatch.setattr(fzwave.kernel, "_tf_exponent_peak", lambda *args: 100.0)
    with pytest.raises(NumericsError, match="cancellation budget") as exc:
        kernel_time_fractional(np.linspace(-3.0, 3.0, 61), [1.0], 0.25, 0.1, 0.01)
    assert exc.value.achieved > ABS_TOL


def test_time_fractional_refuses_growth_the_scan_missed(monkeypatch):
    # a scan reporting no peak lets the growing integrand reach the quadrature
    monkeypatch.setattr(fzwave.kernel, "_tf_exponent_peak", lambda *args: 0.0)
    with pytest.raises(NumericsError, match="growth detected") as exc:
        kernel_time_fractional(np.linspace(-3.0, 3.0, 61), [2.0], 0.05, 0.5, 0.01)
    assert exc.value.achieved > fzwave.kernel._TF_COND_BUDGET + 2.0


@pytest.mark.parametrize("t", [1e-4, 5e-5, 1e-5])
@pytest.mark.parametrize("field", [
    lambda x, ts: kernel_time_fractional(x, ts, 0.5, 0.3, 0.01),
    lambda x, ts: kernel_eps_time_integrated(x, ts, ModelParams(0.5, 1.0, 0.3)),
], ids=["K", "int K"])
def test_cut_route_refuses_a_time_with_no_sample_off_the_front(field, t):
    # every y sample, y = 0 too, lies within 1e-4 of the front t/sqrt(tau):
    # zeros there would stand for K_eps's unit mass and an integral of mass t
    with pytest.raises(NumericsError, match="within 0.0001 of the front"):
        field(np.linspace(-1.0, 1.0, 41), [t])


@pytest.mark.parametrize("alpha, tau", [(0.25, 0.1), (0.6, 0.5)])
def test_time_fractional_integral_matches_a_time_quadrature(alpha, tau):
    # oracle: 50 Gauss-Legendre panels in t' of the Fourier route's K rows
    x, t = np.linspace(-1.0, 1.0, 41), 0.5
    p = ModelParams(alpha, 1.0, tau)
    tp, tw = fzwave.kernel._gauss_panels(t / 50, 50)
    plan = fzwave.kernel._stage1(x, tuple(tp), p)
    rows = fzwave.kernel._fourier_rows(x, tuple(tp), p, plan, [(1.0, False)])
    got = kernel_eps_time_integrated(x, [t], p).values[0]
    assert np.max(np.abs(got - tw @ rows)) <= 1e-4


def _cut_field(x, ts, alpha, tau, eps=0.01):
    """x-space oracle of the beta = 1 time integral: the cut integral's y
    samples summed against delta_eps(x -+ y), one dense sum per t."""
    rows = []
    for t in ts:
        y, kw = fzwave.kernel._tf_samples(t, float(np.max(np.abs(x))), alpha, tau, eps, True)
        rows.append((delta_eps(x[:, None] - y, eps) + delta_eps(x[:, None] + y, eps)) @ kw)
    return np.array(rows)


@pytest.mark.parametrize("alpha, tau, nx, ts", [
    (0.25, 0.1, 41, (0.25, 0.5, 2.0)), (0.6, 0.5, 41, (0.25, 0.5, 2.0)),
    (0.25, 0.1, 2500, (0.5,)),  # chirp-z serves the 1,250 points at x >= 0
], ids=["0.25-0.1", "0.6-0.5", "0.25-0.1-2500x"])
def test_fourier_rows_of_the_integral_at_beta_one_match_the_cut_field(alpha, tau, nx, ts):
    # the signal is the transform of the cut integral's samples; the branch
    # tables' integrated mode was 4.5e-2 off at t = 0.5 for (0.25, 0.1)
    x = np.linspace(-1.0, 1.0, nx)
    got = kernel_eps_time_integrated(x, ts, ModelParams(alpha, 1.0, tau)).values
    assert np.max(np.abs(got - _cut_field(x, ts, alpha, tau))) <= 1e-10


@pytest.mark.parametrize("alpha, tau, t, tol", [
    (0.25, 0.1, 0.5, 1e-5), (0.25, 0.1, 2.0, 1e-5),
    (0.6, 0.5, 0.5, 1e-5), (0.6, 0.5, 2.0, 1e-5),
    (0.9, 0.3, 1.0, 5e-4), (0.05, 0.1, 1.0, 5e-4), (0.001, 0.1, 1.0, 5e-4),
])
def test_time_fractional_integral_mass_is_t(alpha, tau, t, tol):
    # the time integral of a unit-mass kernel holds mass t inside the cone
    x = np.linspace(-4.0, 4.0, 3201)
    f = kernel_eps_time_integrated(x, [t], ModelParams(alpha, 1.0, tau))
    assert np.trapezoid(f.values[0], x) == pytest.approx(t, abs=tol)


@pytest.mark.parametrize("alpha, tau", [(0.6, 0.5), (0.9, 0.3)])
@pytest.mark.parametrize("t", [0.02, 0.1])
def test_kernel_at_beta_one_keeps_unit_mass_early(alpha, tau, t):
    # the cut route kept 0.247 (0.6, 0.5) and 0.047 (0.9, 0.3) of it at t = 0.02
    x = np.linspace(-1.0, 1.0, 801)
    f = kernel_eps(x, [t], ModelParams(alpha, 1.0, tau))
    assert np.trapezoid(f.values[0], x) == pytest.approx(1.0, abs=1e-4)


# ------------------------------------------------------------- configuration


@pytest.fixture
def no_rho_grid(monkeypatch):
    """Fail, before allocating, any rho panel grid the node budget should refuse."""

    def refuse(*args, **kwargs):
        raise AssertionError("the rho panels were built")

    linspace = np.linspace

    def small_linspace(start, stop, num=50, *args, **kwargs):
        if num > 10_000_000:
            raise AssertionError(f"a {num}-point linspace was requested")
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(fzwave.kernel, "_gauss_panels", refuse)
    monkeypatch.setattr(np, "linspace", small_linspace)


def test_rho_node_budget_refuses_a_long_time(no_rho_grid):
    # at t = 1e6 the rho panels would hold about 2e10 nodes
    with pytest.raises(ValidationError) as exc:
        kernel_eps(np.linspace(-1.0, 1.0, 201), [1e6], P_EXP)
    assert exc.value.field == "t_list"
    assert "4,000,000" in str(exc.value)
    # the cut panels of Gaussian data are counted before they are allocated too
    with pytest.raises(ValidationError) as exc:
        solve_field(InitialData.gaussian(0.0, 0.1), InitialData.zero(),
                    np.linspace(-1.0, 1.0, 201), [1e6], P_EXP)
    assert exc.value.field == "t_list"


def test_rho_node_budget_refuses_distributed_data_at_the_classical_pair(no_rho_grid):
    # the spectral sum's panels follow the fronts at +-ct: t = 200 needs about 5.5 million nodes
    with pytest.raises(ValidationError) as exc:
        solve_field(InitialData.box(0.0, 0.4), InitialData.zero(), np.linspace(-1.0, 1.0, 201),
                    [200.0], ModelParams(0.0, 1.0, 0.1))
    assert exc.value.field == "t_list"


def test_rho_node_budget_exits_two_from_the_cli(no_rho_grid, capsys):
    rc = fzwave.cli.run_command(["kernel", "--nx", "201", "--x-min", "-1", "--x-max", "1",
                                 "--t-list", "1e6"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: t_list=")


def test_closed_forms_record_no_quadrature():
    x = np.linspace(-1.0, 1.0, 21)
    classical = kernel_classical(x, [0.5], 0.1, 0.01).meta
    assert kernel_eps(x, [0.5], ModelParams(0.0, 1.0, 0.1, 0.01)).meta == classical
    assert kernel_eps(x, [0.5], ModelParams(0.25, 0.0, 0.1)).meta["quadrature"] is None
    assert kernel_eps(x, [0.5], ModelParams(0.25, 1.0, 0.1)).meta["quadrature"] is not None


_RAMP = SampledSignal(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
_BUMP = SampledSignal(np.linspace(-8.0, 8.0, 65), np.exp(-np.linspace(-8.0, 8.0, 65) ** 2))
_SKEWED = SampledSignal(np.array([0.0, 1.0, 2.5]), np.zeros(3))


@pytest.mark.parametrize("call, args, field", [
    (kernel_classical, ([0.0, 1.0], [1.0], True, 0.01), "tau"),
    (kernel_classical, ([0.0, 1.0], [1.0], 0.1, True), "epsilon"),
    (functools.partial(nonprop_solution, epsilon=True),
     (InitialData.dirac(), InitialData.zero(), [0.0, 1.0], [1.0]), "epsilon"),
    (spectral_kernel, (True, 1.0, P_EXP), "rho"),
    (spectral_kernel, (1.0, True, P_EXP), "t"),
    (laplace_kernel_hat, (True, 2.0, P_EXP), "rho"),
    (kernel_time_fractional, ([0.0, 1.0], [1.0], 0.25, True, 0.01), "tau"),
    (bromwich_invert, (True, 1.0, P_EXP), "rho"),
    (bromwich_invert, (1.0, True, P_EXP), "t"),
    (delta_eps, (0.0, True), "epsilon"),
    (spectral_kernel_alpha0, (1.0, 1.0, True, 0.1), "beta"),
    (zener_ratio, (1.0, False, 0.1), "alpha"),
    (branch_values, (1.0, False, 0.1), "alpha"),
    (theta_of_rho, (2.0, True), "beta"),
    (CharParams, (False, 0.1, 1.0), "alpha"),
    (CharParams, (0.25, 0.1, True), "theta"),
    (caputo_derivative, (_RAMP, False), "alpha"),
    (symmetrized_derivative, (_BUMP, True), "beta"),
    (l_operator_apply, (_RAMP, False, 0.1), "alpha"),
    (mittag_leffler, (True, 1.0, -1.0), "ml_alpha"),
    (mittag_leffler, (0.5, True, -1.0), "ml_beta"),
    (e_alpha, (True, 0.5, 0.1), "t"),
    (e_alpha_prime, (True, 0.5, 0.1), "t"),
    (functools.partial(bromwich_invert, s0=True), (1.0, 1.0, P_EXP), "s0"),
    # arrays: a bool, a string or a complex number is not a real entry
    (kernel_eps, ([0.0, 1.0], [True, 2.0], P_EXP), "t_list"),
    (kernel_eps, ([0.0, 1.0], ["1"], P_EXP), "t_list"),
    (kernel_eps, ([0.0, 1.0], [0, 10**400], P_EXP), "t_list"),
    (kernel_eps, ([0j, 1.0], [1.0], P_EXP), "x_grid"),
    (kernel_eps, (0.0, [1.0], P_EXP), "x_grid"),
    (theta_of_rho, (math.nan, 0.5), "rho"),
    (spectral_kernel_alpha0, (True, 1.0, 0.45, 0.1), "rho"),
    (spectral_kernel_alpha0, ("1", 1.0, 0.45, 0.1), "rho"),
    (SampledSignal.from_arrays, ([0.0, True], [0.0, 1.0]), "grid"),
    # a signal or operator refusing what it cannot serve, a non-finite argument
    (SampledSignal, (np.array([0.0]), np.array([0.0])), "grid"),
    (SampledSignal, (np.array([0.0, 1.0]), np.zeros(3)), "values"),
    (caputo_derivative, (_SKEWED, 0.5), "f.uniform"),
    (caputo_derivative, (SampledSignal(np.array([0.0, 1.0]), np.array([0.0, 1.0])), 0.5),
     "f.grid"),
    (symmetrized_derivative, (_SKEWED, 0.5), "f.uniform"),
    (mittag_leffler, (0.5, 1.0, complex(math.nan, 0.0)), "z"),
], ids=["classical-tau", "classical-eps", "nonprop-eps", "spectral-rho", "spectral-t",
        "hat-rho", "time-fractional-tau", "bromwich-rho", "bromwich-t", "delta-eps",
        "alpha0-beta", "zener-alpha", "branch-alpha", "theta-beta", "charparams-alpha",
        "charparams-theta", "caputo-alpha", "symmetrized-beta", "l-operator-alpha",
        "ml-alpha", "ml-beta", "e-alpha-t", "e-alpha-prime-t", "bromwich-s0",
        "grid-t-bool", "grid-t-string", "grid-t-beyond-floats", "grid-x-complex", "grid-x-scalar",
        "theta-rho-nan", "alpha0-rho-bool", "alpha0-rho-string", "samples-grid-bool",
        "samples-one-point", "samples-values-per-point", "caputo-non-uniform",
        "caputo-two-points", "symmetrized-non-uniform", "ml-z-nan"])
def test_public_number_arguments_refuse_booleans(call, args, field):
    # a bool would otherwise run as 0 or 1, each inside the argument's interval
    with pytest.raises(ValidationError) as exc:
        call(*args)
    assert exc.value.field == field


def test_field_shape_validation():
    with pytest.raises(ValidationError):
        Field(np.array([0.0, 1.0]), (1.0,), np.zeros((2, 2)), meta={})
    with pytest.raises(ValidationError):
        Field(np.array([1.0, 0.0]), (1.0,), np.zeros((1, 2)), meta={})
    with pytest.raises(ValidationError):
        Field(np.array([0.0, 1.0]), (-1.0,), np.zeros((1, 2)), meta={})
    with pytest.raises(ValidationError) as exc:
        Field(np.array([0.0, 1.0]), (1.0,), np.array([[0.0, math.nan]]), meta={})
    assert exc.value.field == "values"
    with pytest.raises(ValidationError) as exc:
        fzwave.kernel.SpectralKernel(rho=1.0, t=1.0, branch_part=math.inf, residue_part=0.0)
    assert exc.value.field == "SpectralKernel"

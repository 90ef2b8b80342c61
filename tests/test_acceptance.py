"""Acceptance suite: eleven numbered criteria, one PASS/FAIL line each.

Each test prints `[PASS] criterion N: ...` or `[FAIL] criterion N: ...` with
the measured quantity before asserting, so the run log carries the full
scorecard (pytest -rA keeps the captured lines for passing tests too).

Criteria 7 and 8 check limits as limits. The general route's distance to the
beta = 0 closed form and to the beta = 1 cut-integral route is first order in
beta and in 1 - beta, with constants of about 177 and 10 (as a share of the
reference height) at the paper's parameters, so no single order near the edge
meets a fixed bound. Each criterion therefore evaluates the general route at
two orders next to the edge, extrapolates linearly point by point to the edge,
and bounds the extrapolated kernel's distance to the edge route. It also
asserts that the two raw gaps shrink in the ratio of the two distances to the
edge, so that a gap of the wrong order fails; criterion 7 further checks the
first-order constant against its Mittag-Leffler closed form.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

import fzwave
from fzwave.charfun import CharParams, psi
from fzwave.fracops import SampledSignal, caputo_derivative, symmetrized_derivative
from fzwave.kernel import (
    delta_eps,
    kernel_eps,
    kernel_time_fractional,
    laplace_kernel_hat,
    spectral_kernel,
    spectral_kernel_alpha0,
)
from fzwave.laplace_oracle import bromwich_invert
from fzwave.params import ModelParams
from fzwave.rootfinder import find_zero_pair, winding_number
from fzwave.solver import InitialData, peak_metrics, solve_field
from fzwave.specfun import mittag_leffler

P_EXP = ModelParams(alpha=0.25, beta=0.45, tau=0.1, epsilon=0.01)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_elastic_root_closed_form():
    worst = 0.0
    for theta in (0.5, 1.0, 10.0):
        for tau in (0.1, 0.5, 0.9):
            pair = find_zero_pair(CharParams(alpha=0.0, tau=tau, theta=theta))
            want = 1j * math.sqrt(2.0 * theta / (1.0 + tau))
            worst = max(worst, abs(pair.s_z - want))
    report(1, worst <= 1e-10, f"alpha=0 roots, worst |s_z - closed form| = {worst:.2e} (<= 1e-10)")


@pytest.mark.filterwarnings("ignore:characteristic zero hugs the imaginary axis")
def test_criterion_02_random_certification_sweep():
    rng = np.random.default_rng(20240817)
    worst_resid, worst_re = 0.0, -math.inf
    for _ in range(200):
        p = CharParams(
            alpha=float(rng.uniform(0.0, 0.95)),
            tau=float(rng.uniform(0.05, 0.95)),
            theta=float(10.0 ** rng.uniform(-2.0, 3.0)),
        )
        pair = find_zero_pair(p)
        s, m = pair.s_z, abs(pair.s_z)
        assert winding_number((1e-3, 2.0 + 2.0 * m, -(1.0 + m), 1.0 + m), p) == 0
        rect = (
            s.real - 0.5 * m - 0.05,
            s.real + 0.5 * m + 0.05,
            max(0.4 * s.imag, 1e-9),
            1.6 * s.imag + 0.05,
        )
        assert winding_number(rect, p) == 1
        resid = abs(psi(s, p)) / max(1.0, m * m)
        worst_resid = max(worst_resid, resid)
        worst_re = max(worst_re, s.real)
    ok = worst_resid <= 1e-10 and worst_re <= 1e-9
    report(
        2,
        ok,
        "200 random draws certified; "
        f"worst residual = {worst_resid:.2e} (<= 1e-10), worst Re(s_z) = {worst_re:.2e} (<= 1e-9)",
    )


def test_criterion_03_oracle_equivalence():
    worst = 0.0
    for rho in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            s_val = spectral_kernel(rho, t, P_EXP).total
            b_val = bromwich_invert(rho, t, P_EXP)
            worst = max(worst, abs(s_val - b_val) / max(1.0, abs(s_val)))
    vals = [
        bromwich_invert(1.0, 1.0, P_EXP, s0=s0) for s0 in (0.5, 1.0, 2.0)
    ]
    spread = max(vals) - min(vals)
    ok = worst <= 1e-5 and spread <= 1e-5
    report(
        3,
        ok,
        f"two-route worst gap = {worst:.2e} (<= 1e-5), s0-independence spread = {spread:.2e} (<= 1e-5)",
    )


def test_criterion_04_initial_value_theorem():
    s = 1e6
    worst = max(abs(s * laplace_kernel_hat(rho, s, P_EXP) - 1.0) for rho in (0.0, 1.0, 10.0))
    report(4, worst <= 1e-4, f"|s*K_hat - 1| at s=1e6, worst = {worst:.2e} (<= 1e-4)")


def test_criterion_05_classical_pulse_location():
    x = np.linspace(-4.0, 4.0, 2001)
    h = x[1] - x[0]
    f = kernel_eps(x, [1.0, 2.0], ModelParams(0.0, 1.0, 0.1, 0.01))
    c = math.sqrt(2.0 / 1.1)
    worst = 0.0
    for i, t in enumerate((1.0, 2.0)):
        loc = peak_metrics(f, i)[0][0]
        worst = max(worst, abs(loc - c * t))
    report(5, worst <= h, f"classical peaks off by {worst:.4f} (<= one grid step {h:.4f})")


def test_criterion_06_alpha_to_zero_consistency():
    p = ModelParams(1e-3, 0.45, 0.1)
    worst = 0.0
    for rho in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0):
            gap = abs(
                spectral_kernel(rho, t, p).total - spectral_kernel_alpha0(rho, t, 0.45, 0.1)
            )
            worst = max(worst, gap)
    report(6, worst <= 1e-3, f"alpha=1e-3 vs alpha=0 closed form, worst gap = {worst:.2e} (<= 1e-3)")


def _extrapolate_to_edge(f1, d1, f2, d2):
    """Linear extrapolation, point by point, of samples f1, f2 taken at
    distances d1 != d2 from a parameter edge to the edge itself."""
    return (d1 * f2 - d2 * f1) / (d1 - d2)


def test_criterion_07_beta_to_zero_collapse():
    alpha, tau, eps, t = 0.25, 0.1, 0.01, 1.0
    x = np.linspace(-2.0, 2.0, 1601)
    ref = delta_eps(x, eps)
    height = float(delta_eps(0.0, eps))
    b1, b2 = 1e-3, 1e-4
    f1, f2 = (kernel_eps(x, [t], ModelParams(alpha, b, tau, eps)).values[0] for b in (b1, b2))
    gap1, gap2 = (float(np.max(np.abs(f - ref))) / height for f in (f1, f2))
    limit = _extrapolate_to_edge(f1, b1, f2, b2)
    limit_gap = float(np.max(np.abs(limit - ref))) / height
    # To first order S(rho, t) = 1 - theta(rho) h(t) with theta ~ (pi/2) beta rho and
    # h = L^-1[(1 + s^a) / (s^3 (1 + tau s^a))], so gap/beta tends to sqrt(pi) |h(t)| / eps.
    ml = complex(mittag_leffler(alpha, alpha + 3.0, -(t**alpha) / tau)).real
    h = t * t / (2.0 * tau) + (1.0 - 1.0 / tau) / tau * t ** (alpha + 2.0) * ml
    rate = math.sqrt(math.pi) * abs(h) / eps
    rate_err = abs(gap2 / b2 - rate) / rate
    ok = limit_gap <= 0.05 and 8.0 <= gap1 / gap2 <= 12.0 and rate_err <= 0.02
    report(
        7,
        ok,
        f"sup|K_eps - delta_eps| = {100 * gap1:.2f}%/{100 * gap2:.2f}% of delta_eps(0) "
        f"at beta = {b1:g}/{b2:g}, ratio {gap1 / gap2:.2f} (first order: in [8, 12]); "
        f"extrapolated to beta = 0: {100 * limit_gap:.3f}% (<= 5%); "
        f"gap/beta at {b2:g} = {gap2 / b2:.2f} vs sqrt(pi)|h(t)|/eps = {rate:.2f}, "
        f"off {100 * rate_err:.2f}% (<= 2%)",
    )


def test_criterion_08_beta_to_one_overlap():
    alpha, tau, eps = 0.25, 0.1, 0.01
    x = np.linspace(0.0, 3.0, 601)
    ref = kernel_time_fractional(x, [1.0], alpha, tau, eps).values
    peak = float(np.max(np.abs(ref)))
    b1, b2 = 0.99, 0.999
    f1, f2 = (kernel_eps(x, [1.0], ModelParams(alpha, b, tau, eps)).values for b in (b1, b2))
    gap1, gap2 = (float(np.max(np.abs(f - ref))) / peak for f in (f1, f2))
    limit = _extrapolate_to_edge(f1, 1.0 - b1, f2, 1.0 - b2)
    limit_gap = float(np.max(np.abs(limit - ref))) / peak
    ok = limit_gap <= 0.02 and 8.0 <= gap1 / gap2 <= 12.0
    report(
        8,
        ok,
        f"Linf(general route vs time-fractional) = {100 * gap1:.2f}%/{100 * gap2:.2f}% of peak "
        f"at beta = {b1:g}/{b2:g}, ratio {gap1 / gap2:.2f} (first order: in [8, 12]); "
        f"extrapolated to beta = 1: {100 * limit_gap:.3f}% (<= 2%)",
    )


def test_criterion_09_peak_trends():
    x = np.linspace(-4.0, 4.0, 801)
    ts = [0.5, 1.0, 1.5, 2.0]
    sol = solve_field(InitialData.dirac(), InitialData.zero(), x, ts, P_EXP)
    heights = [peak_metrics(sol, i)[0][1] for i in range(len(ts))]
    decreasing = all(a > b for a, b in zip(heights, heights[1:]))
    n_peaks_t1 = len(peak_metrics(sol, 1))
    locs = []
    for beta in (0.3, 0.45, 0.7, 0.9):
        f = kernel_eps(x, [1.0], ModelParams(0.25, beta, 0.1, 0.01))
        locs.append(peak_metrics(f, 0)[0][0])
    nondecreasing = all(a <= b for a, b in zip(locs, locs[1:]))
    ok = decreasing and n_peaks_t1 >= 2 and nondecreasing
    report(
        9,
        ok,
        f"peak heights {['%.3f' % h for h in heights]} strictly decreasing: {decreasing}; "
        f"{n_peaks_t1} maxima at t=1 (>= 2); "
        f"peak locations vs beta {['%.2f' % l for l in locs]} nondecreasing: {nondecreasing}",
    )


def test_criterion_10_special_functions():
    worst_exp = max(
        abs(mittag_leffler(1.0, 1.0, -t) - math.exp(-t)) for t in np.linspace(0.0, 10.0, 101)
    )
    worst_erfc = max(
        abs(mittag_leffler(0.5, 1.0, -x).real - math.exp(x * x) * erfc(x))
        / (math.exp(x * x) * erfc(x))
        for x in np.linspace(0.0, 5.0, 51)
    )
    t = np.linspace(0.0, 1.0, 1000)
    d = caputo_derivative(SampledSignal.from_arrays(t, t), 0.5)
    worst_caputo = float(np.max(np.abs(d.values - np.sqrt(t) / math.gamma(1.5))))
    xg = np.linspace(-12.0, 12.0, 1201)
    g = SampledSignal.from_arrays(xg, np.exp(-(xg**2)))
    zero_out = symmetrized_derivative(g, 0.0)
    sym_zero = bool(np.all(zero_out.values == 0.0))
    d1 = symmetrized_derivative(g, 1.0)
    worst_sym = float(np.max(np.abs(d1.values - (-2.0 * xg * np.exp(-(xg**2))))))
    ok = (
        worst_exp <= 1e-12
        and worst_erfc <= 1e-8
        and worst_caputo <= 1e-3
        and sym_zero
        and worst_sym <= 1e-8
    )
    report(
        10,
        ok,
        f"E_1 vs exp: {worst_exp:.1e} (<=1e-12); E_1/2 vs erfc: {worst_erfc:.1e} (<=1e-8); "
        f"Caputo(t): {worst_caputo:.1e} (<=1e-3); sym beta=0 zero: {sym_zero}; "
        f"sym beta=1 vs derivative: {worst_sym:.1e} (<=1e-8)",
    )


def test_criterion_11_deterministic_csv(tmp_path):
    # A sampled u0 (CI's sampled-u0 data): its complex coefficients reach x
    # through BLAS products, whose bits a threaded BLAS could change. Only
    # OPENBLAS_NUM_THREADS varies; PYTHONPATH names wherever fzwave was imported
    # from, which covers both a source checkout and an installed package.
    y = np.linspace(-0.6, 0.6, 1201)
    u = (1 - (y / 0.6) ** 2) ** 2 * (1 + 0.1 * np.random.default_rng(0).standard_normal(y.size))
    cfg = tmp_path / "sampled-u0.json"
    cfg.write_text(json.dumps({
        "grid": {"x_min": -1, "x_max": 1, "nx": 401, "t_list": [0.25, 0.5, 1]},
        "initial": {"u0": {"kind": "sampled", "samples": {"grid": y.tolist(),
                                                          "values": u.tolist()}}},
    }))
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run_{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "fzwave", "solve", "--config", str(cfg),
             "--out", str(out)],
            env={"OPENBLAS_NUM_THREADS": threads, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": pkg_root},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    report(
        11,
        ok,
        f"sampled-u0 solve CSV bytes identical across OPENBLAS_NUM_THREADS in {{1, 2}}: {ok} "
        f"({len(blobs[0])} bytes)",
    )

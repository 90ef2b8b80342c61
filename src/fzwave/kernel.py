"""Solution kernels: spectral signal, Fourier transform, limiting forms.

Fields with 0 < beta < 1 are built in two stages. Stage 1,
:func:`_spectral_signal`, maps the Gauss nodes rho_j to t -> S(theta(rho_j), t),
the inverse Laplace transform of s / (s^2 + theta * zener_ratio(s)), or its
integral over [0, t]: a closed form at alpha = 0, otherwise a conjugate-pole
residue pair (zeros found once per field) plus a branch-cut integral. Stage 2,
:func:`_fourier_field`, sums each row, damped by the Gaussian mollifier
e^{-(eps*rho)^2/4}, against cos(rho*x). The edges beta = 0, beta = 1 and the
classical pair bypass the transform; :func:`_kernel_eps_impl` wraps the
values of every route in a :class:`Field`.

Everything here is deterministic by construction: panel subdivision depends
only on inputs, and the cosine sweep reduces in a fixed chunked order, so a
run with FZWAVE_THREADS=8 is byte-identical to a serial one (threads only
split work across rows of the time grid).
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import erf

from ._quad import adaptive_gk, geometric_edges
from .charfun import CharParams, _psi_prime, branch_values, theta_of_rho, zener_ratio
from .errors import NumericsError, ValidationError
from .params import ModelParams, validate_model
from .rootfinder import _zero_pair_batch, find_zero_pair

__all__ = [
    "QuadratureConfig",
    "SpectralKernel",
    "Field",
    "delta_eps",
    "laplace_kernel_hat",
    "spectral_kernel",
    "spectral_kernel_alpha0",
    "kernel_eps",
    "kernel_eps_time_integrated",
    "kernel_time_fractional",
    "kernel_classical",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_CHUNK = 1024  # fixed reduction width for deterministic cosine sweeps


def _thread_count(n_rows: int) -> int:
    """Worker count for row-parallel loops, from FZWAVE_THREADS (0 = auto)."""
    raw = os.environ.get("FZWAVE_THREADS", "0")
    try:
        requested = int(raw)
    except ValueError as exc:
        raise ValidationError("FZWAVE_THREADS", raw, "integer >= 0") from exc
    if requested < 0:
        raise ValidationError("FZWAVE_THREADS", requested, "integer >= 0")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, n_rows))


def delta_eps(x: np.ndarray | float, epsilon: float) -> np.ndarray | float:
    """Gaussian mollifier delta_eps(x) = exp(-x^2/eps^2) / (eps*sqrt(pi))."""
    if not (0.0 < epsilon and math.isfinite(epsilon)):
        raise ValidationError("epsilon", epsilon, "(0, inf)")
    return np.exp(-np.square(np.asarray(x, dtype=float) / epsilon)) / (
        epsilon * math.sqrt(math.pi)
    )


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation bounds for kernel and field assembly.

    q_max caps the branch-integral truncation point (the effective cut-off is
    scale-dependent and never exceeds this). rho_max truncates the Fourier
    integral and must honour the mollifier bound
    rho_max >= (2/eps) * sqrt(ln(1/abs_tol)); use :meth:`for_model` to derive
    it from a model's eps rather than guessing.
    """

    q_max: float = 1e6
    rho_max: float = 860.0
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8
    panels_per_period: int = 8

    def __post_init__(self) -> None:
        for name in ("q_max", "rho_max", "rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValidationError(name, v, "positive real")
        if self.rel_tol < 1e-12:
            raise ValidationError(
                "rel_tol", self.rel_tol,
                ">= 1e-12 (tighter targets are below attainable rounding noise)",
            )
        if self.panels_per_period < 4:
            raise ValidationError("panels_per_period", self.panels_per_period, "integer >= 4")

    @classmethod
    def for_model(cls, p: ModelParams, **overrides) -> "QuadratureConfig":
        """Config whose rho_max saturates the mollifier tail bound for p.epsilon."""
        q = cls(**overrides)
        if "rho_max" in overrides:
            return q
        return replace(q, rho_max=q.required_rho_max(p.epsilon) * 1.002)

    def required_rho_max(self, epsilon: float) -> float:
        return (2.0 / epsilon) * math.sqrt(math.log(1.0 / self.abs_tol))


@dataclass(frozen=True)
class SpectralKernel:
    """One Fourier mode of the solution kernel, split into its two parts."""

    rho: float
    t: float
    branch_part: float
    residue_part: float
    total: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(v)
            for v in (self.rho, self.t, self.branch_part, self.residue_part, self.total)
        ):
            raise ValidationError("SpectralKernel", "non-finite entry", "finite fields")
        gap = abs(self.total - (self.branch_part + self.residue_part))
        if gap > 1e-12 * max(1.0, abs(self.total)):
            raise ValidationError(
                "total", self.total, "branch_part + residue_part (consistency)"
            )


def _meta(model: dict, quadrature: QuadratureConfig | None) -> dict:
    snap = asdict(quadrature) if quadrature is not None else None
    return {"model": dict(model), "quadrature": snap}


@dataclass(frozen=True)
class Field:
    """Displacement samples on a space-time grid plus the config that made them."""

    x_grid: np.ndarray
    t_list: tuple
    values: np.ndarray
    meta: dict = field(compare=False)

    def __post_init__(self) -> None:
        x, ts = _check_grids(self.x_grid, self.t_list)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "t_list", ts)
        object.__setattr__(self, "values", v)
        if v.shape != (len(ts), x.size):
            raise ValidationError(
                "values", v.shape, f"shape (len(t_list), len(x_grid)) = {(len(ts), x.size)}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("values", "<array>", "finite entries")

    def row(self, t_index: int) -> np.ndarray:
        return self.values[t_index]


def _check_even(x: np.ndarray, values: np.ndarray) -> None:
    """Kernel rows must be even in x whenever the grid is symmetric.

    This is an assembly self-check, not input validation: the kernel is even
    by construction, so asymmetry on a symmetric grid means the quadrature or
    the sweep went wrong. Fields built from off-center initial data are
    legitimately asymmetric and never pass through here.
    """
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if x.size > 1 and abs(x[0] + x[-1]) <= 1e-12 * max(1.0, scale):
        if np.max(np.abs(x + x[::-1])) <= 1e-12 * max(1.0, scale):
            skew = np.max(np.abs(values - values[:, ::-1]))
            if skew > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
                raise NumericsError(
                    "kernel assembly lost evenness on a symmetric grid "
                    f"(max asymmetry {skew:.3e})",
                    achieved=float(skew),
                )


def laplace_kernel_hat(rho: float, s: complex, p: ModelParams) -> complex:
    """Laplace-domain kernel s / (s^2 + theta(rho) * zener_ratio(s)).

    Reduces to 1/s when theta(rho) vanishes (rho = 0 or beta = 0).
    """
    validate_model(p)
    if not (isinstance(rho, (int, float)) and rho >= 0.0 and math.isfinite(rho)):
        raise ValidationError("rho", rho, "[0, inf)")
    s = complex(s)
    theta = float(theta_of_rho(rho, p.beta))
    if theta == 0.0:
        if s == 0:
            raise ValidationError("s", s, "nonzero")
        return 1.0 / s
    d = zener_ratio(s, p.alpha, p.tau)
    return s / (s * s + theta * d)


def spectral_kernel_alpha0(rho, t, beta: float, tau: float):
    """Order-zero time kernel: S = cos(t * sqrt(2*theta(rho)/(1+tau)))."""
    if not (0.0 <= beta <= 1.0):
        raise ValidationError("beta", beta, "[0, 1]")
    if not (0.0 < tau < 1.0):
        raise ValidationError("tau", tau, "(0, 1)")
    rho_a = np.asarray(rho, dtype=float)
    t_a = np.asarray(t, dtype=float)
    if np.any(rho_a < 0.0) or not np.all(np.isfinite(rho_a)):
        raise ValidationError("rho", rho, "[0, inf)")
    if np.any(t_a < 0.0) or not np.all(np.isfinite(t_a)):
        raise ValidationError("t", t, "[0, inf)")
    omega = np.sqrt(2.0 * theta_of_rho(rho_a, beta) / (1.0 + tau))
    out = np.cos(t_a * omega)
    return float(out) if np.isscalar(rho) and np.isscalar(t) else out


def _branch_part(
    theta: np.ndarray,
    t: float,
    alpha: float,
    tau: float,
    q: QuadratureConfig,
    integrated: bool = False,
) -> np.ndarray:
    """Branch-cut part of S(., t) for a vector of theta > 0 values.

    With integrated=True, returns its exact time integral over [0, t]: the
    branch integrand gains (1 - e^{-qt})/q, an exact antiderivative of e^{-qt}.
    """
    theta_top = float(np.max(theta))
    u_lo_scale = min(1.0, t * math.sqrt(float(np.min(theta))))
    if integrated:
        # power-law tail ~ C*theta*q^(-4-a); push q out until it clears abs_tol
        c_tail = (1.0 - tau) * math.sin(alpha * math.pi) / (math.pi * tau * tau)
        q_pow = (c_tail * theta_top / ((3.0 + alpha) * q.abs_tol)) ** (1.0 / (3.0 + alpha))
        q_cut = min(q.q_max, max(50.0 / t, q_pow))
        u_max = t * q_cut
    else:
        q_cut = min(q.q_max, max(50.0 / t, 1e3 * math.sqrt(theta_top)))
        u_max = min(max(45.0, t * q_cut), 700.0)

    first = max(min(0.05, u_lo_scale / 8.0, u_max / 64.0), 1e-12)
    edges = geometric_edges(0.0, u_max, first, ratio=1.7)

    out = np.empty_like(theta)
    for start in range(0, theta.size, _CHUNK):
        th_c = theta[start : start + _CHUNK]

        def f(u: np.ndarray) -> np.ndarray:
            qq = u / t
            fp = branch_values(qq, alpha, tau)[0]
            a = np.square(qq)[:, None] + np.outer(fp.real, th_c)
            b = np.outer(fp.imag, th_c)
            core = -b / (a * a + b * b) / math.pi
            if integrated:
                w = np.where(u > 1e-8, -np.expm1(-u) / np.where(u > 0, u, 1.0), 1.0 - 0.5 * u)
                return core * (qq * t * w)[:, None]
            return core * (qq * np.exp(-u) / t)[:, None]

        val, _err = adaptive_gk(
            f, edges, rel_tol=q.rel_tol, abs_tol=q.abs_tol, what="branch integral"
        )
        out[start : start + _CHUNK] = np.atleast_1d(val)
    return out


def _spectral_signal(
    theta: np.ndarray, alpha: float, tau: float, q: QuadratureConfig, integrated: bool
) -> Callable[[float], np.ndarray]:
    """Stage 1: the map t -> S(theta, t), or its integral over [0, t], for theta > 0.

    At alpha = 0 every mode is cos(omega t) with omega = sqrt(2 theta/(1+tau)),
    integral sin(omega t)/omega (-> t as omega -> 0). Otherwise S is the
    residue pair of the zeros s_z, located here once for every t, plus the
    branch part; integrated, each residue term s e^{st}/psi'(s) becomes its
    exact antiderivative (e^{st} - 1)/psi'(s).
    """
    if alpha == 0.0:
        omega = np.sqrt(2.0 * theta / (1.0 + tau))
        if integrated:
            return lambda t: t * np.sinc(omega * t / math.pi)
        return lambda t: np.cos(t * omega)

    s_z, psi_p = _zero_pair_batch(alpha, tau, theta)

    def signal(t: float) -> np.ndarray:
        if integrated:
            residue = 2.0 * np.real((np.exp(s_z * t) - 1.0) / psi_p)
        else:
            residue = 2.0 * np.real(s_z * np.exp(s_z * t) / psi_p)
        return _branch_part(theta, t, alpha, tau, q, integrated) + residue

    return signal


def spectral_kernel(
    rho: float, t: float, p: ModelParams, q: QuadratureConfig = QuadratureConfig()
) -> SpectralKernel:
    """Residue-plus-branch-cut evaluation of one spectral mode, certified.

    The conjugate pole pair is located and certified by the winding-number
    test before use; the imaginary residual of the explicitly summed pair is
    asserted below 1e-10 relative and then discarded.
    """
    validate_model(p)
    if not (0.0 < p.alpha < 1.0):
        raise ValidationError(
            "alpha", p.alpha, "(0, 1) (the order-zero case has its own closed form)"
        )
    if not (isinstance(rho, (int, float)) and rho >= 0.0 and math.isfinite(rho)):
        raise ValidationError("rho", rho, "[0, inf)")
    if not (isinstance(t, (int, float)) and t > 0.0 and math.isfinite(t)):
        raise ValidationError("t", t, "(0, inf)")
    theta = float(theta_of_rho(rho, p.beta))
    if theta == 0.0:
        # the transform degenerates to 1/s: a unit step carried by the pole part
        return SpectralKernel(rho=float(rho), t=float(t), branch_part=0.0,
                              residue_part=1.0, total=1.0)

    pair = find_zero_pair(CharParams(alpha=p.alpha, tau=p.tau, theta=theta))
    s = pair.s_z
    dpsi = complex(_psi_prime(s, p.alpha, p.tau, theta))
    dpsi_conj = complex(_psi_prime(s.conjugate(), p.alpha, p.tau, theta))
    pole_sum = s * cmath.exp(s * t) / dpsi + s.conjugate() * cmath.exp(
        s.conjugate() * t
    ) / dpsi_conj
    residue = pole_sum.real
    im_resid = abs(pole_sum.imag)

    branch = float(_branch_part(np.array([theta]), float(t), p.alpha, p.tau, q)[0])
    total = branch + residue
    if im_resid > 1e-10 * max(1.0, abs(total)):
        raise NumericsError(
            "conjugate pole pair failed to cancel to a real residue sum",
            achieved=im_resid,
        )
    return SpectralKernel(
        rho=float(rho), t=float(t), branch_part=branch, residue_part=residue, total=total
    )


# ---------------------------------------------------------------------------
# Fourier assembly
# ---------------------------------------------------------------------------


def _check_grids(x_grid, t_list) -> tuple[np.ndarray, tuple]:
    """The one validator of a space grid and its output times."""
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 1 or not np.all(np.isfinite(x)):
        raise ValidationError("x_grid", "<array>", "finite 1-d array")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("x_grid", "<array>", "strictly increasing")
    ts = tuple(float(t) for t in np.atleast_1d(np.asarray(t_list, dtype=float)))
    arr = np.asarray(ts)
    if arr.size < 1 or np.any(arr <= 0) or np.any(~np.isfinite(arr)) or np.any(np.diff(arr) <= 0):
        raise ValidationError("t_list", t_list, "strictly increasing positive reals")
    return x, ts


def _rho_panels(freq_scale: float, q: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights tiling (0, rho_max] at panels_per_period density.

    freq_scale is the largest phase rate (radians per unit rho) the integrand
    carries: the cos(rho x) sweep contributes max|x| and the spectral factor
    contributes ~ t * d|s_z|/d rho through its oscillating pole pair.
    """
    width = min(2.0 * math.pi / (q.panels_per_period * max(freq_scale, 1e-9)), 0.5)
    n_panels = max(int(math.ceil(q.rho_max / width)), 1)
    return _gauss_panels(np.linspace(0.0, q.rho_max, n_panels + 1))


def _gauss_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-point Gauss-Legendre nodes (ascending) and weights on every panel."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _cosine_sweep(coeff: np.ndarray, rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coeff_j cos(rho_j x) in fixed chunked order (thread-independent)."""
    out = np.zeros(x.size)
    for start in range(0, rho.size, _CHUNK):
        block = np.outer(rho[start : start + _CHUNK], x)
        np.cos(block, out=block)
        block *= coeff[start : start + _CHUNK, None]
        out += block.sum(axis=0)
    return out


def _require_rho_max(q: QuadratureConfig, epsilon: float) -> None:
    needed = q.required_rho_max(epsilon)
    if q.rho_max < needed:
        raise ValidationError(
            "rho_max", q.rho_max,
            f">= (2/eps)*sqrt(ln(1/abs_tol)) = {needed:.6g} "
            "(mollifier tail would exceed abs_tol; see QuadratureConfig.for_model)",
        )


def _map_rows(worker, n_rows: int):
    workers = _thread_count(n_rows)
    if workers == 1 or n_rows == 1:
        for i in range(n_rows):
            worker(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(worker, range(n_rows)))


def _freq_scale(x: np.ndarray, ts: tuple, beta: float, tau: float) -> float:
    """Peak phase rate in rho: spatial max|x| plus the pole pair's t-oscillation.

    |s_z|^2 <= theta/tau and d sqrt(theta)/d rho <= (1+beta)/2 for rho >= 1,
    so t * (1+beta) / (2 sqrt(tau)) bounds the temporal contribution there
    (the few sub-unit panels absorb the remaining short-range phase).
    """
    x_scale = float(np.max(np.abs(x))) if x.size else 0.0
    return x_scale + ts[-1] * (1.0 + beta) / (2.0 * math.sqrt(tau))


def _fourier_field(
    x: np.ndarray,
    ts: tuple,
    p: ModelParams,
    q: QuadratureConfig,
    integrated: bool,
) -> np.ndarray:
    """Stage 2: sum each row of the spectral signal against cos(rho x)."""
    rho, wts = _rho_panels(_freq_scale(x, ts, p.beta, p.tau), q)
    damp = np.exp(-np.square(p.epsilon * rho) / 4.0)
    # Gauss nodes are interior and beta > 0 here, so every theta is positive
    signal = _spectral_signal(theta_of_rho(rho, p.beta), p.alpha, p.tau, q, integrated)
    values = np.empty((len(ts), x.size))

    def row(i: int) -> None:
        values[i] = _cosine_sweep(wts * damp * signal(ts[i]) / math.pi, rho, x)

    _map_rows(row, len(ts))
    return values


def kernel_eps(
    x_grid, t_list, p: ModelParams, q: QuadratureConfig | None = None
) -> Field:
    """Mollified point-source solution kernel K_eps on a space-time grid.

    Dispatches the limiting parameter edges to their dedicated forms instead
    of extrapolating the general assembly into corners its hypotheses exclude:
    beta = 0 (non-propagating), beta = 1 (time-fractional wave, via the cut
    representation in x-space), and alpha = 0 & beta = 1 (classical
    D'Alembert pair). alpha = 0 with 0 < beta < 1 keeps the two Fourier
    stages, with the closed-form order-zero signal.
    """
    return _kernel_eps_impl(x_grid, t_list, p, q, integrated=False)


def kernel_eps_time_integrated(
    x_grid, t_list, p: ModelParams, q: QuadratureConfig | None = None
) -> Field:
    """Time integral of K_eps over [0, t] for each requested t.

    Each spectral term is integrated analytically (exact antiderivatives), so
    this costs the same as kernel_eps; it is the building block for initial
    velocity data.
    """
    return _kernel_eps_impl(x_grid, t_list, p, q, integrated=True)


def _kernel_eps_impl(
    x_grid, t_list, p: ModelParams, q: QuadratureConfig | None, integrated: bool
) -> Field:
    validate_model(p)
    x, ts = _check_grids(x_grid, t_list)
    if q is None:
        q = QuadratureConfig.for_model(p)

    if p.beta == 0.0:
        base = np.asarray(delta_eps(x, p.epsilon), dtype=float)
        values = np.vstack([np.atleast_1d(base * (t if integrated else 1.0)) for t in ts])
    elif p.beta == 1.0 and p.alpha == 0.0:
        values = _classical_field(x, ts, p.tau, p.epsilon, integrated)
    elif p.beta == 1.0:
        values = _tf_field(x, ts, p.alpha, p.tau, p.epsilon, q, integrated)
    else:
        _require_rho_max(q, p.epsilon)
        values = _fourier_field(x, ts, p, q, integrated)
    _check_even(x, values)
    return Field(x, ts, values, _meta(asdict(p), q))


# ---------------------------------------------------------------------------
# Limiting forms
# ---------------------------------------------------------------------------


def _classical_field(
    x: np.ndarray, ts: tuple, tau: float, epsilon: float, integrated: bool
) -> np.ndarray:
    c = math.sqrt(2.0 / (1.0 + tau))
    values = np.empty((len(ts), x.size))
    for i, t in enumerate(ts):
        if integrated:
            # int_0^t (delta_eps(x - c t') + delta_eps(x + c t'))/2 dt'
            left = erf(x / epsilon) - erf((x - c * t) / epsilon)
            right = erf((x + c * t) / epsilon) - erf(x / epsilon)
            values[i] = (left + right) / (4.0 * c)
        else:
            values[i] = 0.5 * (
                np.asarray(delta_eps(x - c * t, epsilon))
                + np.asarray(delta_eps(x + c * t, epsilon))
            )
    return values


def kernel_classical(x_grid, t_list, tau: float, epsilon: float) -> Field:
    """Classical limit: half-weight mollified pulses at x = +-ct, c = sqrt(2/(1+tau)).

    tau = 1 is accepted here (and only here) so the equal-relaxation edge can
    be exercised directly in tests.
    """
    if not (isinstance(tau, (int, float)) and 0.0 < tau <= 1.0):
        raise ValidationError("tau", tau, "(0, 1]")
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon <= 1.0):
        raise ValidationError("epsilon", epsilon, "(0, 1]")
    x, ts = _check_grids(x_grid, t_list)
    values = _classical_field(x, ts, float(tau), float(epsilon), integrated=False)
    _check_even(x, values)
    meta = _meta(
        {"alpha": 0.0, "beta": 1.0, "tau": float(tau), "epsilon": float(epsilon)}, None
    )
    return Field(x, ts, values, meta)


# ---------------------------------------------------------------------------
# Time-fractional wave kernel (beta = 1)
# ---------------------------------------------------------------------------


def _tf_ray_angle(alpha: float) -> float:
    """Integration-ray angle for the cut representation at beta = 1.

    On the real axis the exponent's subexponential term grows like
    cos(alpha*pi) * r^(1-alpha) for alpha < 1/2; rotating the ray down past
    psi_kill = -(pi/2 - alpha*pi)/(1 - alpha) turns that term strictly
    decaying, and an extra 0.3 rad flattens the pre-asymptotic bump (measured:
    the residual exponent peak drops from ~18t to < 0.2t at alpha = 0.25).
    The rotation is capped short of -pi/2 so e^{-qt} keeps a positive decay
    rate; the sector swept is singularity-free for every alpha in (0,1), so
    the deformation is always valid inside the support cone.
    """
    base = (math.pi / 2.0 - alpha * math.pi) / (1.0 - alpha)
    return -min(max(base, 0.0) + 0.30, 1.50)


_TF_COND_BUDGET = 16.0  # e^16 * eps ~ 2e-9: rounding stays under abs_tol


def _tf_exponent_peak(
    y: np.ndarray, t: float, alpha: float, tau: float, psi: float, r_max: float
) -> np.ndarray:
    """max_r Re[y q f(q) - q t] along the ray, per y (diagnostic scan)."""
    phase = cmath.exp(1j * psi)
    r = np.geomspace(max(r_max * 1e-12, 1e-10), r_max, 1024)
    qq = r * phase
    w = np.power(qq, alpha) * cmath.exp(1j * alpha * math.pi)
    froot = np.sqrt((1.0 + tau * w) / (1.0 + w))  # principal root
    g = (qq * froot).real
    h = qq.real
    peaks = np.max(np.outer(y, g) - t * h[None, :], axis=1)
    return 1.15 * np.maximum(peaks, 0.0) + 0.5  # discrete-max safety margin


def _tf_smallness_bound(y: float, t: float, alpha: float, tau: float) -> float:
    """Computable upper bound on |K(y, t)| from a shifted inversion line.

    |K| <= (e^{s0 t}/2pi) Int |g(s0+ip)|/2 * e^{-y Re[(s0+ip) g(s0+ip)]} dp
    for every s0 > 0; minimised over a geometric s0 ladder. Re[s g(s)] grows
    like sqrt(tau) s0 + c |p|^{1-alpha} along the line, so each line integral
    converges and the bound decays like exp(-c m^{-(1-alpha)/alpha}) in the
    margin m = t - y sqrt(tau): the true near-front decay rate.
    """
    best = math.inf
    for s0 in np.geomspace(1.0, 1e8, 33):
        p = np.linspace(0.0, 400.0 * s0, 20001)
        s = s0 + 1j * p
        w = np.power(s, alpha)
        g = np.sqrt((1.0 + tau * w) / (1.0 + w))
        expo = s0 * t - y * (s * g).real
        peak = float(np.max(expo))
        if peak - 700.0 > math.log(max(best, 1e-300)):
            continue
        line = np.trapezoid(np.abs(g) * np.exp(expo - peak), p)
        # both half-lines, 1.5x for quadrature slack on a positive integrand
        val = 1.5 * 2.0 * math.exp(peak) * line / (4.0 * math.pi)
        best = min(best, val)
    return best


def _tf_kernel_rows(
    y: np.ndarray,
    t: float,
    alpha: float,
    tau: float,
    q: QuadratureConfig,
) -> np.ndarray:
    """Raw (unmollified) beta = 1 kernel K(y, t) on y >= 0 via the rotated ray.

    K(y,t) = -(1/2pi) * Im Int_0^inf f(q) e^{y q f(q)} e^{-qt} dq with
    f = sqrt((1 + tau w)/(1 + w)), w = q^alpha e^{i alpha pi}, the principal
    root on the upper side of the cut; the contour is rotated
    to arg q = psi(alpha), which is valid because f is analytic and bounded
    (|f| <= 1) in the intervening sector. Support: |y| < t/sqrt(tau).

    Points whose integrand would overflow the double-precision cancellation
    budget (possible close to the front for small alpha, where the
    pre-asymptotic window spans ~1/alpha decades) are only set to zero after
    the shifted-line bound certifies |K| < abs_tol there; otherwise the call
    fails loudly.
    """
    sqrt_tau = math.sqrt(tau)
    margin = t - y * sqrt_tau
    floor = 1e-4 * max(1.0, t)
    live = margin > floor
    out = np.zeros_like(y)
    if not np.any(live):
        return out

    psi = _tf_ray_angle(alpha)
    decay = math.cos(psi)
    phase = cmath.exp(1j * psi)
    r_max_all = min(60.0 / (float(np.min(margin[live])) * decay), q.q_max)

    peaks = np.zeros_like(y)
    peaks[live] = _tf_exponent_peak(y[live], t, alpha, tau, psi, r_max_all)
    conditioned = live & (peaks <= _TF_COND_BUDGET)
    uncertified = live & ~conditioned
    if np.any(uncertified):
        y_edge = float(np.min(y[uncertified]))
        bound = _tf_smallness_bound(y_edge, t, alpha, tau)
        if bound > q.abs_tol:
            raise NumericsError(
                "cut-integrand exponent exceeds the double-precision "
                f"cancellation budget at y >= {y_edge:g} and the shifted-line "
                "bound cannot certify the kernel is negligible there",
                achieved=bound,
            )

    if not np.any(conditioned):
        return out
    yy = y[conditioned]
    mm = margin[conditioned]
    r_max = min(60.0 / (float(np.min(mm)) * decay), q.q_max)
    first = max(min(0.02 / max(t, 1e-12), r_max / 64.0), 1e-12)
    edges = geometric_edges(0.0, r_max, first, ratio=1.7)

    vals = np.empty_like(yy)
    for start in range(0, yy.size, _CHUNK):
        y_c = yy[start : start + _CHUNK]

        def f(r: np.ndarray) -> np.ndarray:
            qq = r * phase
            w = np.power(qq, alpha) * cmath.exp(1j * alpha * math.pi)
            froot = np.sqrt((1.0 + tau * w) / (1.0 + w))
            expo = np.outer(qq * froot, y_c) - (qq * t)[:, None]
            if np.any(expo.real > _TF_COND_BUDGET + 2.0):
                raise NumericsError(
                    "growth detected in the cut-integrand exponent "
                    "(positive real part after branch selection)",
                    achieved=float(np.max(expo.real)),
                )
            # dq = e^{i psi} dr is already folded in, so Im[] of this is the
            # full contour integrand
            integrand = (froot * phase)[:, None] * np.exp(expo)
            return integrand.imag * (-1.0 / (2.0 * math.pi))

        val, _err = adaptive_gk(
            f, edges, rel_tol=q.rel_tol, abs_tol=q.abs_tol, what="cut integral"
        )
        vals[start : start + _CHUNK] = np.atleast_1d(val)
    out[conditioned] = vals
    return out


def _tf_field_rows(
    x: np.ndarray,
    ts: tuple,
    alpha: float,
    tau: float,
    epsilon: float,
    q: QuadratureConfig,
) -> np.ndarray:
    """Mollified beta = 1 field: K(., t) convolved with delta_eps on a fine grid."""
    sqrt_tau = math.sqrt(tau)
    x_abs_max = float(np.max(np.abs(x))) if x.size else 0.0
    spacing = epsilon / 4.0
    values = np.empty((len(ts), x.size))

    def row(i: int) -> None:
        t = ts[i]
        y_max = min(t / sqrt_tau, x_abs_max + 6.0 * epsilon)
        n_y = max(int(math.ceil(y_max / spacing)) + 1, 8)
        y = np.linspace(0.0, n_y * spacing, n_y + 1)
        k_raw = _tf_kernel_rows(y, t, alpha, tau, q)
        # trapezoid weights; the half weight at y = 0 exactly compensates the
        # mirror term delta_eps(x+y) coinciding with delta_eps(x-y) there
        w = np.full(y.size, spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        kw = k_raw * w
        row_vals = np.zeros(x.size)
        for start in range(0, y.size, _CHUNK):
            y_c = y[start : start + _CHUNK]
            g = np.asarray(delta_eps(x[:, None] - y_c[None, :], epsilon))
            g += np.asarray(delta_eps(x[:, None] + y_c[None, :], epsilon))
            g *= kw[start : start + _CHUNK][None, :]
            row_vals += g.sum(axis=1)
        values[i] = row_vals

    _map_rows(row, len(ts))
    return values


def _tf_field(
    x: np.ndarray,
    ts: tuple,
    alpha: float,
    tau: float,
    epsilon: float,
    q: QuadratureConfig,
    integrated: bool,
) -> np.ndarray:
    if not integrated:
        return _tf_field_rows(x, ts, alpha, tau, epsilon, q)
    # No absolutely convergent cut form exists for the time integral (the
    # deformation of the 1/s term diverges on the left arc), so integrate
    # the kernel rows in t' by Gauss panels over the support [y*sqrt(tau), t].
    values = np.empty((len(ts), x.size))
    for i, t in enumerate(ts):
        tp, tw = _gauss_panels(np.linspace(0.0, t, max(8, int(math.ceil(t / 0.1))) + 1))
        sub = _tf_field_rows(x, tuple(tp), alpha, tau, epsilon, q)
        values[i] = np.einsum("p,px->x", tw, sub)
    return values


def kernel_time_fractional(
    x_grid,
    t_list,
    alpha: float,
    tau: float,
    epsilon: float,
    q: QuadratureConfig | None = None,
) -> Field:
    """Time-fractional wave kernel (beta = 1) from its x-space cut integral.

    Independent of the Fourier assembly: the spatial transform is inverted
    analytically first, leaving one branch-cut integral per point. The kernel
    is supported inside the cone |x| < t/sqrt(tau) and is identically zero
    outside; the result is mollified with delta_eps to match kernel_eps.
    """
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
        raise ValidationError("alpha", alpha, "(0, 1) (alpha = 0 is the classical pair)")
    return kernel_eps(x_grid, t_list, ModelParams(alpha, 1.0, tau, epsilon), q)

"""Solution kernels: spectral signal, Fourier transform, limiting forms.

Fields with 0 < beta < 1 are built in two stages. Stage 1 starts from a
node-only plan, :func:`_stage1`: the Gauss nodes rho_j, their damped weights,
theta(rho_j), the zero pairs (one real-arithmetic power per node per Newton
step), the chirp-z plan and the cosines of its 8-point dense spot check. The
solver passes one lattice of |x - y| values per convolution and opens
:func:`_shared_stage1` around each call, so the kernel and its time integral
on one lattice share one plan and one zero-pair batch; no plan outlives that
call. :func:`_spectral_signal` then maps the plan to t -> S(theta(rho_j), t),
the inverse Laplace transform of s / (s^2 + theta * zener_ratio(s)), or its
integral over [0, t]: a closed form at alpha = 0, otherwise the conjugate-pole
residue pair plus a branch-cut integral, both tabulated in log theta by
chopped Chebyshev series (zeros once per plan, the spot-checked branch
integral once per t and mode). Stage 2, :func:`_fourier_field`, sums each row,
damped by the Gaussian mollifier e^{-(eps*rho)^2/4}, against cos(rho*x): by
chirp-z transforms on a uniform x grid, each checked by one product with the
plan's probe cosines, and by a dense sweep on any other. The edges beta = 0,
beta = 1 and the classical pair bypass the transform; :func:`_kernel_eps_impl`
wraps the values of every route in a :class:`Field`.

Everything here is deterministic by construction: panel subdivision depends
only on inputs, each row's chirp-z transform runs on its own FFT buffers, and
the dense sweep reduces in a fixed chunked order, so a run with
FZWAVE_THREADS=8 is byte-identical to a serial one (threads only split work
across rows of the time grid).
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._quad import adaptive_gk, geometric_edges, log_cheb_table
from .charfun import CharParams, _psi_prime, branch_values, theta_of_rho, zener_ratio
from .errors import NumericsError, ValidationError
from .params import ModelParams
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
_Q_MAX = 1e6  # cap on every branch- and cut-integral truncation point
_PANELS_PER_PERIOD = 8  # equal rho panels per 2*pi of the integrand's phase
# rho nodes one field may ask for; each costs ~210 B of peak memory, ~0.9 GB in all
_RHO_NODE_BUDGET = 4_000_000
_erf = np.vectorize(math.erf, otypes=[float])


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
    """Tolerances and truncation bound for kernel and field assembly.

    rel_tol and abs_tol are the quadrature targets. rho_max truncates the
    Fourier integral and must honour the mollifier bound
    rho_max >= (2/eps) * sqrt(ln(1/abs_tol)); use :meth:`for_model` to derive
    it from a model's eps rather than guessing. The branch-integral cap
    (_Q_MAX) and the rho panel density (_PANELS_PER_PERIOD) are module
    constants.
    """

    rho_max: float = 860.0
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rho_max", "rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) and v > 0.0):
                raise ValidationError(name, v, "positive real")
        if self.rel_tol < 1e-12:
            raise ValidationError(
                "rel_tol", self.rel_tol,
                ">= 1e-12 (tighter targets are below attainable rounding noise)",
            )

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
    if _symmetric(x):
        skew = np.max(np.abs(values - values[:, ::-1]))
        if skew > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
            raise NumericsError(
                "kernel assembly lost evenness on a symmetric grid "
                f"(max asymmetry {skew:.3e})",
                achieved=float(skew),
            )


def _symmetric(x: np.ndarray) -> bool:
    """x is its own mirror image to 1e-12 of its scale."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(x))))
    return x.size > 1 and abs(x[0] + x[-1]) <= tol and np.max(np.abs(x + x[::-1])) <= tol


def laplace_kernel_hat(rho: float, s: complex, p: ModelParams) -> complex:
    """Laplace-domain kernel s / (s^2 + theta(rho) * zener_ratio(s)).

    Reduces to 1/s when theta(rho) vanishes (rho = 0 or beta = 0).
    """
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
        q_cut = min(_Q_MAX, max(50.0 / t, q_pow))
        u_max = t * q_cut
    else:
        q_cut = min(_Q_MAX, max(50.0 / t, 1e3 * math.sqrt(theta_top)))
        u_max = min(max(45.0, t * q_cut), 700.0)

    first = max(min(0.05, u_lo_scale / 8.0, u_max / 64.0), 1e-12)
    edges = geometric_edges(0.0, u_max, first, ratio=1.7)

    def f(u: np.ndarray) -> np.ndarray:
        qq = u / t
        fp = branch_values(qq, alpha, tau)[0]
        a = np.square(qq)[:, None] + np.outer(fp.real, theta)
        b = np.outer(fp.imag, theta)
        core = -b / (a * a + b * b) / math.pi
        if integrated:
            w = np.where(u > 1e-8, -np.expm1(-u) / np.where(u > 0, u, 1.0), 1.0 - 0.5 * u)
            return core * (qq * t * w)[:, None]
        return core * (qq * np.exp(-u) / t)[:, None]

    val, _err = adaptive_gk(
        f, edges, rel_tol=q.rel_tol, abs_tol=q.abs_tol, what="branch integral"
    )
    return np.atleast_1d(val)


def _spectral_signal(
    plan: _Stage1, p: ModelParams, q: QuadratureConfig, integrated: bool
) -> Callable[[float], np.ndarray]:
    """Stage 1: the map t -> S(theta, t), or its integral over [0, t], at plan.theta.

    At alpha = 0 every mode is cos(omega t) with omega = sqrt(2 theta/(1+tau)),
    integral sin(omega t)/omega (-> t as omega -> 0). Otherwise S is the
    residue pair of the plan's zeros s_z plus the branch part; integrated,
    each residue term s e^{st}/psi'(s) becomes its exact antiderivative
    (e^{st} - 1)/psi'(s). The branch part, smooth in log theta, is integrated
    per t only at the points of a Chebyshev table within plan.budget, and at
    8 nodes that must match the table.
    """
    alpha, tau, theta = p.alpha, p.tau, plan.theta
    if alpha == 0.0:
        omega = np.sqrt(2.0 * theta / (1.0 + tau))
        if integrated:
            return lambda t: t * np.sinc(omega * t / math.pi)
        return lambda t: np.cos(t * omega)

    s_z, psi_p = plan.roots
    u, lo, hi = np.log(theta), float(np.min(theta)), float(np.max(theta))

    def signal(t: float) -> np.ndarray:
        def branch(th: np.ndarray) -> np.ndarray:
            return _branch_part(th, t, alpha, tau, q, integrated)

        table = log_cheb_table(branch, lo, hi, plan.budget, "branch table")(u)
        _spot_check(table, lambda k: branch(theta[k]), q.abs_tol, q.rel_tol,
                    "Chebyshev branch table disagrees with the branch integral")
        residue = np.exp(s_z * t) - 1.0 if integrated else s_z * np.exp(s_z * t)
        return table + 2.0 * np.real(residue / psi_p)

    return signal


def spectral_kernel(
    rho: float, t: float, p: ModelParams, q: QuadratureConfig = QuadratureConfig()
) -> SpectralKernel:
    """Residue-plus-branch-cut evaluation of one spectral mode, certified.

    The conjugate pole pair is located and certified by the winding-number
    test before use; the imaginary residual of the explicitly summed pair is
    asserted below 1e-10 relative and then discarded.
    """
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
    try:
        x = np.asarray(x_grid, dtype=float)
        arr = np.atleast_1d(np.asarray(t_list, dtype=float))
    except (TypeError, ValueError):
        raise ValidationError("x_grid/t_list", t_list, "arrays of real numbers") from None
    if x.ndim != 1 or x.size < 1 or not np.all(np.isfinite(x)):
        raise ValidationError("x_grid", "<array>", "finite 1-d array")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("x_grid", "<array>", "strictly increasing")
    if (arr.ndim != 1 or arr.size < 1 or np.any(arr <= 0) or np.any(~np.isfinite(arr))
            or np.any(np.diff(arr) <= 0)):
        raise ValidationError("t_list", t_list, "strictly increasing positive reals")
    return x, tuple(arr.tolist())


def _rho_panels(freq_scale: float, q: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights tiling (0, rho_max] at _PANELS_PER_PERIOD density.

    freq_scale is the largest phase rate (radians per unit rho) the integrand
    carries: the cos(rho x) sweep contributes max|x| and the spectral factor
    contributes ~ t * d|s_z|/d rho through its oscillating pole pair. A node
    count above _RHO_NODE_BUDGET is refused before anything is allocated.
    """
    width = min(2.0 * math.pi / (_PANELS_PER_PERIOD * max(freq_scale, 1e-9)), 0.5)
    n_panels = max(int(math.ceil(q.rho_max / width)), 1)
    n_nodes = n_panels * _GL_NODES.size
    if n_nodes > _RHO_NODE_BUDGET:
        raise ValidationError(
            "t_list", f"a latest t needing {n_nodes:,} rho nodes",
            f"at most {_RHO_NODE_BUDGET:,} rho nodes (the count grows with max t and max|x|)",
        )
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


def _chirp_plan(rho_max: float, n_panels: int, x: np.ndarray) -> Callable | None:
    """The cosine sweep as eight chirp-z transforms; None unless x is uniform.

    Node family k of the equal panels is the uniform grid c_k + p*delta, so
    for x_i = x0 + i*h its sum is Re[e^{i c_k x_i} sum_p b_p e^{i w p i}] with
    w = delta*h and b_p = coeff_{p,k} e^{i p delta x0}. Bluestein's identity
    p*i = (p^2 + i^2 - (i-p)^2)/2 makes the inner sum one FFT convolution with
    the chirp e^{-i w m^2/2}, shared by every family and row. Uniform means at
    least 2 points, each within a few ulps of x0 + i*h.
    """
    n = x.size
    if n < 2:
        return None
    i = np.arange(n)
    h = (x[-1] - x[0]) / (n - 1)
    if np.max(np.abs(x - (x[0] + h * i))) > 4.0 * np.spacing(np.max(np.abs(x))):
        return None
    delta = rho_max / n_panels
    w = delta * h
    p = np.arange(n_panels)
    size = 1 << (n_panels + n - 2).bit_length()  # no wrap-around: >= n_panels + n - 1
    # chirp e^{i w m^2/2}: w_hi * m^2 is exact in double precision, so its phase
    # is right to rounding however large, and (w - w_hi) * m^2 is too small to lose any
    m2 = np.square(np.arange(max(n, n_panels)), dtype=float)
    scale = math.ldexp(1.0, 53 - int(m2[-1]).bit_length() - math.frexp(w)[1])
    w_hi = math.floor(w * scale) / scale
    chirp = np.exp(1j * (0.5 * w_hi * m2)) * np.exp(1j * (0.5 * (w - w_hi) * m2))
    pad = np.zeros(size - n - n_panels + 1)
    spectrum = np.fft.fft(np.concatenate([chirp[:n], pad, chirp[n_panels - 1 : 0 : -1]]).conj())
    pre = np.exp(1j * delta * x[0] * p) * chirp[:n_panels]
    post = np.exp(1j * np.outer(0.5 * delta * (1.0 + _GL_NODES), x)) * chirp[:n]

    def sweep(coeff: np.ndarray) -> np.ndarray:
        u = np.fft.fft(coeff.reshape(n_panels, _GL_NODES.size).T * pre, size)
        u *= spectrum
        return np.real(np.fft.ifft(u)[:, :n] * post).sum(axis=0)

    return sweep


def _spot_indices(n: int) -> np.ndarray:
    """8 fixed indices into n points, the first and last included."""
    return np.unique(np.linspace(0, n - 1, 8).round().astype(int))


def _probe_table(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """cos(rho_j x_k) at the spot-check points x_k of x, one row per point."""
    table = np.outer(x[_spot_indices(x.size)], rho)
    return np.cos(table, out=table)


def _spot_check(fast: np.ndarray, exact_at: Callable, abs_tol: float, rel_tol: float,
                what: str) -> None:
    """exact_at(idx) at the _spot_indices of fast must match fast[idx] within
    max(abs_tol, rel_tol * |exact|); NumericsError(what) if not."""
    idx = _spot_indices(fast.size)
    exact = exact_at(idx)
    gap = np.abs(fast[idx] - exact)
    if np.any(gap > np.maximum(abs_tol, rel_tol * np.abs(exact))):
        raise NumericsError(what, achieved=float(np.max(gap)))


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


@dataclass(frozen=True)
class _Stage1:
    """The node-only part of a field on (x, ts, p, q), shared by both modes.

    ``weights`` are the Gauss weights times the mollifier damping, ``budget``
    the uniform signal error the branch tables may carry, ``roots`` the zero
    pairs (s_z, psi'(s_z)) of every node (None at alpha = 0), ``fast`` the
    chirp-z transform on ``x[half:]`` (None unless that grid is uniform), and
    ``probe`` the cosines of its dense spot check (None with ``fast``).
    """

    rho: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    budget: float
    roots: tuple | None
    half: int
    fast: Callable | None
    probe: np.ndarray | None


# The stage-1 plans of the innermost open _shared_stage1() block, else None.
_PLANS: ContextVar[dict | None] = ContextVar("fzwave_stage1_plans", default=None)


@contextmanager
def _shared_stage1():
    """Within the block, fields on the same (x, ts, p, q) share one stage-1 plan.

    The solver opens one per call, so its two convolution terms on one lattice
    run a single zero-pair batch; plans die with the block.
    """
    token = _PLANS.set({})
    try:
        yield
    finally:
        _PLANS.reset(token)


def _stage1(x: np.ndarray, ts: tuple, p: ModelParams, q: QuadratureConfig) -> _Stage1:
    """Build, or inside a _shared_stage1() block reuse, the stage-1 plan of a field."""
    plans = _PLANS.get()
    key = (x.tobytes(), ts, p, q)
    if plans is not None and key in plans:
        return plans[key]
    rho, wts = _rho_panels(_freq_scale(x, ts, p.beta, p.tau), q)
    weights = wts * np.exp(-np.square(p.epsilon * rho) / 4.0)
    # Gauss nodes are interior and beta > 0 here, so every theta is positive
    theta = theta_of_rho(rho, p.beta)
    half = x.size // 2 if _symmetric(x) else 0
    fast = _chirp_plan(q.rho_max, rho.size // _GL_NODES.size, x[half:])
    plan = _Stage1(
        rho=rho,
        weights=weights,
        theta=theta,
        # a uniform signal error e moves a row by at most e * sum|w damp| / pi
        budget=1e-2 * q.abs_tol * math.pi / float(np.sum(weights)),
        roots=None if p.alpha == 0.0 else _zero_pair_batch(p.alpha, p.tau, theta),
        half=half,
        fast=fast,
        probe=None if fast is None else _probe_table(rho, x[half:]),
    )
    if plans is not None:
        plans[key] = plan
    return plan


def _fourier_field(
    x: np.ndarray,
    ts: tuple,
    p: ModelParams,
    q: QuadratureConfig,
    integrated: bool,
) -> np.ndarray:
    """Stage 2: sum each row of the spectral signal against cos(rho x).

    A symmetric grid is summed on x >= 0 and mirrored, so rows are exactly
    even; uniform x takes the spot-checked chirp-z transform, any other x the
    dense sweep.
    """
    plan = _stage1(x, ts, p, q)
    signal = _spectral_signal(plan, p, q, integrated)
    half, fast = plan.half, plan.fast
    values = np.empty((len(ts), x.size))

    def row(i: int) -> None:
        coeff = plan.weights * signal(ts[i]) / math.pi
        if fast is None:
            values[i, half:] = _cosine_sweep(coeff, plan.rho, x[half:])
        else:
            values[i, half:] = fast(coeff)
            # the probe rows are the cosines at exactly these _spot_indices
            _spot_check(values[i, half:], lambda _idx: plan.probe @ coeff,
                        1e-12 * float(np.sum(np.abs(coeff))), 0.0,
                        "chirp-z transform disagrees with the dense cosine sum")

    _map_rows(row, len(ts))
    values[:, :half] = values[:, ::-1][:, :half]
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
    ct = c * np.array(ts)[:, None]
    if integrated:
        # int_0^t (delta_eps(x - c t') + delta_eps(x + c t'))/2 dt'
        return (_erf((x + ct) / epsilon) - _erf((x - ct) / epsilon)) / (4.0 * c)
    return 0.5 * (delta_eps(x - ct, epsilon) + delta_eps(x + ct, epsilon))


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
    r_max_all = min(60.0 / (float(np.min(margin[live])) * decay), _Q_MAX)

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
    r_max = min(60.0 / (float(np.min(mm)) * decay), _Q_MAX)
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

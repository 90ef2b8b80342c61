"""Solution kernels: spectral signal, Fourier transform, limiting forms.

Fields are built in two stages. Stage 1 starts from a
node-only plan, :func:`_stage1`: the Gauss nodes rho_j, their damped weights
and theta(rho_j). A kernel's plan resolves the phase rates of its own x grid; the
solver builds one plan per distinct initial datum, resolving x - y over the
datum's support, with the panels cut short where a Gaussian datum's transform
has decayed. :func:`_spectral_signal` then maps the plan to
S(theta(rho_j), t) for each t in turn, the inverse Laplace transform of
s / (s^2 + theta * zener_ratio(s)), or its integral over [0, t]: a closed form
at alpha = 0 and beta = 0, otherwise the conjugate-pole residue pair plus a branch-cut
integral, both tabulated in log theta by chopped Chebyshev series (zeros once
per plan, one real-arithmetic power per node per Newton step, and only when
a table reads them; per t, one adaptive pass for the spot-checked branch integral of
every mode) and read at every node through one recurrence basis and matrix
product (_quad.eval_tables): the branch tables of every t row at once, unless
the field is so large that its rows are read in groups. Stage 2,
:func:`_fourier_rows`, sums each row Re[sum_j c_j e^{i rho_j x}] with
c_j = w_j e^{-(eps rho_j)^2/4} sum_d hat_d(rho_j) S_d(rho_j, t) / pi, where
hat_d is a datum's Fourier transform (1 for the kernel itself). The plan's
nodes are one lattice, node p*8 + k at p*delta + c_k (:func:`_gauss_panels`),
and every stage-2 sum factors e^{i rho x} over that lattice. On rows of at
most _FACTORED_MAX points (after mirroring) and on any non-uniform x, the
sum is one exact factored matrix product (:func:`_factored_plan`); wider
uniform rows take chirp-z transforms, each checked against the factored sum
at 8 points. At beta = 1, alpha > 0 the time integral's signal is the transform of
its x-space cut integral (:func:`_tf_samples`), one matrix product per t, for
a point source and distributed data alike. Only the closed forms (beta = 0,
the classical pair; :func:`_closed_form`) bypass the transform, and
:func:`_kernel_eps_impl` wraps every route's values in a :class:`Field`. The
one sum left in x is kernel_time_fractional's: K's cut samples against
delta_eps, an oracle independent of both stages.

Everything here is deterministic by construction: panel subdivision depends
only on inputs, the rows of the time grid run one after another, and every
sum reduces in a fixed order. The factored sum, the sampled-data sums, the
cut transform and the table reads are all one helper's matrix products
(_quad._serial_product), run in blocks that BLAS keeps on one thread, so
BLAS's thread count does not change their bits either. Every quadrature,
table and spot check aims at the fixed targets _ABS_TOL and _REL_TOL, and the
Fourier integral ends at :func:`_rho_max`, which follows from eps.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from ._quad import _serial_product, adaptive_gk, eval_tables, geometric_edges, log_cheb_table
from .charfun import (CharParams, _elastic_frequency, _psi_prime, branch_values, theta_of_rho,
                      zener_ratio)
from .errors import NumericsError, ValidationError
from .params import ModelParams, _require_in, _require_reals
from .rootfinder import _zero_pair_batch, find_zero_pair

__all__ = [
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

# the 8-point Gauss-Legendre rule on [-1, 1], as numpy's leggauss(8) gives it
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706])
# fixed chunk width, so memory stays bounded and the reduction order fixed: points
# per chunk of _tf_kernel_rows and of both axes of kernel_time_fractional's sum,
# and 64 * _CHUNK terms per block of solver._segment_transform
_CHUNK = 1024
_Q_MAX = 1e6  # cap on every branch- and cut-integral truncation point
_PANELS_PER_PERIOD = 8  # equal rho panels per 2*pi of the integrand's phase
# rho nodes one field may ask for; each costs ~205 B of peak memory (at most ~215 B
# where chirp-z serves the rows), ~0.85 GB in all
_RHO_NODE_BUDGET = 4_000_000
_RHO_MAX_MARGIN = 1.002  # factor over the tail bound at which rho panels are cut
# the accuracy every quadrature, table and spot check of a field aims at
_ABS_TOL = 1e-8
_REL_TOL = 1e-6
# widest uniform row (after mirroring) that the factored sum serves: its cost
# grows with the width, and past about 256 points chirp-z and its check cost less
_FACTORED_MAX = 256
# points per chunk of _scattered_sums, the depth of its product: _quad._serial_product cuts
# it into 32 x 32 blocks of outputs (1024 points, 16 x 16 blocks, made a sampled solve 1.3x slower)
_SCATTER_CHUNK = 256
# table values (t rows x tabled modes x rho nodes) that one read of the branch
# tables may hold (32 MB): a field whose single row holds more reads its rows one by one
_GROUP_VALUES = 1 << 22
_erf = np.vectorize(math.erf, otypes=[float])


def delta_eps(x: np.ndarray | float, epsilon: float) -> np.ndarray | float:
    """Gaussian mollifier delta_eps(x) = exp(-x^2/eps^2) / (eps*sqrt(pi))."""
    _require_in("epsilon", epsilon, "(0, inf)")
    return np.exp(-np.square(np.asarray(x, dtype=float) / epsilon)) / (
        epsilon * math.sqrt(math.pi)
    )


def _rho_max(epsilon: float, width: float = 0.0) -> float:
    """Where the Fourier integral is cut: _RHO_MAX_MARGIN past the rho at which
    e^{-(s rho)^2/4}, s = hypot(eps, width), falls to _ABS_TOL (the mollifier
    alone, or its product with the transform of a Gaussian of that width)."""
    tail = (2.0 / math.hypot(epsilon, width)) * math.sqrt(math.log(1.0 / _ABS_TOL))
    return tail * _RHO_MAX_MARGIN


@dataclass(frozen=True)
class SpectralKernel:
    """One Fourier mode of the solution kernel, split into its two parts."""

    rho: float
    t: float
    branch_part: float
    residue_part: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v)
                   for v in (self.rho, self.t, self.branch_part, self.residue_part)):
            raise ValidationError("SpectralKernel", "non-finite entry", "finite fields")

    @property
    def total(self) -> float:
        return self.branch_part + self.residue_part


def _meta(model: dict, quadrature: bool) -> dict:
    """The model and, unless the values are a closed form, the accuracy targets
    they were computed to."""
    snap = None
    if quadrature:
        snap = {"rho_max": _rho_max(model["epsilon"]), "rel_tol": _REL_TOL, "abs_tol": _ABS_TOL}
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


def _symmetric(x: np.ndarray) -> bool:
    """x is its own mirror image to 1e-12 of its scale."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(x))))
    return x.size > 1 and abs(x[0] + x[-1]) <= tol and np.max(np.abs(x + x[::-1])) <= tol


def laplace_kernel_hat(rho: float, s: complex, p: ModelParams) -> complex:
    """Laplace-domain kernel s / (s^2 + theta(rho) * zener_ratio(s)).

    Reduces to 1/s when theta(rho) vanishes (rho = 0 or beta = 0).
    """
    _require_in("rho", rho, "[0, inf)")
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
    _require_in("beta", beta, "[0, 1]")
    _require_in("tau", tau, "(0, 1)")
    rho_a = _require_reals("rho", rho, "[0, inf)")
    t_a = _require_reals("t", t, "[0, inf)")
    omega = _elastic_frequency(theta_of_rho(rho_a, beta), tau)
    out = np.cos(t_a * omega)
    return float(out[0]) if np.isscalar(rho) and np.isscalar(t) else out


def _branch_span(top: float, t: float, alpha: float, tau: float, integrated: bool) -> float:
    """Where a mode's branch integral in u = qt ends, for theta up to top: the
    time integral's tail ~ C*theta*q^(-4-a) must clear _ABS_TOL, e^{-u} 700 at most."""
    if integrated:
        c_tail = (1.0 - tau) * math.sin(alpha * math.pi) / (math.pi * tau * tau)
        q_pow = (c_tail * top / ((3.0 + alpha) * _ABS_TOL)) ** (1.0 / (3.0 + alpha))
        return t * min(_Q_MAX, max(50.0 / t, q_pow))
    return min(max(45.0, t * min(_Q_MAX, max(50.0 / t, 1e3 * math.sqrt(top)))), 700.0)


def _branch_part(theta: np.ndarray, t: float, alpha: float, tau: float,
                 modes: tuple = (False,)) -> np.ndarray:
    """Branch-cut part of S(., t) at theta > 0, one row per mode; a mode flagged
    True is its exact time integral over [0, t] (the integrand gains
    (1 - e^{-qt})/q). All modes weigh one Im[1/(q^2 + theta F(q))], so they are
    one adaptive pass, out to the widest mode's span from the smallest first
    width (e^{-u} adds nothing past u = 700).

    The panels grow by 2.5: on [a, r a], whose nearest singularity is the
    endpoint u = 0, the K15 error falls like rho^-23 with rho = c + sqrt(c^2 - 1),
    c = (r + 1)/(r - 1): about 1e-15 at r = 2.5 (6e-21 at r = 1.7, with 1.7
    times the panels), and adaptive_gk still bisects every panel its G7/K15
    estimate flags. Wider panels lose accuracy: at r = 3 the (0.9, 0.45, 0.9)
    branch table at t = 2 missed its 3.5e-12 budget against these per-node
    values (4.3e-12)."""
    u_lo_scale = min(1.0, t * math.sqrt(float(np.min(theta))))
    spans = [_branch_span(float(np.max(theta)), t, alpha, tau, m) for m in modes]
    first = max(min(0.05, u_lo_scale / 8.0, min(spans) / 64.0), 1e-12)
    edges = geometric_edges(0.0, max(spans), first, ratio=2.5)

    def f(u: np.ndarray) -> np.ndarray:
        qq = u / t
        fp = branch_values(qq, alpha, tau)[0]
        a = np.outer(fp.real, theta)
        a += np.square(qq)[:, None]
        b = np.outer(fp.imag, theta)
        a *= a
        a += np.square(b)
        core = np.divide(b, a, out=b)
        core /= -math.pi  # -b / (a^2 + b^2) / pi, to the bit
        out = np.empty((u.size, len(modes), theta.size))
        for k, integrated in enumerate(modes):
            if integrated:  # q t (1 - e^{-u})/u
                w = np.where(u > 1e-8, -np.expm1(-u) / np.where(u > 0, u, 1.0), 1.0 - 0.5 * u)
                weight = qq * t * w
            else:
                weight = qq * np.exp(-u) / t
            np.multiply(core, weight[:, None], out=out[:, k])
        return out.reshape(u.size, -1)

    val, _err = adaptive_gk(f, edges, rel_tol=_REL_TOL, abs_tol=_ABS_TOL,
                            what="branch integral")
    return np.reshape(val, (len(modes), theta.size))


def _spectral_signal(plan: _Stage1, p: ModelParams, modes: tuple, ts: tuple) -> Iterator[list]:
    """Stage 1: [S(theta, t) per mode] at plan.theta for each t of ts in turn,
    a mode flagged True taking S's integral over [0, t] instead.

    Without zeros (alpha = 0, or beta = 0 where theta is 0, so S = 1 and its
    integral t) every mode is cos(omega t) with omega = sqrt(2 theta/(1+tau)),
    integral sin(omega t)/omega (-> t as omega -> 0). At beta = 1 the integral
    is the transform of its x-space cut integral, 2 Re sum_y w_y int K(y, t)
    e^{-i rho y} over the samples of :func:`_tf_samples` out to plan.reach
    + 6 eps: one :func:`_scattered_sums` product per t. Otherwise S is the
    residue pair of the zeros s_z at plan.theta (one batch, made only when a
    mode is tabled) plus the branch part; integrated,
    each residue term s e^{st}/psi'(s) becomes its exact antiderivative
    (e^{st} - 1)/psi'(s), both from one e^{st} per t. The branch part,
    smooth in log theta, is integrated per t, all tabled modes in one pass,
    only at the points of a Chebyshev table within plan.budget and at 8
    nodes where every mode's table must match it. The rows come in groups of
    at most _GROUP_VALUES table values: a group's tables are all built first,
    then one _quad.eval_tables call reads them at the nodes, so the basis is
    built once per group, and once per field unless the field is large. The
    zeros are found by the call itself and each group as the returned
    iterator reaches it, so no more than one group is held at a time.
    """
    alpha, tau, theta = p.alpha, p.tau, plan.theta
    if alpha == 0.0 or p.beta == 0.0:
        omega = _elastic_frequency(theta, tau)
        return ([t * np.sinc(omega * t / math.pi) if integrated else np.cos(t * omega)
                 for integrated in modes] for t in ts)

    cut = p.beta == 1.0 and any(modes)
    tabled = tuple(m for m in modes if not (cut and m))
    if tabled:  # only the tables read the zeros and log theta
        lo, hi = float(np.min(theta)), float(np.max(theta))
        if lo == 0.0:
            raise NumericsError("theta(rho) underflows to 0 at the smallest rho nodes, where "
                                "the branch tables' variable log theta does not exist")
        s_z, psi_p = _zero_pair_batch(alpha, tau, theta)
        u, spot = np.log(theta), theta[_spot_indices(theta.size)]

    def branch_tables(t: float) -> tuple[list, np.ndarray]:
        """Every tabled mode's branch table at t, and the spot nodes' branch
        integrals from the table's first pass."""
        direct = []

        def branch(th: np.ndarray) -> np.ndarray:
            extra = spot[:0] if direct else spot
            vals = _branch_part(np.concatenate([th, extra]), t, alpha, tau, tabled)
            direct.append(vals[:, th.size :])
            return vals[:, : th.size].T

        return log_cheb_table(branch, lo, hi, plan.budget, "branch table"), direct[0]

    def table_rows(group: tuple) -> list:
        tables, exact = zip(*(branch_tables(t) for t in group))
        values = eval_tables([table for row in tables for table in row], u, lo, hi)
        rows = values.reshape(len(group), len(tabled), -1)
        for t, row, row_exact in zip(group, rows, exact):
            growth = s_z * t  # in place here and below, as the group's values are held
            np.exp(growth, out=growth)
            for integrated, vals, spot_exact in zip(tabled, row, row_exact):
                _spot_check(vals, lambda _idx: spot_exact, _ABS_TOL, _REL_TOL,
                            "Chebyshev branch table disagrees with the branch integral")
                residue = growth - 1.0 if integrated else s_z * growth
                residue /= psi_p
                residue.real *= 2.0
                vals += residue.real
        return [list(row) for row in rows]

    def signals() -> Iterator[list]:
        per_group = max(1, _GROUP_VALUES // (len(tabled) * theta.size)) if tabled else len(ts)
        for start in range(0, len(ts), per_group):
            group = ts[start : start + per_group]
            for t, row in zip(group, table_rows(group) if tabled else [[]] * len(group)):
                if not cut:
                    yield row
                    continue
                rows = iter(row)
                y, kw = _tf_samples(t, plan.reach, alpha, tau, p.epsilon, True)
                integral = 2.0 * _scattered_sums(kw, y, plan.delta, plan.rho.size)[0].real
                yield [integral if integrated else next(rows) for integrated in modes]

    return signals()


def spectral_kernel(rho: float, t: float, p: ModelParams) -> SpectralKernel:
    """Residue-plus-branch-cut evaluation of one spectral mode, certified.

    The conjugate pole pair is located and certified by the winding-number
    test before use. Its residues s e^{st}/psi'(s) at s_z and at the conjugate
    zero are conjugates bit for bit (charfun._power and cmath.exp are exactly
    conjugate-symmetric), so the pair sums to 2 Re[s_z e^{s_z t}/psi'(s_z)],
    the form :func:`_spectral_signal` reads.
    """
    _require_in("alpha", p.alpha, "(0, 1) (the order-zero case has its own closed form)")
    _require_in("rho", rho, "[0, inf)")
    _require_in("t", t, "(0, inf)")
    theta = float(theta_of_rho(rho, p.beta))
    if theta == 0.0:
        # the transform degenerates to 1/s: a unit step carried by the pole part
        return SpectralKernel(rho=float(rho), t=float(t), branch_part=0.0, residue_part=1.0)

    s = find_zero_pair(CharParams(alpha=p.alpha, tau=p.tau, theta=theta)).s_z
    residue = 2.0 * (s * cmath.exp(s * t) / complex(_psi_prime(s, p.alpha, p.tau, theta))).real
    branch = float(_branch_part(np.array([theta]), float(t), p.alpha, p.tau)[0, 0])
    return SpectralKernel(rho=float(rho), t=float(t), branch_part=branch, residue_part=residue)


# ---------------------------------------------------------------------------
# Fourier assembly
# ---------------------------------------------------------------------------


def _check_grids(x_grid, t_list) -> tuple[np.ndarray, tuple]:
    """The one validator of a space grid and its output times: x_grid a
    non-empty, strictly increasing array of finite reals, t_list one positive
    time or such an array of them (params._require_reals)."""
    admissible = "(-inf, inf), a strictly increasing array"
    x = _require_reals("x_grid", x_grid, admissible, increasing=True)
    if np.ndim(x_grid) == 0:  # one time may stand alone, one x may not
        raise ValidationError("x_grid", x_grid, admissible)
    ts = _require_reals("t_list", t_list, "(0, inf), strictly increasing", increasing=True)
    return x, tuple(ts.tolist())


def _panel_lattice(freq_scale: float, rho_max: float,
                   rho_cut: float | None = None) -> tuple[float, int, float]:
    """Width delta, count and end of the equal rho panels at _PANELS_PER_PERIOD
    density.

    freq_scale is the largest phase rate (radians per unit rho) the integrand
    carries: the e^{i rho x} sweep contributes the reach of x - y over the
    output grid and the data, and the spectral factor contributes
    ~ t * d|s_z|/d rho through its oscillating pole pair. The panels tile
    (0, rho_max]; with rho_cut only the panels up to the first edge at or past
    it are kept, the head of the same tiling, which ends there (at rho_max
    itself when none is dropped). A node count above _RHO_NODE_BUDGET is
    refused before anything is allocated.
    """
    width = min(2.0 * math.pi / (_PANELS_PER_PERIOD * max(freq_scale, 1e-9)), 0.5)
    n_panels = max(int(math.ceil(rho_max / width)), 1)
    delta = rho_max / n_panels
    n_kept = n_panels if rho_cut is None else min(n_panels, max(math.ceil(rho_cut / delta), 1))
    n_nodes = n_kept * _GL_NODES.size
    if n_nodes > _RHO_NODE_BUDGET:
        raise ValidationError(
            "t_list", f"a latest t needing {n_nodes:,} rho nodes",
            f"at most {_RHO_NODE_BUDGET:,} rho nodes (the count grows with max t and max|x|)",
        )
    return delta, n_kept, rho_max if n_kept == n_panels else n_kept * delta


def _node_offsets(delta: float) -> np.ndarray:
    """c_k = delta (1 + x_k)/2: the 8 Gauss-Legendre abscissae x_k mapped onto
    a panel [0, delta], ascending."""
    return 0.5 * delta * (1.0 + _GL_NODES)


def _gauss_panels(delta: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The rho lattice of every plan: node p*8 + k at p*delta + c_k
    (:func:`_node_offsets`) with weight delta w_k / 2, on n_panels equal panels
    of width delta. Every stage-2 sum factors e^{i rho x} over these nodes."""
    nodes = (delta * np.arange(n_panels))[:, None] + _node_offsets(delta)
    return nodes.ravel(), np.tile(0.5 * delta * _GL_WEIGHTS, n_panels)


def _chirp_plan(delta: float, n_panels: int, x: np.ndarray) -> Callable | None:
    """The sum Re sum_j c_j e^{i rho_j x} as eight chirp-z transforms; None
    unless x is uniform. The coefficients c_j may be real or complex.

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
    post = np.exp(1j * np.outer(_node_offsets(delta), x)) * chirp[:n]

    def sweep(coeff: np.ndarray) -> np.ndarray:
        u = np.fft.fft(coeff.reshape(n_panels, _GL_NODES.size).T * pre, size)
        u *= spectrum
        np.fft.ifft(u, out=u)  # in place: stage 1 may hold a group of rows meanwhile
        return np.real(u[:, :n] * post).sum(axis=0)

    return sweep


def _panel_factors(y: np.ndarray, delta: float, n_panels: int,
                   sign: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The exponentials e^{sign i rho_j y} of the first n_panels equal panels of
    width delta, split into two tables whose products give every node.

    Node p*8 + k sits at p*delta + c_k; with p = a*B + b, B = isqrt(n_panels),
    that is a*B*delta + (b*delta + c_k), so e^{i rho y} is exactly the product
    of an outer row e^{i a B delta y} (A = ceil(n_panels/B) rows) and an inner
    row e^{i (b delta + c_k) y} (8B rows, b-major), every phase at most
    rho_max*|y| as in the direct sum. The inner rows are products of B coarse
    rows e^{i b delta y} and 8 fine rows e^{i c_k y}, so the tables take
    A + B + 8 exponentials per point, near the least, 2 sqrt(n_panels).
    """
    block = max(1, math.isqrt(n_panels))
    n_outer = -(-n_panels // block)
    rates = np.concatenate([(block * delta) * np.arange(n_outer), delta * np.arange(block),
                            _node_offsets(delta)])
    table = np.exp(1j * np.outer(sign * rates, y))  # outer, coarse and fine rows
    coarse, fine = table[n_outer : n_outer + block], table[n_outer + block :]
    return table[:n_outer], (coarse[:, None, :] * fine).reshape(-1, y.size)


def _factored_plan(delta: float, n_panels: int, x: np.ndarray) -> Callable:
    """The sum Re sum_j c_j e^{i rho_j x} on any x as one matrix product per
    row; the coefficients c_j may be real or complex.

    With the tables of :func:`_panel_factors`, built once per field, the sum
    is Re sum_a e^{i a B delta x} (C e^{i (b delta + c_k) x})_a, where C holds
    the coefficients as A rows of 8B, zero-padded past the last panel: an
    (A x 8B)(8B x n) product (_quad._serial_product), weighted by the outer
    rows and summed over a in fixed order. The sum is exact to rounding, so
    it needs no spot check; its cost grows with n, so chirp-z takes wide
    uniform rows.
    """
    outer, inner = _panel_factors(x, delta, n_panels)

    def sweep(coeff: np.ndarray) -> np.ndarray:
        c = np.zeros(outer.shape[0] * inner.shape[0], dtype=coeff.dtype)
        c[: coeff.size] = coeff
        total = _serial_product(c.reshape(outer.shape[0], -1), inner)
        total *= outer
        return total.real.sum(axis=0)

    return sweep


def _scattered_sums(f: np.ndarray, y: np.ndarray, delta: float, n_nodes: int) -> np.ndarray:
    """sum_m f_m e^{-i rho_j y_m} at the first n_nodes nodes rho_j of the lattice
    of panel width delta (:func:`_gauss_panels`), for any y; f holds one weight
    vector per row.

    With the tables of :func:`_panel_factors` (sign -1), the sums are one
    matrix product (_quad._serial_product) of e^{-i (b delta + c_k) y_m}
    (8B rows) and f_m e^{-i a B delta y_m} (one column per a and weight
    vector), accumulated over fixed chunks of _SCATTER_CHUNK points. Nodes
    come back in lattice order.
    """
    f = np.atleast_2d(f)
    n_panels = -(-n_nodes // _GL_NODES.size)
    sums = 0.0
    for start in range(0, y.size, _SCATTER_CHUNK):
        yc = y[start : start + _SCATTER_CHUNK]
        outer, inner = _panel_factors(yc, delta, n_panels, -1.0)
        right = (f[:, None, start : start + _SCATTER_CHUNK] * outer).reshape(-1, yc.size)
        sums = sums + _serial_product(inner, right.T)
    return sums.T.reshape(f.shape[0], -1)[:, :n_nodes]


@functools.lru_cache(maxsize=64)
def _spot_indices(n: int) -> np.ndarray:
    """8 distinct ascending indices into n >= 8 points, the first and last
    included (read-only, computed once per n)."""
    idx = np.linspace(0, n - 1, 8).round().astype(int)
    idx.flags.writeable = False
    return idx


def _spot_check(fast: np.ndarray, exact_at: Callable, abs_tol: float, rel_tol: float,
                what: str) -> None:
    """exact_at(idx) at the _spot_indices of fast must match fast[idx] within
    max(abs_tol, rel_tol * |exact|); NumericsError(what) if not."""
    idx = _spot_indices(fast.size)
    exact = exact_at(idx)
    gap = np.abs(fast[idx] - exact)
    if not np.all(gap <= np.maximum(abs_tol, rel_tol * np.abs(exact))):  # NaN fails too
        raise NumericsError(what, achieved=float(np.max(gap)))


def _freq_scale(x: np.ndarray, ts: tuple, beta: float, tau: float) -> float:
    """Peak phase rate in rho: spatial max|x| plus the pole pair's t-oscillation.

    |s_z|^2 <= theta/tau and d sqrt(theta)/d rho <= (1+beta)/2 for rho >= 1,
    so t * (1+beta) / (2 sqrt(tau)) bounds the temporal contribution there
    (the few sub-unit panels absorb the remaining short-range phase). At
    beta = 0 theta vanishes and S does not oscillate, so t adds nothing.
    """
    x_scale = float(np.max(np.abs(x)))
    return x_scale + (ts[-1] * (1.0 + beta) / (2.0 * math.sqrt(tau)) if beta > 0.0 else 0.0)


@dataclass(frozen=True)
class _Stage1:
    """The node-only part of a field: what it needs of neither x nor the data.

    ``rho`` is the lattice of :func:`_gauss_panels` on ``n_panels`` equal
    panels of width ``delta``, which end at ``rho_max``; ``weights`` are the
    Gauss weights times the mollifier damping, ``budget`` the uniform signal
    error the branch tables may carry, and ``reach`` the largest |x - y| over
    the output grid and the data (max|x| plus the data's reach), where the
    beta = 1 cut samples end.
    """

    rho: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    budget: float
    delta: float
    n_panels: int
    rho_max: float
    reach: float


def _stage1(
    x: np.ndarray,
    ts: tuple,
    p: ModelParams,
    reach: float = 0.0,
    rho_cut: float | None = None,
) -> _Stage1:
    """The stage-1 plan of a field on x from data within reach of 0 (by
    default a point source at 0), its panels cut at rho_cut if given: the
    nodes and weights of :func:`_gauss_panels` on the panels of
    :func:`_panel_lattice`, so stage 2 factors over them by construction."""
    scale = _freq_scale(x, ts, p.beta, p.tau) + reach
    delta, n_panels, rho_max = _panel_lattice(scale, _rho_max(p.epsilon), rho_cut)
    rho, wts = _gauss_panels(delta, n_panels)
    weights = wts * np.exp(-np.square(p.epsilon * rho) / 4.0)
    # Gauss nodes are interior, so theta is positive unless beta = 0 (then 0)
    theta = theta_of_rho(rho, p.beta)
    return _Stage1(
        rho=rho,
        weights=weights,
        theta=theta,
        # a uniform signal error e moves a row by at most e * sum|w damp| / pi
        budget=1e-2 * _ABS_TOL * math.pi / float(np.sum(weights)),
        delta=delta,
        n_panels=n_panels,
        rho_max=rho_max,
        reach=float(np.max(np.abs(x))) + reach,
    )


def _fourier_rows(x: np.ndarray, ts: tuple, p: ModelParams, plan: _Stage1,
                  terms: list) -> np.ndarray:
    """Stage 2: each row Re sum_j c_j e^{i rho_j x}, c_j = w_j sum_d hat_d S_d(t) / pi.

    terms holds (hat, integrated) pairs: hat is a datum's Fourier transform at
    plan.rho (a scalar for a point source at 0: 1.0 for the kernel itself) and
    integrated selects S or its time integral, so data sharing a plan share
    one transform per row. Real coefficients on a symmetric grid are summed
    on x >= 0 and mirrored, so such rows are exactly even. Uniform rows wider
    than _FACTORED_MAX points take the chirp-z transform, spot-checked against
    the factored sum at its 8 _spot_indices; every other row takes the
    factored sum.
    """
    signal = _spectral_signal(plan, p, tuple(integrated for _, integrated in terms), ts)
    real = not any(np.iscomplexobj(hat) for hat, _ in terms)
    half = x.size // 2 if real and _symmetric(x) else 0
    xs = x[half:]
    chirp = _chirp_plan(plan.delta, plan.n_panels, xs) if xs.size > _FACTORED_MAX else None
    if chirp is None:
        sweep, spot = _factored_plan(plan.delta, plan.n_panels, xs), None
    else:
        sweep, spot = chirp, _factored_plan(plan.delta, plan.n_panels, xs[_spot_indices(xs.size)])
    values = np.empty((len(ts), x.size))
    for row, signals in zip(values, signal):
        parts = [hat * s for (hat, _), s in zip(terms, signals)]
        coeff = plan.weights * sum(parts[1:], parts[0]) / math.pi
        row[half:] = sweep(coeff)
        if spot is not None:
            # spot is the factored sum at exactly these _spot_indices
            _spot_check(row[half:], lambda _idx: spot(coeff),
                        1e-12 * float(np.sum(np.abs(coeff))), 0.0,
                        "chirp-z transform disagrees with the factored sum")
    values[:, :half] = values[:, ::-1][:, :half]
    return values


def kernel_eps(x_grid, t_list, p: ModelParams) -> Field:
    """Mollified point-source solution kernel K_eps on a space-time grid.

    The two edges with a closed form take it: beta = 0 (non-propagating,
    delta_eps itself) and alpha = 0 & beta = 1 (the classical D'Alembert
    pair). Every other model, beta = 1 included, takes the two Fourier
    stages; at alpha = 0 with the closed-form order-zero signal.
    """
    return _kernel_eps_impl(x_grid, t_list, p, integrated=False)


def kernel_eps_time_integrated(x_grid, t_list, p: ModelParams) -> Field:
    """Time integral of K_eps over [0, t] for each requested t.

    Each spectral term is integrated analytically (exact antiderivatives). At
    beta = 1, alpha > 0 the signal is the transform of the x-space cut
    integral of K^/s (_tf_kernel_rows) on its y samples, as for distributed
    data, and a t <= 1e-4 raises NumericsError; at beta = 0 and the classical
    pair the integral is a closed form.
    """
    return _kernel_eps_impl(x_grid, t_list, p, integrated=True)


def _closed_form(p: ModelParams) -> bool:
    """Whether kernel_eps and its time integral are closed forms in x: at
    beta = 0 and at the classical pair (alpha = 0, beta = 1)."""
    return p.beta == 0.0 or (p.beta == 1.0 and p.alpha == 0.0)


def _kernel_eps_impl(x_grid, t_list, p: ModelParams, integrated: bool) -> Field:
    x, ts = _check_grids(x_grid, t_list)
    closed = _closed_form(p)
    if p.beta == 0.0:
        base = np.asarray(delta_eps(x, p.epsilon), dtype=float)
        values = np.vstack([np.atleast_1d(base * (t if integrated else 1.0)) for t in ts])
    elif closed:
        values = _classical_field(x, ts, p.tau, p.epsilon, integrated)
    else:
        values = _fourier_rows(x, ts, p, _stage1(x, ts, p), [(1.0, integrated)])
    return Field(x, ts, values, _meta(asdict(p), not closed))


# ---------------------------------------------------------------------------
# Limiting forms
# ---------------------------------------------------------------------------


def _classical_field(
    x: np.ndarray, ts: tuple, tau: float, epsilon: float, integrated: bool
) -> np.ndarray:
    c = float(_elastic_frequency(1.0, tau))  # the speed: omega = c rho at theta = rho^2
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
    _require_in("tau", tau, "(0, 1]")
    _require_in("epsilon", epsilon, "(0, 1]")
    x, ts = _check_grids(x_grid, t_list)
    values = _classical_field(x, ts, float(tau), float(epsilon), integrated=False)
    meta = _meta(
        {"alpha": 0.0, "beta": 1.0, "tau": float(tau), "epsilon": float(epsilon)}, False
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


_TF_COND_BUDGET = 16.0  # e^16 * eps ~ 2e-9: rounding stays under _ABS_TOL


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
    y: np.ndarray, t: float, alpha: float, tau: float, integrated: bool
) -> np.ndarray:
    """Raw (unmollified) beta = 1 kernel K(y, t), or its time integral, on y >= 0.

    K(y,t) = -(1/2pi) * Im Int_0^inf f(q) e^{y q f(q)} e^{-qt} dq with
    f = sqrt((1 + tau w)/(1 + w)), w = q^alpha e^{i alpha pi}, the principal
    root on the upper side of the cut; the contour is rotated
    to arg q = psi(alpha), which is valid because f is analytic and bounded
    (|f| <= 1) in the intervening sector. Support: |y| < t/sqrt(tau).

    The time integral's transform is K^/s = -K^/q on the cut, and the pole at
    s = 0 with the arc joining the rays around it adds 1/2 + psi/(2pi) inside
    the cone (K^(y, 0) = 1/2 times the arc's share of a turn). Both modes run
    in s = r^alpha (q = r e^{i psi}), where that r^(alpha-1) endpoint is
    bounded, with w = s e^{i alpha (pi + psi)} so nothing underflows.

    Points whose integrand would overflow the double-precision cancellation
    budget (possible close to the front for small alpha, where the
    pre-asymptotic window spans ~1/alpha decades) are only set to zero after
    the shifted-line bound certifies |K| < _ABS_TOL there; otherwise the call
    fails loudly. The same bound covers the time integral: its s0 ladder
    starts at 1, so |K^/s| <= |K^| on every line it tries.

    Points within 1e-4 max(1, t) of the front are zeroed uncertified; the bound
    there is 65 at (alpha, tau, t) = (0.6, 0.5, 0.02) and 44 at (0.9, 0.3, 0.1).
    At early times and alpha >= 1/2 that band holds K's mass: at t = 0.02 the
    field keeps 0.247 of it at (0.6, 0.5) and 0.047 at (0.9, 0.3), and the time
    integral, whose transform is the spectral sum's beta = 1 signal (point
    source and distributed data alike), is 1.6 % and 0.7 % off t. At t <= 1e-4
    every sample, y = 0 too, lies in that band: NumericsError, not zeros where
    K_eps has unit mass. Otherwise y = 0 is live (the margin falls with y), and
    its exponent -qt <= 0 peaks at 0.5 <= _TF_COND_BUDGET, so it is integrated.
    """
    sqrt_tau = math.sqrt(tau)
    margin = t - y * sqrt_tau
    floor = 1e-4 * max(1.0, t)
    live = margin > floor
    if not np.any(live):
        raise NumericsError(f"cut route at t = {t:g}: every sample lies within {floor:g} "
                            "of the front, where K is not computed")
    out = np.zeros_like(y)

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
        if bound > _ABS_TOL:
            raise NumericsError(
                "cut-integrand exponent exceeds the double-precision "
                f"cancellation budget at y >= {y_edge:g} and the shifted-line "
                "bound cannot certify the kernel is negligible there",
                achieved=bound,
            )

    yy = y[conditioned]
    mm = margin[conditioned]
    r_max = min(60.0 / (float(np.min(mm)) * decay), _Q_MAX)
    first = max(min(0.02 / max(t, 1e-12), r_max / 64.0), 1e-12)
    edges = geometric_edges(0.0, r_max, first, ratio=1.7) ** alpha
    turn = cmath.exp(1j * alpha * (math.pi + psi))

    vals = np.empty_like(yy)
    for start in range(0, yy.size, _CHUNK):
        y_c = yy[start : start + _CHUNK]

        def f(s: np.ndarray) -> np.ndarray:
            qq = s ** (1.0 / alpha) * phase
            w = s * turn
            froot = np.sqrt((1.0 + tau * w) / (1.0 + w))
            expo = np.outer(qq * froot, y_c) - (qq * t)[:, None]
            if np.any(expo.real > _TF_COND_BUDGET + 2.0):
                raise NumericsError(
                    "growth detected in the cut-integrand exponent "
                    "(positive real part after branch selection)",
                    achieved=float(np.max(expo.real)),
                )
            # dq = q ds/(alpha s) is folded in: Im[h]/2pi is the time
            # integral's full contour integrand, Im[-q h]/2pi that of K
            h = (froot / (alpha * s))[:, None] * np.exp(expo)
            return (h if integrated else -qq[:, None] * h).imag * (0.5 / math.pi)

        val, _err = adaptive_gk(
            f, edges, rel_tol=_REL_TOL, abs_tol=_ABS_TOL, what="cut integral"
        )
        vals[start : start + _CHUNK] = np.atleast_1d(val)
    out[conditioned] = vals + (0.5 + psi / (2.0 * math.pi) if integrated else 0.0)
    return out


def _tf_samples(t: float, reach: float, alpha: float, tau: float, epsilon: float,
                integrated: bool) -> tuple[np.ndarray, np.ndarray]:
    """The y >= 0 samples of the raw beta = 1 kernel K(., t) (or its time
    integral) and those values times their trapezoid weights.

    The samples are eps/4 apart and run to min(t/sqrt(tau), reach + 6 eps),
    past which the kernel is zero or delta_eps no longer reaches a point
    within reach. The half weight at y = 0 makes the mirrored sums count that
    sample once: delta_eps(x - y) + delta_eps(x + y) in x, 2 Re in rho.
    """
    spacing = epsilon / 4.0
    y_max = min(t / math.sqrt(tau), reach + 6.0 * epsilon)
    n_y = max(int(math.ceil(y_max / spacing)) + 1, 8)
    y = np.linspace(0.0, n_y * spacing, n_y + 1)
    w = np.full(y.size, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return y, _tf_kernel_rows(y, t, alpha, tau, integrated) * w


def kernel_time_fractional(x_grid, t_list, alpha: float, tau: float, epsilon: float) -> Field:
    """Time-fractional wave kernel (beta = 1) from its x-space cut integral.

    Independent of the Fourier assembly, which kernel_eps runs at beta = 1:
    the spatial transform is inverted analytically first, leaving one
    branch-cut integral per point. The kernel is supported inside the cone
    |x| < t/sqrt(tau) and is identically zero outside; its samples
    (:func:`_tf_samples`) are summed against delta_eps(x -+ y) to match
    kernel_eps, in blocks of _CHUNK x and _CHUNK y, so memory does not grow
    with the grid; no production route takes this sum. Zeroing points within
    1e-4 max(1, t) of the front uncertified (:func:`_tf_kernel_rows`) leaves
    mass 0.247 at (alpha, tau, t) = (0.6, 0.5, 0.02) and 0.047 at
    (0.9, 0.3, 0.02); a t <= 1e-4, where that band holds every point, raises
    NumericsError.
    """
    p = ModelParams(alpha, 1.0, tau, epsilon)
    _require_in("alpha", alpha, "(0, 1) (alpha = 0 is the classical pair)")
    x, ts = _check_grids(x_grid, t_list)
    reach = float(np.max(np.abs(x)))
    values = np.zeros((len(ts), x.size))
    for t, row in zip(ts, values):
        y, kw = _tf_samples(t, reach, p.alpha, p.tau, p.epsilon, False)
        for lo in range(0, x.size, _CHUNK):
            x_c = x[lo : lo + _CHUNK, None]
            for start in range(0, y.size, _CHUNK):
                y_c = y[start : start + _CHUNK]
                g = np.asarray(delta_eps(x_c - y_c, p.epsilon))
                g += delta_eps(x_c + y_c, p.epsilon)
                g *= kw[start : start + _CHUNK]
                row[lo : lo + _CHUNK] += g.sum(axis=1)
    return Field(x, ts, values, _meta(asdict(p), True))

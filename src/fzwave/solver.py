"""Displacement fields from initial data.

The displacement is the spatial convolution of the initial displacement with
the regularized solution kernel plus the convolution of the initial velocity
with the time-integrated kernel. This module owns the initial-data
bookkeeping, the assembly of those two terms, the non-propagating closed form,
and the peak metrics used to summarize wave profiles.

The field is the paper's generalized solution
u^(rho, t) = u0^(rho) K^(rho, t) + v0^(rho) int_0^t K^ summed on the output
grid: each datum has a transform in closed form about its centre
(``gaussian``, ``box``, the exact transform of the linear interpolant of
``sampled`` data, and a ``dirac``'s height), taken at the rho nodes of one
stage-1 plan per distinct datum, and data sharing a plan share one transform
per row. Gaussian data cut those nodes where the product of its transform and
the mollifier meets the mollifier's own tail bound. Every datum takes that
sum at every beta, on any increasing x grid; at beta = 1, alpha > 0 the
time-integrated signal is the transform of the kernel's x-space cut integral
(kernel._spectral_signal). The one exception is a ``dirac`` where kernel_eps
is a closed form (beta = 0, the classical pair, kernel._closed_form): it is
that kernel itself, translated and scaled, so no quadrature error is added.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .kernel import (
    _CHUNK,
    Field,
    _check_grids,
    _closed_form,
    _fourier_rows,
    _meta,
    _rho_max,
    _scattered_sums,
    _spot_check,
    _Stage1,
    _stage1,
    _symmetric,
    delta_eps,
    kernel_eps,
    kernel_eps_time_integrated,
)
from .params import DEFAULT_EPSILON, ModelParams, SampledSignal, _require_in

__all__ = ["InitialData", "solve_field", "nonprop_solution", "peak_metrics"]

_KINDS = ("dirac", "gaussian", "box", "sampled")

# sampled data must vanish at its grid edges relative to its own maximum;
# otherwise taking it as zero outside its grid silently truncates mass that
# the kernel would transport into the requested window
_EDGE_RTOL = 1e-10

# local maxima below this fraction of the global maximum are quadrature
# ripple, not physical secondary peaks
_PEAK_FLOOR = 1e-3

# a Gaussian profile is treated as supported within this many widths of its
# center (exp(-7^2) ~ 5e-22, far below double-precision relevance)
_GAUSS_SUPPORT_WIDTHS = 7.0

# the slope-jump transform of sampled data serves nodes where it scales the
# per-segment form's rounding by at most _JUMP_RTOL / eps (~45)
_JUMP_RTOL = 1e-14

# below those nodes each segment's transform is a Taylor series in rho L/2 up
# to this value of rho L_max/2, truncated once a term is below _TAYLOR_TAIL
_TAYLOR_Z = 1.0
_TAYLOR_TAIL = 1e-17

# (sin z - z cos z)/z^2 is summed as its Taylor series (_J1_SERIES) below
# this |z|, where the closed form cancels
_J1_SWITCH = 0.5


@dataclass(frozen=True)
class InitialData:
    """One initial condition (displacement or velocity profile).

    ``kind`` selects the profile family:

    - ``dirac``: point mass ``height`` at ``center`` (no samples; handled
      analytically, ``width`` is ignored).
    - ``gaussian``: ``height * exp(-((x - center)/width)^2)``.
    - ``box``: ``height`` on ``[center - width/2, center + width/2]``.
    - ``sampled``: explicit :class:`~fzwave.params.SampledSignal`, scaled by
      ``height`` (``center`` and ``width`` are ignored; the samples are the
      data, taken as zero outside their grid).

    ``center``, ``width`` and ``height`` must be finite reals, ``width``
    positive for ``gaussian`` and ``box``; a kind that ignores one still
    checks it.
    """

    kind: str
    center: float = 0.0
    width: float = 1.0
    height: float = 1.0
    samples: SampledSignal | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError("kind", self.kind, f"one of {_KINDS}")
        for name in ("center", "width", "height"):
            object.__setattr__(self, name, _require_in(name, getattr(self, name), "(-inf, inf)"))
        if self.kind in ("gaussian", "box"):
            _require_in("width", self.width, "(0, inf) for gaussian/box data")
        if self.kind == "dirac" and self.samples is not None:
            raise ValidationError(
                "samples", "<signal>", "none for dirac data (it is absorbed analytically)"
            )
        if self.kind == "sampled":
            if self.samples is None:
                raise ValidationError("samples", None, "a SampledSignal for sampled data")
            # finite entries can still overflow the trapezoid mass
            _require_in("samples", float(np.trapezoid(self.samples.values, self.samples.grid)),
                        "(-inf, inf) (a finite trapezoid mass)")

    @classmethod
    def dirac(cls, center: float = 0.0, height: float = 1.0) -> "InitialData":
        return cls("dirac", center=center, height=height)

    @classmethod
    def gaussian(cls, center: float = 0.0, width: float = 1.0, height: float = 1.0) -> "InitialData":
        return cls("gaussian", center=center, width=width, height=height)

    @classmethod
    def box(cls, center: float = 0.0, width: float = 1.0, height: float = 1.0) -> "InitialData":
        return cls("box", center=center, width=width, height=height)

    @classmethod
    def sampled(cls, grid, values, height: float = 1.0) -> "InitialData":
        return cls("sampled", height=height, samples=SampledSignal.from_arrays(grid, values))

    @classmethod
    def zero(cls) -> "InitialData":
        """A vanishing profile (box of height zero)."""
        return cls("box", height=0.0)

    @property
    def is_zero(self) -> bool:
        if self.kind == "sampled":
            return bool(np.all(self.samples.values == 0.0)) or self.height == 0.0
        return self.height == 0.0

    def evaluate(self, x) -> np.ndarray:
        """Pointwise values on ``x``. Rejected for ``dirac`` data.

        Sampled data is linearly interpolated inside its grid and zero
        outside.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            return self.height * np.exp(-(((x - self.center) / self.width) ** 2))
        if self.kind == "box":
            half = 0.5 * self.width
            inside = (x >= self.center - half) & (x <= self.center + half)
            return np.where(inside, self.height, 0.0)
        if self.kind == "sampled":
            return self.height * np.interp(
                x, self.samples.grid, self.samples.values, left=0.0, right=0.0
            )
        raise ValidationError(
            "kind", "dirac", "a pointwise-evaluable kind (dirac has no density)"
        )

    def _support(self) -> tuple[float, float]:
        if self.kind == "gaussian":
            r = _GAUSS_SUPPORT_WIDTHS * self.width
            return self.center - r, self.center + r
        if self.kind == "box":
            return self.center - 0.5 * self.width, self.center + 0.5 * self.width
        if self.kind == "sampled":
            return float(self.samples.grid[0]), float(self.samples.grid[-1])
        return self.center, self.center

    def describe(self) -> dict:
        d = {"kind": self.kind, "center": self.center, "width": self.width,
             "height": self.height}
        if self.samples is not None:
            d["n_samples"] = int(self.samples.grid.size)
        return d


# ---------------------------------------------------------------------------
# Field assembly
# ---------------------------------------------------------------------------


def _check_sampled_edges(data: InitialData) -> None:
    vals = data.height * data.samples.values
    amax = float(np.max(np.abs(vals)))
    if amax > 0.0 and (
        abs(vals[0]) > _EDGE_RTOL * amax or abs(vals[-1]) > _EDGE_RTOL * amax
    ):
        raise ValidationError(
            "samples",
            "nonzero at the grid edge",
            "a sample grid covering the data's support (x_grid +- support); "
            "extend the grid until the data decays, or the convolution is "
            "silently truncated",
        )


def _plan_key(data: InitialData, p: ModelParams) -> tuple:
    """(kind, center, reach, rho_cut) of one datum; equal keys share a plan.

    The reach is the support's half-width, so the plan's panels resolve every
    phase rate |x - y| over the output grid and the support (0 for a dirac).
    Gaussian data cut the panels where the product of their transform's decay
    e^{-(w rho)^2/4} and the mollifier's meets the mollifier's own tail bound;
    the transforms of box and sampled data decay only algebraically and, like
    a dirac, keep every panel up to the mollifier's own cut, _rho_max(eps).
    """
    lo, hi = data._support()
    center = 0.5 * (lo + hi) if data.kind == "sampled" else data.center
    rho_cut = _rho_max(p.epsilon, data.width) if data.kind == "gaussian" else None
    return data.kind, center, 0.5 * (hi - lo), rho_cut


def _j1(z: np.ndarray) -> np.ndarray:
    """(sin z - z cos z)/z^2, stable down to z = 0."""
    small = np.abs(z) < _J1_SWITCH
    zs = np.where(small, 1.0, z)
    closed = (np.sin(zs) - zs * np.cos(zs)) / (zs * zs)
    return np.where(small, z * np.polyval(_J1_SERIES[::-1], z * z), closed)


def _segment_transform(a, b, fa, fb, rho: np.ndarray) -> np.ndarray:
    """sum_k int_{a_k}^{b_k} f_k(y) e^{-i rho y} dy for the lines f_k from fa_k to fb_k.

    About its midpoint m a segment of length L gives, with z = rho L/2,
    L e^{-i rho m} ((fa + fb)/2 sinc(z) - i (fb - fa)/2 j1(z)); both factors
    are stable as rho -> 0. rho is taken in fixed chunks, so memory stays
    bounded and the reduction order fixed.
    """
    length, mid = b - a, 0.5 * (a + b)
    mean, slope = 0.5 * (fa + fb), 0.5 * (fb - fa)
    out = np.empty(rho.size, dtype=complex)
    rows = max(1, _CHUNK * 64 // length.size)
    for start in range(0, rho.size, rows):
        r = rho[start : start + rows, None]
        z = 0.5 * length * r
        shape = mean * np.sinc(z / math.pi) - 1j * slope * _j1(z)
        out[start : start + rows] = (length * shape * np.exp(-1j * mid * r)).sum(axis=1)
    return out


def _taylor_rows(power: int) -> np.ndarray:
    """Coefficients of z^0 .. z^power in sinc(z) (even powers) and -i j1(z) (odd)."""
    k = np.arange(power + 1)
    fact = np.array([math.factorial(int(n) + 1) for n in k], dtype=float)
    even = np.where(k % 2 == 0, (-1.0) ** (k // 2) / fact, 0.0)
    odd = np.where(k % 2 == 1, (-1.0) ** ((k - 1) // 2) * (k + 1) / (fact * (k + 2)), 0.0)
    return even - 1j * odd


# j1's Taylor coefficients of z^(2n-1), n = 1..7, as a series in z^2
_J1_SERIES = -_taylor_rows(13).imag[1::2]


def _sampled_transform(y: np.ndarray, values: np.ndarray, plan: _Stage1) -> np.ndarray:
    """Exact Fourier transform of the linear interpolant of samples at y (zero
    outside their grid, y about the plan's centre) at the plan's nodes.

    The interpolant's u'' is its slope jumps J_k at y_k plus the end values'
    dipoles, so -rho^2 u^ = sum_k J_k e^{-i rho y_k} + i rho (f_0 e^{-i rho y_0}
    - f_N e^{-i rho y_N}). That division by rho^2 scales every term's
    rounding by sum|J| / (rho^2 int|u|) against the per-segment form
    (:func:`_segment_transform`), so it serves only nodes where
    eps sum|J| <= _JUMP_RTOL rho^2 int|u|. Below them each segment's form is
    summed as its Taylor series in z = rho L/2, the powers of L riding on the
    weights, while rho L_max/2 <= _TAYLOR_Z; nodes past that (only a grid
    whose segment lengths differ widely has them) take the per-segment form.
    Every exponential sum is one kernel._scattered_sums call, and the result
    must match the per-segment form at 8 spot nodes within 1e-12 of int|u|.
    """
    rho, delta = plan.rho, plan.delta
    a, b, fa, fb = y[:-1], y[1:], values[:-1], values[1:]
    length = b - a
    mass = 0.5 * float(np.sum(length * (np.abs(fa) + np.abs(fb))))
    jumps = np.diff((fb - fa) / length, prepend=0.0, append=0.0)
    rho_jump = math.sqrt(np.finfo(float).eps * float(np.sum(np.abs(jumps))) / (_JUMP_RTOL * mass))
    low = int(np.searchsorted(rho, rho_jump))
    out = np.empty(rho.size, dtype=complex)
    if low < rho.size:
        sums = _scattered_sums(jumps, y, delta, rho.size)[0, low:]
        r = rho[low:]
        ends = values[0] * np.exp(-1j * r * y[0]) - values[-1] * np.exp(-1j * r * y[-1])
        out[low:] = -(sums + 1j * r * ends) / np.square(r)
    l_max = float(np.max(length))
    taylor = min(low, int(np.searchsorted(rho, 2.0 * _TAYLOR_Z / l_max, side="right")))
    if taylor:
        zeta = 0.5 * l_max * rho[:taylor]
        power = 0
        while zeta[-1] ** (power + 1) / math.factorial(power + 2) > _TAYLOR_TAIL:
            power += 1
        k = np.arange(power + 1)[:, None]
        shape = np.where(k % 2 == 0, 0.5 * (fa + fb), 0.5 * (fb - fa))
        weights = _taylor_rows(power)[:, None] * length * shape * (length / l_max) ** k
        sums = _scattered_sums(weights, 0.5 * (a + b), delta, taylor)
        acc = sums[power]
        for k in range(power - 1, -1, -1):
            acc = acc * zeta + sums[k]
        out[:taylor] = acc
    out[taylor:low] = _segment_transform(a, b, fa, fb, rho[taylor:low])
    _spot_check(out, lambda idx: _segment_transform(a, b, fa, fb, rho[idx]), 1e-12 * mass, 0.0,
                "sample transform disagrees with the per-segment sum")
    return out


def _transform(data: InitialData, center: float, plan: _Stage1):
    """int u(y + center) e^{-i rho y} dy of one datum at the plan's nodes: the
    height of a dirac, a real array for Gaussian and box data."""
    rho = plan.rho
    if data.kind == "dirac":
        return data.height
    if data.kind == "sampled":
        y = data.samples.grid - center
        return data.height * _sampled_transform(y, data.samples.values, plan)
    if data.kind == "gaussian":
        return (data.height * data.width * math.sqrt(math.pi)) * np.exp(
            -np.square(data.width * rho) / 4.0)
    return (2.0 * data.height) * np.sin(0.5 * data.width * rho) / rho


def solve_field(
    u0: InitialData,
    v0: InitialData,
    x_grid,
    t_list,
    p: ModelParams,
) -> Field:
    """Displacement field u(x, t) for initial displacement u0 and velocity v0.

    u = u0 * K_eps + v0 * (time-integrated K_eps), with * the spatial
    convolution. A dirac u0 (centered at 0, unit height) with vanishing v0
    returns the kernel field itself, bit for bit. The velocity term uses the
    exact per-term time antiderivatives inside the spectral assembly rather
    than a quadrature over t (at beta = 1, alpha > 0 the transform of the
    cut integral of K^/s), so it adds no time-integration error. Any strictly
    increasing x grid serves. ``meta["assembly"]`` records each datum's route
    (``zero``, ``kernel`` for every dirac, or ``fourier``) and, for
    ``fourier``, its plan's ``rho_nodes`` and ``rho_max``.
    """
    if not isinstance(u0, InitialData) or not isinstance(v0, InitialData):
        raise ValidationError("u0/v0", type(u0).__name__, "InitialData instances")
    x, ts = _check_grids(x_grid, t_list)
    parts, groups = [], {}
    assembly = dict.fromkeys(("u0", "v0"))
    for name, data, integrated in (("u0", u0, False), ("v0", v0, True)):
        if data.is_zero:
            assembly[name] = {"route": "zero"}
            continue
        if data.kind == "sampled":
            _check_sampled_edges(data)
        if data.kind == "dirac" and _closed_form(p):
            assembly[name] = {"route": "kernel"}
            route = kernel_eps_time_integrated if integrated else kernel_eps
            parts.append(data.height * route(x - data.center, ts, p).values)
        else:
            groups.setdefault(_plan_key(data, p), []).append((name, data, integrated))
    for (kind, center, reach, rho_cut), members in groups.items():
        shifted = x - center
        plan = _stage1(shifted, ts, p, reach, rho_cut)
        terms = []
        for name, data, integrated in members:
            assembly[name] = {"route": "kernel"} if kind == "dirac" else {
                "route": "fourier", "rho_nodes": plan.rho.size, "rho_max": plan.rho_max}
            terms.append((_transform(data, center, plan), integrated))
        parts.append(_fourier_rows(shifted, ts, p, plan, terms))
    values = sum(parts[1:], parts[0]) if parts else np.zeros((len(ts), x.size))
    meta = _meta(asdict(p), True)
    meta["initial"] = {"u0": u0.describe(), "v0": v0.describe()}
    meta["assembly"] = assembly
    return Field(x, ts, values, meta)


def nonprop_solution(
    u0: InitialData,
    v0: InitialData,
    x_grid,
    t_list,
    epsilon: float = DEFAULT_EPSILON,
) -> Field:
    """Non-propagating closed form u(x, t) = u0(x) + v0(x) * t (the beta = 0
    regime). No quadrature is involved; dirac inputs are regularized to the
    Gaussian bump delta_eps first.
    """
    if not isinstance(u0, InitialData) or not isinstance(v0, InitialData):
        raise ValidationError("u0/v0", type(u0).__name__, "InitialData instances")
    _require_in("epsilon", epsilon, "(0, 1]")
    x, ts = _check_grids(x_grid, t_list)

    def profile(data: InitialData) -> np.ndarray:
        if data.kind == "dirac":
            return data.height * np.asarray(delta_eps(x - data.center, epsilon))
        return np.asarray(data.evaluate(x), dtype=float)

    base = profile(u0)
    slope = profile(v0)
    values = np.vstack([base + t * slope for t in ts])
    meta = _meta({"beta": 0.0, "epsilon": float(epsilon)}, False)
    meta["initial"] = {"u0": u0.describe(), "v0": v0.describe()}
    return Field(x, ts, values, meta)


# ---------------------------------------------------------------------------
# Peak metrics
# ---------------------------------------------------------------------------


def peak_metrics(f: Field, t_index: int) -> tuple:
    """Local maxima of one time row on the half-line x >= 0.

    Returns ((location, height), ...) with strict-neighbor maxima sorted by
    descending height; ties break toward the smaller location. x = 0 counts
    as a peak when the profile strictly decreases away from it (the mirror
    point supplies the left neighbor on a symmetric grid). Maxima below
    1e-3 of the row's global maximum are suppressed as quadrature ripple.
    """
    if not isinstance(f, Field):
        raise ValidationError("f", type(f).__name__, "a Field")
    if not isinstance(t_index, (int, np.integer)) or isinstance(t_index, bool):
        raise ValidationError("t_index", t_index, "an integer row index")
    if not (0 <= t_index < len(f.t_list)):
        raise ValidationError("t_index", t_index, f"[0, {len(f.t_list)})")
    x = f.x_grid
    if not _symmetric(x):
        raise ValidationError("x_grid", "asymmetric", "a grid symmetric about 0")
    v = f.values[t_index]
    mask = x >= -1e-15 * max(1.0, float(np.max(np.abs(x))))
    xs, vs = x[mask], v[mask]
    if xs.size < 3:
        raise ValidationError("x_grid", xs.size, "at least 3 points with x >= 0")
    peaks = []
    if vs[0] > vs[1]:
        peaks.append((float(xs[0]), float(vs[0])))
    interior = (vs[1:-1] > vs[:-2]) & (vs[1:-1] > vs[2:])
    for i in np.flatnonzero(interior) + 1:
        peaks.append((float(xs[i]), float(vs[i])))
    floor = _PEAK_FLOOR * float(np.max(vs))
    peaks = [(loc, h) for (loc, h) in peaks if h >= floor]
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return tuple(peaks)

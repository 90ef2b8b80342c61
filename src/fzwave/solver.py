"""Displacement fields from initial data.

The displacement is the spatial convolution of the initial displacement with
the regularized solution kernel plus the convolution of the initial velocity
with the time-integrated kernel. Kernel rows come from :mod:`fzwave.kernel`;
this module owns the initial-data bookkeeping, the discrete convolution, the
non-propagating closed form, and the peak metrics used to summarize wave
profiles.

Initial data is one of four kinds. A ``dirac`` is absorbed analytically (the
convolution is a translation of the kernel itself, so no quadrature error is
added). ``gaussian`` and ``box`` profiles are sampled on the x-grid lattice
and convolved by a direct trapezoid sum; ``sampled`` data is summed on its
own grid. Every difference x_i - y_j lands on one fine lattice, and the
kernel, even in x, is evaluated once per |difference|. No transform-based
convolution is used anywhere, so there are no periodization artifacts to
control.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .fracops import SampledSignal
from .kernel import (
    Field,
    QuadratureConfig,
    _check_grids,
    _meta,
    _shared_stage1,
    delta_eps,
    kernel_eps,
    kernel_eps_time_integrated,
)
from .params import DEFAULT_EPSILON, ModelParams, validate_model

__all__ = ["InitialData", "solve_field", "nonprop_solution", "peak_metrics"]

_KINDS = ("dirac", "gaussian", "box", "sampled")

# sampled data must vanish at its grid edges relative to its own maximum;
# otherwise the trapezoid sum silently truncates mass that the kernel would
# transport into the requested window
_EDGE_RTOL = 1e-10

# local maxima below this fraction of the global maximum are quadrature
# ripple, not physical secondary peaks
_PEAK_FLOOR = 1e-3

# a Gaussian profile is treated as supported within this many widths of its
# center (exp(-7^2) ~ 5e-22, far below double-precision relevance)
_GAUSS_SUPPORT_WIDTHS = 7.0

# relative spacing jitter tolerated before an x-grid is rejected as
# non-uniform for the lattice convolution
_UNIFORM_RTOL = 1e-9


@dataclass(frozen=True)
class InitialData:
    """One initial condition (displacement or velocity profile).

    ``kind`` selects the profile family:

    - ``dirac``: point mass ``height`` at ``center`` (no samples; handled
      analytically, ``width`` is ignored).
    - ``gaussian``: ``height * exp(-((x - center)/width)^2)``.
    - ``box``: ``height`` on ``[center - width/2, center + width/2]``.
    - ``sampled``: explicit :class:`~fzwave.fracops.SampledSignal`, scaled by
      ``height`` (``center`` and ``width`` are ignored; the samples are the
      data, taken as zero outside their grid).
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
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValidationError(name, v, "a finite real number")
            object.__setattr__(self, name, float(v))
        if self.kind in ("gaussian", "box") and self.width <= 0.0:
            raise ValidationError("width", self.width, "> 0 for gaussian/box data")
        if self.kind == "dirac" and self.samples is not None:
            raise ValidationError(
                "samples", "<signal>", "none for dirac data (it is absorbed analytically)"
            )
        if self.kind == "sampled":
            if self.samples is None:
                raise ValidationError("samples", None, "a SampledSignal for sampled data")
            # integrability: trapezoid mass must be finite (the signal class
            # already guarantees finite entries, so this is a belt check)
            mass = float(np.trapezoid(self.samples.values, self.samples.grid))
            if not math.isfinite(mass):
                raise ValidationError("samples", "non-integrable", "finite trapezoid mass")

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
# Convolution assembly
# ---------------------------------------------------------------------------


def _uniform_spacing(x: np.ndarray, context: str) -> float:
    if x.size < 2:
        raise ValidationError("x_grid", x.size, f"at least 2 points for {context}")
    dx = np.diff(x)
    h = float(dx[0])
    if np.max(np.abs(dx - h)) > _UNIFORM_RTOL * h:
        raise ValidationError(
            "x_grid", "non-uniform", f"uniform spacing for {context}"
        )
    return h


def _kernel_field(diff_grid, ts, p, q, integrated: bool) -> Field:
    if integrated:
        return kernel_eps_time_integrated(diff_grid, ts, p, q)
    return kernel_eps(diff_grid, ts, p, q)


def _contribution(
    x: np.ndarray,
    ts: tuple,
    data: InitialData,
    p: ModelParams,
    q: QuadratureConfig,
    integrated: bool,
) -> np.ndarray:
    """One convolution term (u0 against K, or v0 against the t-integral of K).

    Distributed data is sampled on a lattice that refines the x-grid by an
    integer factor chosen so the spacing also resolves the mollifier scale
    (eps/4) and, for sampled data, the sample grid itself; every pairwise
    difference x_i - y_j then lands on that single fine lattice. The kernel
    is even in x, so it is evaluated once per |difference|, on the lattice
    k_lo*hp .. k_hi*hp of absolute values (k_lo = 0 when the differences
    straddle 0), and each row is gathered back onto the signed differences;
    the trapezoid sum is then a strided correlation. Without the refinement a
    coarse x-grid undersamples the kernel's eps-width features and silently
    loses mass.
    """
    if data.is_zero:
        return np.zeros((len(ts), x.size))
    if data.kind == "dirac":
        shifted = x - data.center
        kfield = _kernel_field(shifted, ts, p, q, integrated)
        return data.height * kfield.values

    h = _uniform_spacing(x, "convolution with distributed initial data")
    target = min(h, 0.25 * p.epsilon)
    if data.kind == "sampled":
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
        target = min(target, float(np.min(np.diff(data.samples.grid))))
    fine = max(1, int(math.ceil(h / target - 1e-12)))
    hp = h / fine

    lo, hi = data._support()
    x0 = float(x[0])
    n = x.size
    j0 = int(math.floor((lo - x0) / hp)) - 1
    j1 = int(math.ceil((hi - x0) / hp)) + 1
    j1 = max(j1, j0 + 2)
    m = j1 - j0 + 1
    y = x0 + hp * (j0 + np.arange(m))
    samples = np.asarray(data.evaluate(y), dtype=float)

    # x_i - y_j = hp * (i*fine - j0 - jj); the difference lattice runs from
    # k = -j1 (i = 0 against the rightmost sample) to k = (n-1)*fine - j0.
    # The kernel is even in x, so it is evaluated on |k| only: k_lo..k_hi.
    k_first, k_last = -j1, (n - 1) * fine - j0
    k_hi = max(abs(k_first), abs(k_last))
    k_lo = 0 if k_first <= 0 <= k_last else min(abs(k_first), abs(k_last))
    w = np.full(m, hp)
    w[0] = w[-1] = 0.5 * hp
    coeffs = (w * samples)[::-1]
    kfield = _kernel_field(hp * np.arange(k_lo, k_hi + 1), ts, p, q, integrated)
    gather = np.abs(np.arange(k_first, k_last + 1)) - k_lo
    out = np.empty((len(ts), n))
    for i in range(len(ts)):
        out[i] = np.correlate(kfield.values[i][gather], coeffs, mode="valid")[::fine]
    return out


def solve_field(
    u0: InitialData,
    v0: InitialData,
    x_grid,
    t_list,
    p: ModelParams,
    q: QuadratureConfig | None = None,
) -> Field:
    """Displacement field u(x, t) for initial displacement u0 and velocity v0.

    u = u0 * K_eps + v0 * (time-integrated K_eps), with * the spatial
    convolution. A dirac u0 (centered at 0, unit height) with vanishing v0
    returns the kernel field itself, bit for bit. The velocity term uses the
    exact per-term time antiderivatives inside the spectral assembly rather
    than a quadrature over t, so it adds no time-integration error.
    """
    if not isinstance(u0, InitialData) or not isinstance(v0, InitialData):
        raise ValidationError("u0/v0", type(u0).__name__, "InitialData instances")
    validate_model(p)
    x, ts = _check_grids(x_grid, t_list)
    if q is None:
        q = QuadratureConfig.for_model(p)
    with _shared_stage1():
        values = _contribution(x, ts, u0, p, q, integrated=False)
        if not v0.is_zero:
            values = values + _contribution(x, ts, v0, p, q, integrated=True)
    meta = _meta(asdict(p), q)
    meta["initial"] = {"u0": u0.describe(), "v0": v0.describe()}
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
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon <= 1.0):
        raise ValidationError("epsilon", epsilon, "(0, 1]")
    x, ts = _check_grids(x_grid, t_list)

    def profile(data: InitialData) -> np.ndarray:
        if data.kind == "dirac":
            return data.height * np.asarray(delta_eps(x - data.center, epsilon))
        return np.asarray(data.evaluate(x), dtype=float)

    base = profile(u0)
    slope = profile(v0)
    values = np.vstack([base + t * slope for t in ts])
    meta = _meta({"beta": 0.0, "epsilon": float(epsilon)}, None)
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
    scale = max(1.0, float(np.max(np.abs(x))))
    if abs(x[0] + x[-1]) > 1e-12 * scale or np.max(np.abs(x + x[::-1])) > 1e-12 * scale:
        raise ValidationError("x_grid", "asymmetric", "a grid symmetric about 0")
    v = f.values[t_index]
    mask = x >= -1e-15 * scale
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

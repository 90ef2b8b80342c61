"""Fixed-rule Gauss-Kronrod panel quadrature with batched adaptivity, and
Chebyshev tables in log(theta).

The package's one quadrature engine. The kernel assembly integrates one
smooth decaying integrand per table point or spot-checked node, up to a few
hundred at a time, all sharing the same integration variable (the
Mittag-Leffler cut integral is a single such integrand): a 7/15
Gauss-Kronrod pair is applied to an explicit panel list, with panels bisected
until every component meets max(abs_tol, rel_tol*|I|). The tables carry
those integrals, and the zero pairs, from their Chebyshev points to every
spectral node.

Evaluation counts, panel order, and summation order are pure functions of the
integrand values, so results are reproducible across runs and thread counts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

# Standard 15-point Kronrod abscissae (ascending) and weights; the embedded
# 7-point Gauss rule sits on the odd-index nodes.
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.zeros(15)
_WG[1::2] = [
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
    0.381830050505119,
    0.279705391489277,
    0.129484966168870,
]


_MAX_PANELS = 2000  # panels one adaptive_gk call may refine to


def _panel_rule(f, lo: np.ndarray, hi: np.ndarray):
    """Apply the G7/K15 pair on each [lo_p, hi_p]; f maps nodes to (n,) or (n, m)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    vals = np.asarray(f(nodes))
    if vals.ndim == 1:
        vals = vals[:, None]
    m = vals.shape[1]
    vals = vals.reshape(len(lo), 15, m)
    k15 = np.einsum("k,pkm->pm", _WK, vals) * half[:, None]
    g7 = np.einsum("k,pkm->pm", _WG, vals) * half[:, None]
    err = np.abs(k15 - g7)
    return k15, err


def adaptive_gk(
    f,
    edges,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-8,
    what: str = "integral",
):
    """Integrate f over the union of panels defined by ``edges``.

    f takes a flat array of nodes and returns values of shape (n,) or (n, m);
    integration is carried out independently for each of the m components.
    Returns ``(integral, err_estimate)`` with shape (m,) each (scalars are
    squeezed). Raises :class:`NumericsError` if the budget of _MAX_PANELS
    panels is exhausted before every component reaches
    max(abs_tol, rel_tol * |I|).
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    contrib, err = _panel_rule(f, lo, hi)

    for _ in range(64):
        total = contrib.sum(axis=0)
        total_err = err.sum(axis=0)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        failing = total_err > tol
        if not failing.any():
            break
        if len(lo) >= _MAX_PANELS:
            raise NumericsError(
                f"panel budget ({_MAX_PANELS}) exhausted while refining {what}",
                achieved=float(np.max(total_err / np.maximum(tol, 1e-300))),
            )
        # Bisect every panel carrying more than an equal share of some
        # failing component's budget; always at least the single worst one.
        share = err[:, failing] / np.maximum(tol[failing], 1e-300)
        panel_score = share.max(axis=1)
        split = panel_score > 0.5 / len(lo)
        if not split.any():
            split[np.argmax(panel_score)] = True
        n_allowed = _MAX_PANELS - len(lo)
        if split.sum() > n_allowed:
            order = np.argsort(panel_score)[::-1]
            keep = np.zeros_like(split)
            keep[order[:n_allowed]] = True
            split &= keep
        mids = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[~split], lo[split], mids])
        new_hi = np.concatenate([hi[~split], mids, hi[split]])
        new_contrib, new_err = _panel_rule(f, np.concatenate([lo[split], mids]),
                                           np.concatenate([mids, hi[split]]))
        contrib = np.concatenate([contrib[~split], new_contrib], axis=0)
        err = np.concatenate([err[~split], new_err], axis=0)
        lo, hi = new_lo, new_hi
        # Keep panels sorted so the final summation order is canonical.
        order = np.argsort(lo, kind="stable")
        lo, hi, contrib, err = lo[order], hi[order], contrib[order], err[order]
    else:
        raise NumericsError(f"refinement loop for {what} did not terminate")

    total = contrib.sum(axis=0)
    total_err = err.sum(axis=0)
    if total.shape[0] == 1:
        return float(total[0].real) if np.isrealobj(total) else complex(total[0]), float(
            total_err[0]
        )
    return total, total_err


_CHEB_FIRST = 64  # intervals of the first table; doubled while the tail is too large
_CHEB_MAX = 512


def _cheb_coeffs(v: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through v at cos(pi k/n), k = 0..n,
    from one FFT of the even extension."""
    n = v.size - 1
    c = np.fft.fft(np.concatenate([v, v[-2:0:-1]]))[: n + 1] / n
    c = c if np.iscomplexobj(v) else c.real
    c[0] *= 0.5
    c[n] *= 0.5
    return c


def log_cheb_table(f, lo: float, hi: float, budget: float, what: str):
    """Chebyshev interpolant of a smooth f(theta) in u = log(theta) over [lo, hi].

    f maps an array of theta to real or complex values. It is sampled at the
    n + 1 Chebyshev points of the second kind in u, lo and hi exactly among
    them, and the coefficients come from :func:`_cheb_coeffs`. The table is
    accepted once the sum of its trailing n/8 coefficients, the chopped tail
    that bounds the uniform interpolation error (Aurentz & Trefethen 2017,
    "Chopping a Chebyshev series"), is at most ``budget``; otherwise n
    doubles from 64 up to 512, after which NumericsError names ``what``. An
    accepted series keeps only its shortest head whose dropped coefficients
    sum to at most ``budget - tail``, so the head is still within ``budget``
    of f. Returns the series as a numpy Chebyshev in log(theta).
    """
    u_lo, u_hi = math.log(lo), math.log(hi)
    n = _CHEB_FIRST
    while True:
        x = np.cos(np.pi * np.arange(n + 1) / n)
        theta = np.exp(0.5 * (u_hi + u_lo) + 0.5 * (u_hi - u_lo) * x)
        theta[0], theta[-1] = hi, lo
        c = _cheb_coeffs(np.asarray(f(theta)))
        tail = float(np.sum(np.abs(c[-(n // 8):])))
        if tail <= budget:
            # dropped[m]: the sum of |c_k| over k >= m, 0 when all are kept
            dropped = np.append(np.cumsum(np.abs(c[::-1]))[::-1], 0.0)
            keep = max(int(np.argmax(dropped <= budget - tail)), 1)
            return np.polynomial.Chebyshev(c[:keep], domain=[u_lo, u_hi])
        if 2 * n > _CHEB_MAX:
            raise NumericsError(
                f"Chebyshev {what} tail above budget at {n} intervals", achieved=tail
            )
        n *= 2


def geometric_edges(lo: float, hi: float, first: float, ratio: float = 1.8) -> np.ndarray:
    """Panel edges from lo to hi starting with width ``first``, growing by ``ratio``."""
    edges = [lo]
    w = first
    while edges[-1] + w < hi:
        edges.append(edges[-1] + w)
        w *= ratio
    edges.append(hi)
    return np.array(edges)

"""Fixed-rule Gauss-Kronrod panel quadrature with batched adaptivity, and
Chebyshev tables in log(theta).

The package's one quadrature engine. The kernel assembly integrates one
smooth decaying integrand per table point, spot-checked node and mode, up to
a thousand at a time, all sharing the same integration variable (the
Mittag-Leffler cut integral is a single such integrand): a 7/15
Gauss-Kronrod pair is applied to an explicit panel list, with panels bisected
until every component meets max(abs_tol, rel_tol*|I|). The tables carry
those integrals, and the zero pairs, from their Chebyshev points to every
spectral node, all tables of one domain through one recurrence basis
(:func:`eval_tables`).

Evaluation counts, panel order, and summation order are pure functions of the
integrand values, so results are reproducible across runs.
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
    squeezed). Raises :class:`NumericsError` if an error estimate is not
    finite (a NaN or inf value of f), or if the budget of _MAX_PANELS panels
    or 64 rounds is exhausted before every component reaches
    max(abs_tol, rel_tol * |I|).
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    contrib, err = _panel_rule(f, lo, hi)

    for _ in range(64):
        total = contrib.sum(axis=0)
        total_err = err.sum(axis=0)
        if not np.all(np.isfinite(total_err)):
            raise NumericsError(f"non-finite error estimate while refining {what}")
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        failing = total_err > tol
        if not failing.any():
            break
        if len(lo) >= _MAX_PANELS:
            raise NumericsError(
                f"panel budget ({_MAX_PANELS}) exhausted while refining {what}",
                achieved=float(np.max(total_err / np.maximum(tol, 1e-300))),
            )
        # Bisect every panel carrying more than half an equal share of some
        # failing component's budget. A failing component's shares sum past 1,
        # so at least one panel carries more than 1/len(lo) of it.
        share = err[:, failing] / np.maximum(tol[failing], 1e-300)
        panel_score = share.max(axis=1)
        split = panel_score > 0.5 / len(lo)
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
_EVAL_BLOCK = 4096  # nodes per block of eval_tables' basis, so its memory is fixed


def _cheb_coeffs(v: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through v at cos(pi k/n), k = 0..n,
    from one FFT of the even extension, per column of a 2-d v."""
    n = v.shape[0] - 1
    c = np.fft.fft(np.concatenate([v, v[-2:0:-1]]), axis=0)[: n + 1] / n
    c = c if np.iscomplexobj(v) else c.real
    c[0] *= 0.5
    c[n] *= 0.5
    return c


def log_cheb_table(f, lo: float, hi: float, budget: float, what: str):
    """Chebyshev interpolants of a smooth f(theta) in u = log(theta) over [lo, hi].

    f maps an array of theta to real or complex values, one column per table
    (shape (n,) for one). It is sampled at the n + 1 Chebyshev points of the
    second kind in u, lo and hi exactly among them; coefficients come from
    :func:`_cheb_coeffs`. The tables are accepted once in every column the sum
    of the trailing n/8 coefficients, the chopped tail that bounds the uniform
    interpolation error (Aurentz & Trefethen 2017, "Chopping a Chebyshev
    series"), is at most ``budget``; otherwise every column is resampled at
    twice n, from 64 up to 512, after which NumericsError names ``what``. Each
    column keeps its own shortest head whose dropped coefficients sum to at
    most ``budget - tail``, so it stays within ``budget`` of f. Returns the
    numpy Chebyshev in log(theta), or a list of them, one per column; they
    carry the coefficients and domain, and :func:`eval_tables` evaluates them.
    """
    u_lo, u_hi = math.log(lo), math.log(hi)
    n = _CHEB_FIRST
    while True:
        x = np.cos(np.pi * np.arange(n + 1) / n)
        theta = np.exp(0.5 * (u_hi + u_lo) + 0.5 * (u_hi - u_lo) * x)
        theta[0], theta[-1] = hi, lo
        values = np.asarray(f(theta))
        c = _cheb_coeffs(values.reshape(n + 1, -1))
        tail = np.sum(np.abs(c[-(n // 8):]), axis=0)
        if np.all(tail <= budget):
            # dropped[m]: the sum of |c_k| over k >= m, 0 when all are kept
            dropped = np.vstack([np.cumsum(np.abs(c[::-1]), axis=0)[::-1], np.zeros(c.shape[1])])
            keep = np.maximum(np.argmax(dropped <= budget - tail, axis=0), 1)
            tables = [np.polynomial.Chebyshev(c[:k, j], domain=[u_lo, u_hi])
                      for j, k in enumerate(keep)]
            return tables if values.ndim > 1 else tables[0]
        if 2 * n > _CHEB_MAX:
            raise NumericsError(f"Chebyshev {what} tail above budget at {n} intervals",
                                achieved=float(np.max(tail)))
        n *= 2


def eval_tables(tables, u: np.ndarray) -> np.ndarray:
    """Chebyshev tables sharing one domain at u, one row per table: complex
    if any table is.

    u maps to x by the tables' own mapparms(), as in Chebyshev.__call__.
    T_0..T_{n-1}(x) come from the three-term recurrence, in place, over
    blocks of _EVAL_BLOCK nodes, and each block takes one matrix product
    with the coefficients, zero-padded to the longest table; complex tables
    add one row per table for the imaginary parts.
    """
    off, scl = tables[0].mapparms()
    n = max(t.coef.size for t in tables)
    cplx = any(np.iscomplexobj(t.coef) for t in tables)
    coef = np.zeros(((1 + cplx) * len(tables), n))
    for i, t in enumerate(tables):
        coef[i, : t.coef.size] = t.coef.real
        if cplx:
            coef[len(tables) + i, : t.coef.size] = t.coef.imag
    out = np.empty((len(tables), u.size), dtype=complex if cplx else float)
    basis = np.empty((n, min(u.size, _EVAL_BLOCK)))
    for start in range(0, u.size, _EVAL_BLOCK):
        x = off + scl * u[start : start + _EVAL_BLOCK]
        b = basis[:, : x.size]
        b[0] = 1.0
        if n > 1:
            b[1] = x
        x *= 2.0
        for k in range(2, n):
            np.multiply(x, b[k - 1], out=b[k])
            b[k] -= b[k - 2]
        seg = out[:, start : start + x.size]
        if cplx:
            vals = coef @ b
            seg.real, seg.imag = vals[: len(tables)], vals[len(tables) :]
        else:
            np.matmul(coef, b, out=seg)
    return out


def geometric_edges(lo: float, hi: float, first: float, ratio: float = 1.8) -> np.ndarray:
    """Panel edges from lo to hi starting with width ``first``, growing by ``ratio``."""
    edges = [lo]
    w = first
    while edges[-1] + w < hi:
        edges.append(edges[-1] + w)
        w *= ratio
    edges.append(hi)
    return np.array(edges)

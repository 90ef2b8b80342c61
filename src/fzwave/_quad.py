"""Fixed-rule Gauss-Kronrod panel quadrature with batched adaptivity, and
Chebyshev tables in log(theta).

The package's one quadrature engine. The kernel assembly integrates one
smooth decaying integrand per table point, spot-checked node and mode, up to
a thousand at a time, all sharing the same integration variable (the
Mittag-Leffler cut integral is a single such integrand): a 7/15
Gauss-Kronrod pair is applied to an explicit panel list, with panels bisected
until every component meets max(abs_tol, rel_tol*|I|). The tables carry
those integrals, and the zero pairs, from their Chebyshev points to every
spectral node, all tables of one domain (plain coefficient arrays) through
one recurrence basis (:func:`eval_tables`).

Evaluation counts, panel order, and summation order are pure functions of the
integrand values, so results are reproducible across runs. Every matrix
product of the package, the table reads here and the kernel's stage-2 sums,
runs through :func:`_serial_product`, whose bits do not depend on BLAS's
thread count either.
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
_W_KG = np.stack([_WK, _WG])  # K15 then G7, so one contraction forms both sums


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
    k15, g7 = np.einsum("jk,pkm->jpm", _W_KG, vals) * half[:, None]
    err = np.abs(k15 - g7)
    return k15, err


def adaptive_gk(f, edges, rel_tol: float, abs_tol: float, what: str = "integral"):
    """Integrate f over the union of panels defined by ``edges``.

    f takes a flat array of nodes and returns real values of shape (n,) or (n, m);
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
        return float(total[0]), float(total_err[0])
    return total, total_err


_CHEB_FIRST = 64  # intervals of the first table; doubled while the tail is too large
_CHEB_MAX = 512
_EVAL_BLOCK = 4096  # nodes per block of eval_tables' basis, so its memory is fixed
# OpenBLAS keeps a matrix product on one thread while m*n*k <= 65536 * its
# GEMM_MULTITHREAD_THRESHOLD (4 by default); threaded, it tiles and rounds differently
_SERIAL_MNK = 1 << 18


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
    most ``budget - tail``, so it stays within ``budget`` of f. Returns that
    head as a 1-d coefficient array, or a list of them, one per column;
    :func:`eval_tables` evaluates them given the same lo and hi.
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
            tables = [c[:k, j] for j, k in enumerate(keep)]
            return tables if values.ndim > 1 else tables[0]
        if 2 * n > _CHEB_MAX:
            raise NumericsError(f"Chebyshev {what} tail above budget at {n} intervals",
                                achieved=float(np.max(tail)))
        n *= 2


def eval_tables(tables, u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Coefficient arrays from :func:`log_cheb_table` over [lo, hi] at u, one
    row per table: complex if any table is.

    u maps [log lo, log hi] onto x in [-1, 1] by the map of Chebyshev.mapparms,
    bit for bit. T_0..T_{n-1}(x) come from the three-term recurrence, in
    place, over blocks of at most _EVAL_BLOCK nodes, so one call builds the
    basis once for every table it reads. Each block is read by one
    :func:`_serial_product` of the coefficients, zero-padded to the longest
    table, with the basis.
    """
    u_lo, u_hi = math.log(lo), math.log(hi)
    off, scl = -(u_hi + u_lo) / (u_hi - u_lo), 2.0 / (u_hi - u_lo)
    n = max(t.size for t in tables)
    coef = np.zeros((len(tables), n), dtype=np.result_type(*tables))
    for i, t in enumerate(tables):
        coef[i, : t.size] = t
    out = np.empty((len(tables), u.size), dtype=coef.dtype)
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
        out[:, start : start + x.size] = _serial_product(coef, b)
    return out


def _serial_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real or complex 2-d a (m x k) and b (k x n), with bits that do
    not depend on BLAS's thread count; the package's one BLAS product.

    The product runs in real arithmetic: a complex a as its real rows over its
    imaginary rows, a complex b through a float view of its contiguous data
    (each column's Re and Im side by side). The output is cut into near-equal
    blocks of at most _SERIAL_MNK multiply-adds, each at least 2 x 2 (NumPy
    hands a single row or column to gemv, which threads sooner), so BLAS runs
    every block on one thread. The rows of a, zero-padded to equal row blocks
    (a single row gets a zero row), go through one batched matmul per block of
    columns. Every caller's b has at least 2 real columns: node counts are
    multiples of 8, and complex columns come in pairs.
    """
    cplx_a, cplx_b = a.dtype.kind == "c", b.dtype.kind == "c"
    if cplx_b:
        b = np.ascontiguousarray(b).view(float)
    m, (k, n) = a.shape[0], b.shape
    total = max((1 + cplx_a) * m, 2)  # rows of the real product
    cells = _SERIAL_MNK // k  # output entries per block
    # square-ish tiles, unless a has so few rows that its blocks can be wider;
    # the rows then fill what the widest block of columns leaves
    col_blocks = -(-n // max(math.isqrt(cells), cells // total))
    rows, row_blocks = _even_blocks(total, cells // -(-n // col_blocks))
    lhs = np.zeros((row_blocks * rows, k))
    lhs[:m] = a.real
    if cplx_a:
        lhs[m : 2 * m] = a.imag
    lhs = lhs.reshape(row_blocks, rows, k)
    prod = np.empty((row_blocks, rows, n))
    edges = [j * n // col_blocks for j in range(col_blocks + 1)]
    for start, stop in zip(edges[:-1], edges[1:]):
        np.matmul(lhs, b[:, start:stop], out=prod[:, :, start:stop])
    prod = prod.reshape(-1, n)
    if cplx_b:
        prod = prod.view(complex)
    if not cplx_a:
        return prod[:m]
    if cplx_b:  # Re a @ b + 1j * (Im a @ b), in place in the rows of the second
        out = prod[m : 2 * m]
        out *= 1j
        out += prod[:m]
        return out
    out = np.empty((m, n), dtype=complex)
    out.real, out.imag = prod[:m], prod[m : 2 * m]
    return out


def _even_blocks(total: int, most: int) -> tuple[int, int]:
    """Size and count of the fewest equal blocks of at most `most` that cover total."""
    count = -(-total // most)
    return -(-total // count), count


def geometric_edges(lo: float, hi: float, first: float, ratio: float) -> np.ndarray:
    """Panel edges from lo to hi starting with width ``first``, growing by ``ratio``."""
    edges = [lo]
    w = first
    while edges[-1] + w < hi:
        edges.append(edges[-1] + w)
        w *= ratio
    edges.append(hi)
    return np.array(edges)

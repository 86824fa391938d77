"""Curvature tensors as operators on Lambda^2, and the reaction Q on them.

A curvature tensor is carried as its operator on Lambda^2, the symmetric
N x N matrix M[(i<j), (k<l)] = R_ijkl with N = n(n-1)/2.  Its entries are
exactly the distinct components of R up to sign.  In these terms

    Q_ijkl = 2 (M M)[(ij), (kl)] + 2 (C[(i,k), (j,l)] - C[(i,l), (j,k)]),
    C[(i,k), (j,l)] = sum_pq R_ipkq R_jplq.

The matrix A[(i,k), (p,q)] = R_ipkq commutes with the pair swap on both
sides, so C = A A^T splits over Sym^2 + Lambda^2.  On Lambda^2, Bianchi
gives A = M / 2, so that block of 2 C is M M again.  On Sym^2, 2 C is
Z W Z^T with Z[(i<=k), (p<=q)] = R_ipkq + R_iqkp and the weights W = 1 for
p < q and 1/2 for p = q.  The products cost N^3 and (N + n)^3, not the n^6
of the (n^2 x n^2) products of the index formula.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["operator", "expand", "place", "project", "reaction"]


_ZERO = np.zeros(1)
_SIGNS = np.array([[1.0], [-1.0], [1.0]])


@functools.cache
def _pairs(n: int) -> np.ndarray:
    """Flat offsets i n + j of the pairs i < j, in the order of M's rows."""
    return np.array([i * n + j for i in range(n) for j in range(i + 1, n)], dtype=np.int32)


@functools.cache
def _plan(big: int) -> tuple[np.ndarray, ...]:
    """Index plans of ``reaction`` for N = big: three stacked native
    ``np.intp`` tables (2, ., .) and the weights.

    ``z`` picks the two terms of Z from the flattened [M, -M, 0],
    ``weights`` are W, ``g`` picks the Sym^2 Gram entries of
    C[(i,k),(j,l)] and C[(i,l),(j,k)] for the outputs (i<j), (k<l), and
    ``p`` the two Lambda^2 entries from the flattened [M M, -M M, 0].
    Each gathered factor is read by one ``take`` of a stacked table.
    """
    n = (1 + math.isqrt(1 + 8 * big)) // 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    syms = [(i, k) for i in range(n) for k in range(i, n)]
    small = len(syms)
    anti, sym = {}, {}
    for p, (i, j) in enumerate(pairs):
        anti[i, j] = anti[j, i] = p
    for p, (i, k) in enumerate(syms):
        sym[i, k] = sym[k, i] = p

    def signed(a, b, c, d):
        # Offset of the entry R_abcd = +-X[{a,b}, {c,d}] in the flattened
        # [X, -X, 0]: the second block when one pair is reversed, the zero
        # when a pair repeats an index.
        if a == b or c == d:
            return 2 * big * big
        return anti[a, b] * big + anti[c, d] + big * big * ((a > b) != (c > d))

    def tables(rows, *entries):
        return np.array([[[entry(*r, *c) for c in rows] for r in rows] for entry in entries], dtype=np.intp)

    def upper(entry):
        # Z[(p,q), (i,k)] picks the entries of Z[(i,k), (p,q)] from M's
        # transpose, so Z is symmetric on a symmetric M: reading every
        # entry from the upper triangle makes it symmetric on every M.
        return lambda i, k, p, q: entry(i, k, p, q) if sym[i, k] <= sym[p, q] else entry(p, q, i, k)

    return (
        tables(syms, upper(lambda i, k, p, q: signed(i, p, k, q)), upper(lambda i, k, p, q: signed(i, q, k, p))),
        np.array([0.5 if i == k else 1.0 for i, k in syms]),
        tables(pairs, lambda i, j, k, l: sym[i, k] * small + sym[j, l],
               lambda i, j, k, l: sym[i, l] * small + sym[j, k]),
        tables(pairs, lambda i, j, k, l: signed(i, k, j, l), lambda i, j, k, l: signed(i, l, j, k)),
    )


@functools.cache
def _quads(big: int) -> np.ndarray:
    """Offsets in the flat M of (ij,kl), (ik,jl), (il,jk), i<j<k<l, then their mirrors."""
    n = (1 + math.isqrt(1 + 8 * big)) // 2
    first, second = np.triu_indices(n, 1)
    at = np.zeros((n, n), dtype=np.intp)
    at[first, second] = np.arange(big)
    ij, kl = np.nonzero(second[:, None] < first[None, :])
    i, j, k, l = first[ij], second[ij], first[kl], second[kl]
    rows, cols = np.stack((ij, at[i, k], at[i, l])), np.stack((kl, at[j, l], at[j, k]))
    return np.stack((rows * big + cols, cols * big + rows))


def operator(r4: np.ndarray) -> np.ndarray:
    """The Lambda^2 operator M[(i<j), (k<l)] = R_ijkl of an (n, n, n, n) array."""
    n = r4.shape[0]
    pairs = _pairs(n)
    return r4.reshape(n * n, n * n)[np.ix_(pairs, pairs)]


def expand(m: np.ndarray, n: int) -> np.ndarray:
    """The (n, n, n, n) array of a Lambda^2 operator: M scattered to the
    entries i < j, k < l, then completed by two signed transposes."""
    pairs = _pairs(n)
    full = np.zeros((n * n, n * n))
    full[np.ix_(pairs, pairs)] = m
    full = full.reshape(n, n, n, n)
    full = full - full.transpose(1, 0, 2, 3)
    return full - full.transpose(0, 1, 3, 2)


def place(n: int, *blocks: tuple[int, np.ndarray]) -> np.ndarray:
    """The operator on Lambda^2 R^n that holds each block's M on the pairs
    of the coordinates start, ..., start + n_block - 1, and zeros elsewhere:
    the operator of a metric product or of a flat padding."""
    m = np.zeros((n * (n - 1) // 2,) * 2)
    for start, block in blocks:
        i, j = np.triu_indices((1 + math.isqrt(1 + 8 * len(block))) // 2, 1)
        pairs = np.searchsorted(_pairs(n), (i + start) * n + j + start)
        m[np.ix_(pairs, pairs)] = block
    return m


def project(m: np.ndarray) -> np.ndarray:
    """The Bianchi projection of M: its symmetric part less the Lambda^4 part,
    the Bianchi cyclic sum 3 w, w = (M[ij,kl] - M[ik,jl] + M[il,jk]) / 3 at
    i < j < k < l, taken off those entries with signs +, -, + and mirrored."""
    sym = 0.5 * (m + m.T)
    flat = sym.reshape(-1)
    up, down = _quads(len(m))
    v = flat[up]
    flat[up] = flat[down] = v - ((v[0] - v[1] + v[2]) / 3.0) * _SIGNS
    return sym


def reaction(m: np.ndarray) -> np.ndarray:
    """Q(R) on the Lambda^2 operator M of R: the entries (i<j), (k<l) of
    Q_ijkl = sum_pq [ R_ijpq R_klpq + 2 (R_ipkq R_jplq - R_iplq R_jpkq) ],
    through the Sym^2 product and M M (see the module docstring)."""
    z_at, weights, g_at, p_at = _plan(m.shape[0])
    z = np.concatenate((m.ravel(), -m.ravel(), _ZERO)).take(z_at)
    z = z[0] + z[1]
    gram = ((z * weights) @ z).ravel()  # Z W Z^T, as Z is symmetric
    sq = m @ m
    g = gram.take(g_at)
    p = np.concatenate((sq.ravel(), -sq.ravel(), _ZERO)).take(p_at)
    return 2.0 * sq + ((g[0] - g[1]) + (p[0] - p[1]))

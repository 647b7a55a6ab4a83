"""Finite irreducible probability kernels and binary site configurations.

A kernel is a pair (E, q) with E a finite site set (indexed 0..n-1) and q a
stochastic matrix with zero diagonal: q(x, .) is the neighbor-sampling
distribution of site x.  Interaction neighborhoods, local type frequencies,
and every lattice model in this package are built on top of it.

Storage is CSR-like (flat index/weight arrays plus row pointers) so that
per-site frequency sums vectorize; the reverse (in-neighbor) structure is
kept alongside because Gillespie updates need to know whose frequencies a
flip invalidates.

Every builder hands one array builder, ``_build``, its edges as three
arrays (source, target, weight).  ``_build`` validates them (zero trace,
targets in range, positive weights, rows summing to 1, no duplicate edge,
irreducibility) and sorts them into both CSR structures.  The torus
geometry is :class:`ipsd.lattice.Torus`: :func:`torus_kernel` takes its
edges from the nearest-neighbor move table, the same table the walkers and
diffusions migrate along.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Stencil, Torus

__all__ = [
    "Kernel",
    "torus_kernel",
    "complete_kernel",
    "explicit_kernel",
    "frequency_of_ones",
    "config_all",
    "config_indicator",
    "config_bernoulli",
]

_ROWSUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Kernel:
    """Finite probability kernel q on sites 0..n-1 (zero trace, rows sum to 1).

    ``indptr/indices/weights`` hold the out-edges of each site in CSR form;
    ``in_indptr/in_indices/in_weights`` hold, for each site y, the sites x
    with q(x, y) > 0 together with those weights.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_weights: np.ndarray

    def out_edges(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and weights of site x (the support of q(x, .))."""
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return self.indices[lo:hi], self.weights[lo:hi]


def _build(n: int, src, dst, w) -> Kernel:
    """Validate the edge arrays (x, y, q(x, y)) and assemble a Kernel."""
    if n < 2:
        raise ValueError("kernel needs at least two sites")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    bad = (src < 0) | (src >= n)
    if bad.any():
        raise ValueError(f"edge source {src[bad][0]} out of range")
    loops = src == dst
    if loops.any():
        raise ValueError(f"self-loop at site {src[loops][0]}: kernel trace must be zero")
    bad = (dst < 0) | (dst >= n)
    if bad.any():
        raise ValueError(f"edge target {dst[bad][0]} out of range")
    if not (w > 0).all():  # a NaN weight fails too
        raise ValueError("kernel weights must be positive")

    order = np.argsort(src * n + dst, kind="stable")
    src, indices, weights = src[order], dst[order], w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    off = ~(np.abs(np.bincount(src, weights=weights, minlength=n) - 1.0) <= _ROWSUM_TOL)
    if off.any():
        x = int(np.argmax(off))
        raise ValueError(f"row {x} of kernel sums to "
                         f"{weights[indptr[x]:indptr[x + 1]].sum()!r}, not 1")
    dup = (np.diff(indices) == 0) & (np.diff(src) == 0)
    if dup.any():
        raise ValueError(f"duplicate edge in row {src[1:][dup][0]}")

    # reverse structure: a stable sort on the target keeps each in-row in source order
    rev = np.argsort(indices, kind="stable")
    in_indices = src[rev]
    in_weights = weights[rev]
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=in_indptr[1:])

    k = Kernel(n, indptr, indices, weights, in_indptr, in_indices, in_weights)
    if not _strongly_connected(k):
        raise ValueError("kernel is not irreducible")
    return k


def _reaches_all(n: int, indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Frontier BFS from site 0 over a CSR adjacency."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        lo = indptr[frontier]
        lengths = indptr[frontier + 1] - lo
        # positions lo[i] .. lo[i] + lengths[i] - 1 of every frontier row, concatenated
        pos = np.arange(lengths.sum()) + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        nbr = indices[pos]
        frontier = np.unique(nbr[~seen[nbr]])
        seen[frontier] = True
    return bool(seen.all())


def _strongly_connected(k: Kernel) -> bool:
    # BFS along out-edges and along in-edges; both must reach every site.
    return (_reaches_all(k.n, k.indptr, k.indices)
            and _reaches_all(k.n, k.in_indptr, k.in_indices))


def torus_kernel(d: int, L: int) -> Kernel:
    """Uniform nearest-neighbor kernel on the d-dimensional torus (Z/LZ)^d.

    Each site puts weight 1/(2d) on each of its 2d lattice neighbors; on
    L = 2 the two neighbors along an axis coincide and their weights merge.
    Sites are flattened in row-major order, so site (c_0, .., c_{d-1})
    gets index sum(c_i * L^(d-1-i)).
    """
    torus = Torus(d, L)
    stencil = Stencil.nearest_neighbor(d, 1.0)
    table = torus.move_table(stencil)
    n, m = table.shape
    pairs, slot = np.unique(np.arange(n).repeat(m) * n + table.ravel(), return_inverse=True)
    w = np.bincount(slot, weights=np.tile(stencil.weights, n))
    return _build(n, pairs // n, pairs % n, w)


def complete_kernel(N: int) -> Kernel:
    """Uniform kernel on the complete graph: q(x, y) = 1/(N-1) for y != x."""
    if N < 2:
        raise ValueError("complete kernel needs N >= 2")
    src = np.arange(N, dtype=np.int64).repeat(N - 1)
    dst = np.tile(np.arange(N - 1, dtype=np.int64), N)
    dst += dst >= src   # skip the diagonal
    return _build(N, src, dst, np.full(N * (N - 1), 1.0 / (N - 1)))


def explicit_kernel(n: int, edges: list[tuple[int, int, float]]) -> Kernel:
    """Kernel from an explicit weighted edge list [(x, y, q(x,y)), ...]."""
    src = [int(x) for x, _, _ in edges]
    dst = [int(y) for _, y, _ in edges]
    w = [float(q) for _, _, q in edges]
    return _build(n, src, dst, w)


# -- configurations ---------------------------------------------------------
#
# A spin configuration is a uint8 array of 0/1 values, one per site.  These
# helpers exist so call sites never hand-roll dtype or validation.


def config_all(n: int, value: int) -> np.ndarray:
    if value not in (0, 1):
        raise ValueError("spin value must be 0 or 1")
    return np.full(n, value, dtype=np.uint8)


def config_indicator(n: int, sites) -> np.ndarray:
    """Indicator configuration of a site subset."""
    eta = np.zeros(n, dtype=np.uint8)
    for x in sites:
        if not (0 <= x < n):
            raise ValueError(f"site {x} out of range")
        eta[x] = 1
    return eta


def config_bernoulli(n: int, u: float, rng: np.random.Generator) -> np.ndarray:
    """iid Bernoulli(u) configuration (product measure sample)."""
    if not (0.0 <= u <= 1.0):
        raise ValueError("Bernoulli parameter must lie in [0,1]")
    return (rng.random(n) < u).astype(np.uint8)


def frequency_of_ones(k: Kernel, eta: np.ndarray) -> np.ndarray:
    """f_1(x) over all sites (f_0 = 1 - f_1 since rows sum to 1).

    ``eta`` is one configuration of shape (n,) or a stack of shape (..., n);
    the result has its shape.
    """
    vals = eta[..., k.indices].astype(np.float64)
    contrib = k.weights * vals
    out = np.add.reduceat(contrib, k.indptr[:-1], axis=-1)
    out[..., k.indptr[:-1] == k.indptr[1:]] = 0.0
    return out

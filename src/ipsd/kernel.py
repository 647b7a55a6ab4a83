"""Finite irreducible probability kernels and binary site configurations.

A kernel is a pair (E, q) with E a finite site set (indexed 0..n-1) and q a
stochastic matrix with zero diagonal: q(x, .) is the neighbor-sampling
distribution of site x.  Interaction neighborhoods, local type frequencies,
and every lattice model in this package are built on top of it.

Storage is CSR-like (flat index/weight arrays plus row pointers) so that
per-site frequency sums vectorize; the reverse (in-neighbor) structure is
kept alongside because Gillespie updates need to know whose frequencies a
flip invalidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = [
    "Kernel",
    "torus_kernel",
    "complete_kernel",
    "explicit_kernel",
    "local_frequency",
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
    with q(x, y) > 0 together with those weights.  ``shape`` is the torus
    shape when the kernel was built from one (informational only).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_weights: np.ndarray
    shape: tuple[int, ...] | None = None

    def out_edges(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and weights of site x (the support of q(x, .))."""
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def in_edges(self, y: int) -> tuple[np.ndarray, np.ndarray]:
        """Sites x with q(x, y) > 0, and the weights q(x, y)."""
        lo, hi = self.in_indptr[y], self.in_indptr[y + 1]
        return self.in_indices[lo:hi], self.in_weights[lo:hi]

    def q(self, x: int, y: int) -> float:
        nbr, w = self.out_edges(x)
        hit = np.nonzero(nbr == y)[0]
        return float(w[hit[0]]) if hit.size else 0.0

    def dense(self) -> np.ndarray:
        """Dense q matrix; guarded to small site sets."""
        if self.n > 64:
            raise ValueError("dense kernel storage restricted to n <= 64")
        mat = np.zeros((self.n, self.n))
        for x in range(self.n):
            nbr, w = self.out_edges(x)
            mat[x, nbr] = w
        return mat


def _build(n: int, rows: list[list[tuple[int, float]]], shape=None) -> Kernel:
    """Assemble + validate a Kernel from per-site (neighbor, weight) lists."""
    if n < 2:
        raise ValueError("kernel needs at least two sites")
    indptr = np.zeros(n + 1, dtype=np.int64)
    idx_parts, w_parts = [], []
    for x, row in enumerate(rows):
        for y, w in row:
            if y == x:
                raise ValueError(f"self-loop at site {x}: kernel trace must be zero")
            if not (0 <= y < n):
                raise ValueError(f"edge target {y} out of range")
            if w <= 0:
                raise ValueError("kernel weights must be positive")
        row_sorted = sorted(row)
        idx_parts.append(np.array([y for y, _ in row_sorted], dtype=np.int64))
        w_parts.append(np.array([w for _, w in row_sorted]))
        if abs(w_parts[-1].sum() - 1.0) > _ROWSUM_TOL:
            raise ValueError(f"row {x} of kernel sums to {w_parts[-1].sum()!r}, not 1")
        if len(set(idx_parts[-1].tolist())) != len(idx_parts[-1]):
            raise ValueError(f"duplicate edge in row {x}")
        indptr[x + 1] = indptr[x] + len(row_sorted)
    indices = np.concatenate(idx_parts) if idx_parts else np.zeros(0, dtype=np.int64)
    weights = np.concatenate(w_parts) if w_parts else np.zeros(0)

    # reverse structure
    in_rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for x in range(n):
        lo, hi = indptr[x], indptr[x + 1]
        for y, w in zip(indices[lo:hi], weights[lo:hi]):
            in_rows[y].append((x, w))
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    ii_parts, iw_parts = [], []
    for y, row in enumerate(in_rows):
        row.sort()
        ii_parts.append(np.array([x for x, _ in row], dtype=np.int64))
        iw_parts.append(np.array([w for _, w in row]))
        in_indptr[y + 1] = in_indptr[y] + len(row)
    in_indices = np.concatenate(ii_parts) if ii_parts else np.zeros(0, dtype=np.int64)
    in_weights = np.concatenate(iw_parts) if iw_parts else np.zeros(0)

    k = Kernel(n, indptr, indices, weights, in_indptr, in_indices, in_weights, shape)
    if not _strongly_connected(k):
        raise ValueError("kernel is not irreducible")
    return k


def _strongly_connected(k: Kernel) -> bool:
    # BFS along out-edges and along in-edges; both must reach every site.
    for edges in (k.out_edges, k.in_edges):
        seen = np.zeros(k.n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            x = stack.pop()
            for y in edges(x)[0]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(int(y))
        if not seen.all():
            return False
    return True


def torus_kernel(d: int, L: int) -> Kernel:
    """Uniform nearest-neighbor kernel on the d-dimensional torus (Z/LZ)^d.

    Each site puts weight 1/(2d) on each of its 2d lattice neighbors.
    Sites are flattened in row-major order, so site (c_0, .., c_{d-1})
    gets index sum(c_i * L^(d-1-i)).
    """
    if d < 1 or L < 2:
        raise ValueError("torus needs d >= 1 and L >= 2")
    n = L**d
    coords = list(product(range(L), repeat=d))
    index = {c: i for i, c in enumerate(coords)}
    w = 1.0 / (2 * d)
    rows = []
    for c in coords:
        acc: dict[int, float] = {}
        for axis in range(d):
            for step in (1, -1):
                cc = list(c)
                cc[axis] = (cc[axis] + step) % L
                j = index[tuple(cc)]
                acc[j] = acc.get(j, 0.0) + w
        rows.append(list(acc.items()))
    return _build(n, rows, shape=(L,) * d)


def complete_kernel(N: int) -> Kernel:
    """Uniform kernel on the complete graph: q(x, y) = 1/(N-1) for y != x."""
    if N < 2:
        raise ValueError("complete kernel needs N >= 2")
    w = 1.0 / (N - 1)
    rows = [[(y, w) for y in range(N) if y != x] for x in range(N)]
    return _build(N, rows, shape=None)


def explicit_kernel(n: int, edges: list[tuple[int, int, float]]) -> Kernel:
    """Kernel from an explicit weighted edge list [(x, y, q(x,y)), ...]."""
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for x, y, w in edges:
        rows[x].append((int(y), float(w)))
    return _build(n, rows, shape=None)


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


def local_frequency(k: Kernel, eta: np.ndarray, x: int, value: int) -> float:
    """Kernel-weighted frequency f_value(x) = sum_y q(x,y) 1{eta(y)=value}."""
    nbr, w = k.out_edges(x)
    if value == 1:
        return float(w @ (eta[nbr] != 0))
    return float(w @ (eta[nbr] == 0))


def frequency_of_ones(k: Kernel, eta: np.ndarray) -> np.ndarray:
    """Vector of f_1(x) over all sites (f_0 = 1 - f_1 since rows sum to 1)."""
    vals = eta[k.indices].astype(np.float64)
    contrib = k.weights * vals
    out = np.add.reduceat(contrib, k.indptr[:-1])
    out[k.indptr[:-1] == k.indptr[1:]] = 0.0
    return out

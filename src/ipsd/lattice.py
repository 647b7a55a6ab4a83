"""Torus geometry and homogeneous migration stencils.

The diffusion and walker modules share one migration structure: a finite
set of lattice displacements with nonnegative rate weights, translated
over a d-dimensional torus.  ``m(x, y) = weight(y - x)`` in torus
arithmetic.  This module keeps the displacement table and the flat-index
move tables in one place so both sides of a moment duality are guaranteed
to use identical rates.  :func:`ipsd.kernel.torus_kernel` takes the spin
system's torus from the same nearest-neighbor move table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["Stencil", "Torus"]


@dataclass(frozen=True)
class Stencil:
    """Homogeneous finite-range migration weights, indexed by displacement."""

    displacements: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.displacements:
            raise ValueError("a stencil needs at least one displacement")
        if len(self.displacements) != len(self.weights):
            raise ValueError("displacements and weights must align")
        for disp, w in zip(self.displacements, self.weights):
            if all(c == 0 for c in disp):
                raise ValueError("zero displacement is not a migration")
            if not 0.0 <= w < np.inf:  # a NaN fails too
                raise ValueError(f"migration weights must be finite and nonnegative, got {w}")
        dims = {len(d) for d in self.displacements}
        if len(dims) > 1:
            raise ValueError("displacements must share one dimension")
        if len(set(self.displacements)) != len(self.displacements):
            raise ValueError("duplicate displacement")

    @property
    def dim(self) -> int:
        return len(self.displacements[0])

    @property
    def total_rate(self) -> float:
        return float(sum(self.weights))

    @classmethod
    def nearest_neighbor(cls, d: int, total_rate: float = 1.0) -> "Stencil":
        """Rate ``total_rate`` split evenly over the 2d unit displacements."""
        if d < 1 or not 0.0 <= total_rate < np.inf:
            raise ValueError(f"need d >= 1 and a finite nonnegative rate, got d = {d} and "
                             f"rate {total_rate}")
        disps = [tuple(step if i == axis else 0 for i in range(d))
                 for axis in range(d) for step in (1, -1)]
        w = total_rate / (2 * d)
        return cls(tuple(disps), tuple(w for _ in disps))


@dataclass(frozen=True)
class Torus:
    """d-dimensional torus of side L with row-major flat indexing."""

    d: int
    L: int

    def __post_init__(self):
        if self.d < 1 or self.L < 2:
            raise ValueError("torus needs d >= 1 and L >= 2")

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d

    def check_stencil(self, stencil: Stencil) -> None:
        """Refuse a stencil of another dimension, or one with a displacement that moves no site.

        A displacement that is a multiple of L on every axis takes each site
        to itself, so its weight would count as a migration that moves nothing.
        """
        if stencil.dim != self.d:
            raise ValueError("stencil dimension does not match the torus")
        for disp in stencil.displacements:
            if all(c % self.L == 0 for c in disp):
                raise ValueError(f"displacement {disp} is a multiple of L = {self.L} on every "
                                 f"axis: it moves no site of the torus")

    def move_table(self, stencil: Stencil) -> np.ndarray:
        """(n_sites, n_displacements) flat indices of x + disp on the torus.

        One read-only table per (torus, stencil), shared by every caller.
        """
        self.check_stencil(stencil)
        return _move_table(self, stencil)


@functools.lru_cache(maxsize=64)
def _move_table(torus: Torus, stencil: Stencil) -> np.ndarray:
    coords = np.indices(torus.shape).reshape(torus.d, -1, 1)        # (d, n, 1)
    disps = np.array(stencil.displacements, dtype=np.int64).T[:, None, :]  # (d, 1, k)
    table = np.ravel_multi_index(tuple((coords + disps) % torus.L), torus.shape)
    table = table.astype(np.int64, copy=False)
    table.flags.writeable = False
    return table

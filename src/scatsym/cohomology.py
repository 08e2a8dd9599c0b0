"""Cohomology descriptor calculators: the closed formulas of the sc de
Rham, sc Poisson and b^k Poisson theorems on a Betti profile.

Reports mix finite Betti ranks with infinite-dimensional function-space
summands; the latter are carried as first-class entries and never dropped.
The quotient-complex relation checkers and the horizontal foliation
differential live in `quotient`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .expr import Record
from .structures import StructureError


class CohomologyError(StructureError):
    pass


# ---------------------------------------------------------------------------
# Betti profiles


def kunneth(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Betti numbers of a product from those of the factors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def torus_betti(dim: int) -> tuple:
    return tuple(math.comb(dim, p) for p in range(dim + 1))


def sphere_betti(dim: int) -> tuple:
    if dim == 0:
        return (2,)
    if dim == 1:
        return (1, 1)
    return (1,) + (0,) * (dim - 1) + (1,)


class BettiProfile(Record):
    dim_m: int
    betti_m: tuple
    dim_z: int
    betti_z: tuple  # of one Z component
    z_components: int = 1
    tag: str = ""

    def __post_init__(self):
        if self.dim_m < 0 or self.dim_z < 0:
            raise CohomologyError("dimensions must be nonnegative")
        if len(self.betti_m) != self.dim_m + 1 or len(self.betti_z) != self.dim_z + 1:
            raise CohomologyError("Betti table length must be dim + 1")
        for b in self.betti_m + self.betti_z:
            if b < 0:
                raise CohomologyError("Betti numbers must be nonnegative")
        if self.betti_m[0] < 1 or self.betti_z[0] < 1:
            raise CohomologyError("b_0 must be at least 1")
        if self.z_components < 1:
            raise CohomologyError("Z must have at least one component")

    def b_m(self, p: int) -> int:
        return self.betti_m[p] if 0 <= p <= self.dim_m else 0

    def b_z(self, p: int) -> int:
        return self.betti_z[p] if 0 <= p <= self.dim_z else 0

    @classmethod
    def torus(cls, dim: int) -> "BettiProfile":
        return cls(dim, torus_betti(dim), dim - 1, torus_betti(dim - 1), 1,
                   "torus")

    @classmethod
    def sphere(cls, n: int) -> "BettiProfile":
        return cls(2 * n, sphere_betti(2 * n), 2 * n - 1,
                   sphere_betti(2 * n - 1), 1, "sphere")

    @classmethod
    def bk_torus(cls, n: int) -> "BettiProfile":
        """T^{2n} with the two disjoint singular tori T^{2n-1}."""
        return cls(2 * n, torus_betti(2 * n), 2 * n - 1,
                   torus_betti(2 * n - 1), 2, "bk-torus")


# ---------------------------------------------------------------------------
# report summands


class FiniteRank(Record):
    rank: int
    label: str


class Zero(Record):
    label: str


class InfiniteDimensional(Record):
    descriptor: str


class Unresolved(Record):
    descriptor: str


class CohomologyReport(Record):
    theorem: str
    degree: int
    summands: tuple

    @property
    def finite_rank(self) -> int:
        return sum(s.rank for s in self.summands if isinstance(s, FiniteRank))


def sc_derham(profile: BettiProfile, p: int) -> CohomologyReport:
    """H^p of the scattering de Rham complex:
    H^p(M) + H^{p-1}(Z) + Omega^{p-1}(Z; |N*Z|^{-p}), per Z component."""
    if p < 0 or p > profile.dim_m:
        raise CohomologyError(f"degree {p} out of range")
    summands = [FiniteRank(profile.b_m(p), f"H^{p}(M)")]
    if p >= 1:
        for _ in range(profile.z_components):
            summands.append(FiniteRank(profile.b_z(p - 1), f"H^{p-1}(Z)"))
            summands.append(InfiniteDimensional(
                f"Omega^{p-1}(Z; |N*Z|^{-p})"))
    return CohomologyReport("sc-derham", p, tuple(summands))


def _kernel_slot(k: int, n: int) -> object:
    """K^k = ker(d alpha wedge: Omega_xi^k -> Omega_xi^{k+2}) on Z of
    dimension 2n - 1; zero for k <= n-1 (injective range and the k <= 0
    convention), all of Omega_xi^k where the wedge map vanishes."""
    if k <= n - 1:
        return Zero(f"K^{k}")
    if k in (2 * n, 2 * n + 1):
        return InfiniteDimensional(f"Omega_xi^{k}(Z)")
    return Unresolved(
        f"ker(d alpha wedge: Omega_xi^{k}(Z) -> Omega_xi^{k+2}(Z))")


def sc_poisson(profile: BettiProfile, p: int, n: int) -> CohomologyReport:
    """Poisson cohomology of a non-degenerate scattering bivector:
    H^p(M) + H^{p-1}(Z) + Omega^{p-1}(Z) + Omega_xi^{p-1}(Z) + K^{p-2}."""
    if profile.dim_z != 2 * n - 1:
        raise CohomologyError("Z dimension must be 2n - 1")
    if p < 0 or p > profile.dim_m:
        raise CohomologyError(f"degree {p} out of range")
    summands = [FiniteRank(profile.b_m(p), f"H^{p}(M)")]
    for _ in range(profile.z_components):
        if p >= 1:
            summands.append(FiniteRank(profile.b_z(p - 1), f"H^{p-1}(Z)"))
            summands.append(InfiniteDimensional(f"Omega^{p-1}(Z)"))
            summands.append(InfiniteDimensional(f"Omega_xi^{p-1}(Z)"))
        else:
            summands.append(Zero(f"H^{p-1}(Z)"))
            summands.append(Zero(f"Omega^{p-1}(Z)"))
            summands.append(Zero(f"Omega_xi^{p-1}(Z)"))
        summands.append(_kernel_slot(p - 2, n))
    return CohomologyReport("sc-poisson", p, tuple(summands))


def _horizontal_slot(profile: BettiProfile, q: int) -> object:
    if q < 0:
        return Zero(f"H_h^{q}(F_R)")
    if profile.tag == "bk-torus":
        fiber = profile.dim_m - 2
        return InfiniteDimensional(f"C^inf(S^1; H^{q}(T^{fiber}))")
    return Unresolved(f"H_h^{q}(F_R)")


def bk_poisson(profile: BettiProfile, p: int, k: int) -> CohomologyReport:
    """Poisson cohomology of a non-degenerate b^k bivector: H^p(M) +
    H^{p-1}(Z) for k = 1, with (H_h^{p-2})^{k-1} + (H_h^{p-1})^{k-1}
    appended per Z component for k >= 2."""
    if k < 1:
        raise CohomologyError("k must be at least 1")
    if p < 0 or p > profile.dim_m:
        raise CohomologyError(f"degree {p} out of range")
    summands = [FiniteRank(profile.b_m(p), f"H^{p}(M)")]
    for _ in range(profile.z_components):
        if p >= 1:
            summands.append(FiniteRank(profile.b_z(p - 1), f"H^{p-1}(Z)"))
        if k >= 2:
            for q in (p - 2, p - 1):
                slot = _horizontal_slot(profile, q)
                if isinstance(slot, Zero):
                    continue
                summands.extend([slot] * (k - 1))
    return CohomologyReport("bk-poisson", p, tuple(summands))

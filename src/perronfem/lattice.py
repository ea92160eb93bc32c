"""Exact finite-dimensional positive matrix semigroups.

A square matrix with nonnegative off-diagonal entries generates an
entrywise-nonnegative semigroup exp(tQ); coordinate subsets play the role
of closed ideals, irreducibility is strong connectivity of the coupling
graph, and Perron theory supplies the principal eigenpair. Everything
here is small and dense, so claims can be checked exhaustively: up to
dimension six, irreducibility is cross-checked against brute-force
enumeration of all invariant coordinate masks.

Semigroup values are post-processed with the exact sign structure of the
coupling graph: entries that graph reachability proves to be exactly zero
are snapped to zero, so positivity verdicts never hinge on rounding dust.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

EXHAUSTIVE_DIM = 6
SNAP_TOL = 1e-14
PERRON_TOL = 1e-9  # relative width of perron_report's lambda1 cluster


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class MetzlerGenerator:
    """Generator with exactly nonnegative off-diagonal entries."""

    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] < 1:
            raise LatticeError("Q must be a square matrix of dimension >= 1")
        off = Q - np.diag(np.diag(Q))
        if off.min() < 0:
            i, j = np.unravel_index(int(np.argmin(off)), Q.shape)
            raise LatticeError(
                f"off-diagonal entry Q[{i}][{j}] = {Q[i, j]} is negative")
        object.__setattr__(self, "Q", Q)
        Q.setflags(write=False)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def _reachability(g: MetzlerGenerator) -> np.ndarray:
    """reach[i][j] True iff exp(tQ)[i][j] > 0 for t > 0 (path j -> i,
    including the trivial path i == j)."""
    n = g.n
    pattern = (g.Q - np.diag(np.diag(g.Q))) > 0
    reach = np.eye(n, dtype=bool)
    while True:
        new = reach | (pattern @ reach)
        if np.array_equal(new, reach):
            return reach
        reach = new


def semigroup_at(g: MetzlerGenerator, t: float) -> np.ndarray:
    """exp(tQ) with graph-exact zeros.

    Entries the coupling graph proves zero are snapped to exact 0 when
    numerically below SNAP_TOL (they always are; a larger value would
    indicate a broken exponential).
    """
    if t < 0:
        raise LatticeError("semigroup defined for t >= 0")
    if t == 0:
        return np.eye(g.n)
    S = expm(t * g.Q)
    reach = _reachability(g)
    scale = max(1.0, float(np.abs(S).max()))
    dead = ~reach
    if np.any(np.abs(S[dead]) > SNAP_TOL * scale):
        raise LatticeError("matrix exponential inconsistent with the "
                           "coupling graph")
    S[dead] = 0.0
    return S


def invariant_masks(g: MetzlerGenerator) -> list:
    """All nontrivial coordinate masks B whose ideal {u : u|_B = 0} is
    invariant under exp(Q): exactly the B with zero block S[B, not B]."""
    S = semigroup_at(g, 1.0)
    n = g.n
    masks = []
    for size in range(1, n):
        for B in combinations(range(n), size):
            rest = [j for j in range(n) if j not in B]
            if np.all(S[np.ix_(list(B), rest)] == 0.0):
                masks.append(frozenset(B))
    return masks


def is_irreducible(g: MetzlerGenerator) -> bool:
    """No nontrivial invariant coordinate ideal.

    Decided by strong connectivity of the coupling graph (edge i -> j when
    Q[j][i] > 0); for dimension <= 6 the verdict is cross-checked against
    exhaustive ideal-mask enumeration.
    """
    pattern = (g.Q - np.diag(np.diag(g.Q))) > 0
    ncomp, _ = connected_components(csr_matrix(pattern.T), directed=True,
                                    connection="strong")
    verdict = ncomp == 1
    if g.n <= EXHAUSTIVE_DIM:
        brute = len(invariant_masks(g)) == 0
        if brute != verdict:
            raise LatticeError("strong-connectivity verdict disagrees with "
                               "exhaustive ideal enumeration")
    return verdict


def positivity_improving_equiv(g: MetzlerGenerator,
                               t_samples=(0.01, 1.0, 10.0)) -> bool:
    """Whether exp(tQ) is entrywise positive at every sample time.

    For dimension <= 6 each sample is asserted to coincide with
    irreducibility.
    """
    samples = [bool(np.all(semigroup_at(g, t) > 0.0)) for t in t_samples]
    if g.n <= EXHAUSTIVE_DIM:
        irr = is_irreducible(g)
        if any(ok != irr for ok in samples):
            raise LatticeError(
                "positivity-improving sample disagrees with irreducibility")
    return all(samples)


@dataclass(frozen=True)
class PerronReport:
    lambda1: float
    vector: np.ndarray
    simple: bool
    gap: float


def perron_report(g: MetzlerGenerator) -> PerronReport:
    """Principal eigenvalue of A = -Q (minimal real part), its eigenvector,
    simplicity, and the gap to the rest of the spectrum.

    The bottom of the spectrum of -Q is always attained by a real
    eigenvalue (the negated spectral bound of the generator). For
    irreducible generators it is simple with a strictly positive
    eigenvector; reducible inputs may report a multiple eigenvalue
    (simple = False) and an eigenvector with zeros.
    """
    A = -g.Q
    values, vectors = np.linalg.eig(A)
    lam1 = float(values.real.min())
    scale = max(1.0, abs(lam1))
    cluster = np.flatnonzero(np.abs(values - lam1) <= PERRON_TOL * scale)
    simple = len(cluster) == 1
    rest = np.setdiff1d(np.arange(g.n), cluster)
    gap = float(values.real[rest].min() - lam1) if rest.size else 0.0

    idx = int(np.argmin(np.abs(values - lam1)))
    v = np.real(vectors[:, idx])
    v = v / np.linalg.norm(v)
    if v.sum() < 0 or (v.sum() == 0 and v[np.flatnonzero(v)[0]] < 0):
        v = -v
    snapped = np.where(np.abs(v) <= SNAP_TOL, 0.0, v)
    return PerronReport(lambda1=lam1, vector=snapped, simple=simple, gap=gap)

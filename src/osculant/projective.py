"""Points, subspaces and osculating flags of curves in real projective space.

Subspaces are stored by orthonormal spanning rows of their linear lift in
R^(n+1); projective dimension is one less than the number of rows, and the
empty intersection is the subspace with zero rows (dimension -1).  All rank
decisions use singular values with a relative cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError

RANK_REL = 1e-9         # singular values below RANK_REL * s_max count as zero
MERGE = 1e-7            # moments at most MERGE apart merge into one
_MEMBER_REL = 1e-6      # subspace membership residual, relative to |p|


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n by a homogeneous representative (never the zero vector)."""

    coords: np.ndarray

    def __post_init__(self):
        v = point_vector(self.coords)
        if v.shape[0] < 2:
            raise ValueError("homogeneous coordinates need at least two entries")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "coords", v)

    @property
    def n(self) -> int:
        return self.coords.shape[0] - 1


def point_vector(p, dim: int | None = None) -> np.ndarray:
    """Homogeneous coordinates of a point, with a positive finite norm.

    Non-finite and zero vectors raise ValueError.  A vector whose sum of
    squares over- or underflows is divided by its largest |entry|; any
    other vector is returned with its bits.
    """
    v = np.asarray(getattr(p, "coords", p), float)
    if v.ndim != 1:
        raise ValueError("expected a single coordinate vector")
    if dim is not None and v.shape != (dim,):
        raise ValueError(f"point must have {dim} homogeneous coordinates")
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)
    if not 0.0 < nrm < np.inf:
        if not np.isfinite(v).all():
            raise ValueError("point coordinates must be finite")
        if not v.any():
            raise ValueError("zero vector is not a point")
        v = v / np.abs(v).max()
    return v


def normalize(raw) -> ProjPoint:
    """Canonical representative: unit norm, first significant entry positive."""
    v = point_vector(raw)
    v = v / np.linalg.norm(v)
    lead = np.nonzero(np.abs(v) > 1e-12)[0]
    if lead.size and v[lead[0]] < 0:
        v = -v
    return ProjPoint(v)


@dataclass(frozen=True)
class Subspace:
    """A projective subspace by orthonormal spanning rows of its linear lift."""

    basis: np.ndarray
    ambient_dim: int = field(default=-1)

    def __post_init__(self):
        b = np.asarray(self.basis, float)
        if b.ndim != 2:
            raise ValueError("basis must be a matrix (rows are spanning vectors)")
        amb = b.shape[1] - 1 if self.ambient_dim < 0 else self.ambient_dim
        if b.shape[1] != amb + 1:
            raise ValueError("basis width disagrees with ambient dimension")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "ambient_dim", amb)

    @classmethod
    def from_vectors(cls, vectors) -> "Subspace":
        """Orthonormalize spanning vectors; rejects dependent input."""
        vmat = np.atleast_2d(np.asarray(vectors, float))
        q = _row_space(vmat)
        if q.shape[0] != vmat.shape[0]:
            raise ValueError("spanning vectors are linearly dependent at tolerance")
        return cls(q, vmat.shape[1] - 1)

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((0, ambient_dim + 1)), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim + 1), ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.shape[0] - 1

    def contains(self, p) -> bool:
        v = point_vector(p)
        nrm = np.linalg.norm(v)
        if self.basis.shape[0] == 0:
            return False
        res = v - self.basis.T @ (self.basis @ v)
        return float(np.linalg.norm(res)) <= _MEMBER_REL * nrm

    def annihilator(self) -> np.ndarray:
        """Orthonormal rows spanning the covectors that vanish on this subspace."""
        return complement(self.basis)

    def spanning_point(self) -> ProjPoint:
        if self.dim != 0:
            raise ValueError("spanning_point requires a zero-dimensional subspace")
        return normalize(self.basis[0])


def complement(rows) -> np.ndarray:
    """Orthonormal rows spanning the complement of independent rows, or of a vector."""
    rows = np.atleast_2d(rows)
    return np.linalg.svd(rows)[2][rows.shape[0]:]


def _row_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space; rows are pre-normalized for conditioning."""
    mat = np.atleast_2d(np.asarray(mat, float))
    if mat.shape[0] == 0:
        return mat
    nrm = np.linalg.norm(mat, axis=1, keepdims=True)
    if np.any(nrm == 0.0):
        raise ValueError("zero row in spanning set")
    _, s, vt = np.linalg.svd(mat / nrm)
    rank = int(np.sum(s > RANK_REL * s[0])) if s.size else 0
    return vt[:rank]


def intersect(subspaces) -> Subspace:
    """Intersection of projective subspaces; empty intersection has dim -1.

    Computed as the joint nullspace of the stacked annihilators, so the result
    is symmetric in the input order up to an orthonormal change of basis.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("need at least one subspace")
    amb = subs[0].ambient_dim
    if any(s.ambient_dim != amb for s in subs):
        raise ValueError("mixed ambient dimensions")
    return Subspace(joint_null([s.annihilator() for s in subs], RANK_REL)[0], amb)


def joint_null(annihilators, *rank_rels) -> list:
    """Orthonormal null space of stacked annihilator rows, once per cutoff.

    One SVD serves every relative cutoff; no rows leave the whole space.
    """
    _, s, vt = np.linalg.svd(np.vstack(annihilators))
    return [vt[int(np.sum(s > rel * s[0])) if s.size else 0:] for rel in rank_rels]


def osculating_frame(jets) -> np.ndarray:
    """Right singular vectors of a jet (k+1, n+1) or of a stack of jets.

    Rows are normalized first.  The leading k+1 rows of the result span the
    osculating subspace, the rest annihilate it.  A row no longer than
    RANK_REL times its jet's longest, as at a cusp, or a rank drop at
    RANK_REL raises DegeneracyError.
    """
    order = jets.shape[-2] - 1
    nrm = np.linalg.norm(jets, axis=-1, keepdims=True)
    if (nrm <= RANK_REL * nrm.max(axis=-2, keepdims=True)).any():
        raise DegeneracyError(f"a jet of order {order} has a vanishing row")
    _, s, vt = np.linalg.svd(jets / nrm, full_matrices=True)
    if (s[..., -1] <= RANK_REL * s[..., 0]).any():
        raise DegeneracyError(f"a jet of order {order} drops rank")
    return vt


def osculating_subspace(curve, t: float, k: int) -> Subspace:
    """Span of the derivatives 0..k at t: the codimension n-k osculating subspace."""
    n = curve.n
    if not 0 <= k <= n:
        raise ValueError(f"osculating order k must lie in 0..{n}")
    return Subspace(osculating_frame(curve.jet(t, k))[:k + 1], n)


def osculating_hyperplane(curve, t: float) -> np.ndarray:
    """Unit covector of the osculating hyperplane at t (sign canonicalized)."""
    h = osculating_frame(curve.jet(t, curve.n - 1))[-1]
    lead = np.nonzero(np.abs(h) > 1e-12)[0]
    if lead.size and h[lead[0]] < 0:
        h = -h
    return h


def fold(t, period: float) -> float:
    """t reduced into [0, period).

    t % period alone rounds to period itself for a tiny negative t.
    """
    t = float(t) % period
    return t if t < period else 0.0


def circular_gap(a, b, period: float):
    """Distance between moments on the circle of the given period; broadcasts."""
    d = np.abs(a - b) % period
    return np.minimum(d, period - d)


def separated_moments(r: int, period: float, sep: float, rng) -> np.ndarray:
    """r sorted moments in [0, period) with circular gaps of at least sep.

    Uniform draws are retried 200 times; after that the moments are evenly
    spaced, which is separated whenever r * sep <= period.
    """
    for _ in range(200):
        ts = np.sort(rng.uniform(0.0, period, r))
        if np.diff(ts, append=ts[0] + period).min() >= sep:
            return ts
    return period * np.arange(r) / r


def circular_clusters(ts, period: float, gap: float) -> list:
    """Indices of sorted moments ts in [0, period], grouped on the circle.

    Sorted neighbours at most gap apart chain into one group, and the last
    group joins the first across the seam; that group lists the last
    group's indices first, so each group ascends once its wrapped members
    are moved down by period.
    """
    if not len(ts):
        return []
    groups = [[0]]
    for i in range(1, len(ts)):
        if ts[i] - ts[i - 1] <= gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and (ts[0] + period) - ts[-1] <= gap:
        groups[0] = groups.pop() + groups[0]
    return groups


def merge_moments(moments, period: float):
    """Group parameter values at most MERGE apart on the circle.

    Returns [(representative, multiplicity), ...] with representatives in
    [0, period), one per circular_clusters group and in its order, so a group
    across the seam comes first.  Coincident moments are merged *before* any
    intersection is formed, so r copies of t contribute the codimension-r
    osculating subspace.
    """
    ts = sorted(float(t) % period for t in moments)
    out = []
    for g in circular_clusters(ts, period, MERGE):
        # members indexed above the group's last one wrapped across the seam
        unwrapped = [ts[i] - period if i > g[-1] else ts[i] for i in g]
        out.append((fold(np.mean(unwrapped), period), len(g)))
    return out


def osculating_intersection(curve, moments) -> Subspace:
    """Intersection of osculating subspaces for a multiset of moments.

    Each moment of multiplicity r contributes the codimension-r osculating
    subspace at its parameter; for total multiplicity n on a convex curve the
    result is a single point.
    """
    n = curve.n
    merged = merge_moments(moments, curve.projective_period)
    if not merged:
        raise ValueError("need at least one moment")
    if sum(r for _, r in merged) > n:
        raise ValueError("total multiplicity exceeds the ambient dimension")
    anns = [osculating_frame(curve.jet(t, n - r))[n - r + 1:] for t, r in merged]
    return Subspace(joint_null(anns, RANK_REL)[0], n)


def same_subspace(a: Subspace, b: Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    if a.dim < 0:
        return True
    s = np.linalg.svd(np.vstack([a.basis, b.basis]), compute_uv=False)
    return int(np.sum(s > RANK_REL * s[0])) == a.basis.shape[0]

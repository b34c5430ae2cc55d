"""Sampled ruled model of the discriminant hypersurface, with file export.

The discriminant is the union over the circle of the codimension-2
osculating subspaces.  Each of those subspaces meets a fixed affine chart
in an affine (n-2)-plane through the curve point, so the whole hypersurface
is sampled as a (moment, ruling) grid: for n=3 this is the familiar tangent
developable surface, for n=2 it degenerates to the curve itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import ParamCurve
from .errors import GeometryError
from .projective import complement, osculating_subspace

_EXTENT_FACTOR = 3.0


@dataclass(frozen=True)
class RuledSample:
    """Grid of ambient points on the codim-2 osculating subspaces.

    patches has shape (t_steps, ruling_steps, n+1); rulings holds the
    affine ruling parameters used for each point, shape
    (t_steps, ruling_steps, max(n-2, 1)).
    """

    curve: ParamCurve
    ts: np.ndarray
    patches: np.ndarray
    rulings: np.ndarray
    chart: np.ndarray

    @property
    def resolution(self) -> tuple:
        return self.patches.shape[0], self.patches.shape[1]


def _chart_covector(curve: ParamCurve) -> np.ndarray:
    """Affine chart covector for plotting.

    Even convex curves reuse the hull chart, which contains the whole
    curve.  In odd dimension every hyperplane meets the curve (odd
    intersection parity), so the best available chart maximizes the mean
    square distance to infinity: the top singular direction of the unit
    sample matrix.
    """
    if curve.n % 2 == 0:
        try:
            return curve.hull.chart
        except GeometryError:
            pass
    ts = np.arange(256) * (curve.projective_period / 256)
    pts = curve.point(ts)
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    _, _, vt = np.linalg.svd(unit)
    w = vt[0]
    pair = unit @ w
    if pair[int(np.argmax(np.abs(pair)))] < 0.0:
        w = -w
    return w


def _ruling_offsets(steps: int, dims: int, extent: float) -> np.ndarray:
    """Deterministic grid of `steps` points filling [-extent, extent]^dims."""
    if dims == 1:
        return np.linspace(-extent, extent, steps)[:, None]
    per = int(np.ceil(steps ** (1.0 / dims)))
    axes = [np.linspace(-extent, extent, per)] * dims
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)
    return grid[:steps]


def sample_discriminant(c: ParamCurve, t_steps: int,
                        ruling_steps: int) -> RuledSample:
    """Sample the ruled discriminant hypersurface on a (t, ruling) grid."""
    if t_steps < 2 or ruling_steps < 1:
        raise ValueError("need at least 2 moment steps and 1 ruling step")
    n = c.n
    period = c.projective_period
    w = _chart_covector(c)
    ts = np.arange(t_steps) * (period / t_steps)
    pts = c.point(ts)
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    pair = unit @ w
    # bounding radius of the visible part of the curve; samples crossing
    # the chart's infinity hyperplane would make it meaningless
    visible = np.abs(pair) >= 0.1 * np.abs(pair).max()
    chart_pts = unit[visible] / pair[visible, None]
    center = chart_pts.mean(axis=0)
    radius = float(np.linalg.norm(chart_pts - center, axis=1).max())
    extent = _EXTENT_FACTOR * radius

    if n == 2:
        patches = (unit / pair[:, None])[:, None, :]
        rulings = np.zeros((t_steps, 1, 1))
        return RuledSample(c, ts, patches, rulings, w)

    dims = n - 2
    offsets = _ruling_offsets(ruling_steps, dims, extent)
    ruling_steps = offsets.shape[0]
    patches = np.empty((t_steps, ruling_steps, n + 1))
    rulings = np.empty((t_steps, ruling_steps, dims))
    for i, t in enumerate(ts):
        sub = osculating_subspace(c, float(t), n - 2)
        span = sub.basis
        sw = span @ w
        nsw = float(np.linalg.norm(sw))
        if nsw < 1e-9:
            raise GeometryError(
                f"ruling at t={t:.6f} is parallel to the chart's infinity"
            )
        # least-norm point of the ruling inside the chart, then the
        # directions of its affine slice (span vectors at infinity)
        base = span.T @ (sw / nsw ** 2)
        dirs = complement(sw) @ span
        patches[i] = base + offsets @ dirs
        rulings[i] = offsets
    return RuledSample(c, ts, patches, rulings, w)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def export(s: RuledSample, format: str, out) -> Path:
    """Write the sample as OBJ (n=3 surfaces), CSV, or JSON point cloud."""
    path = Path(out)
    fmt = format.lower()
    t_steps, r_steps = s.resolution
    n = s.curve.n
    if fmt == "obj":
        if n != 3:
            raise GeometryError(
                "OBJ export is a surface format; it needs a 3-dimensional "
                f"ambient space, got n={n}"
            )
        frame = complement(s.chart)
        lines = []
        for i in range(t_steps):
            for j in range(r_steps):
                y = frame @ s.patches[i, j]
                lines.append("v " + " ".join(_fmt(v) for v in y))
        for i in range(t_steps - 1):
            for j in range(r_steps - 1):
                a = i * r_steps + j + 1
                b = a + 1
                d = a + r_steps
                e = d + 1
                lines.append(f"f {a} {b} {e} {d}")
        path.write_text("\n".join(lines) + "\n")
        return path

    dims = s.rulings.shape[2]
    columns = (["t"] + [f"s{k + 1}" for k in range(dims)]
               + [f"x{k}" for k in range(n + 1)])
    rows = []
    for i in range(t_steps):
        for j in range(r_steps):
            rows.append([s.ts[i], *s.rulings[i, j], *s.patches[i, j]])
    if fmt == "csv":
        body = [",".join(columns)]
        body += [",".join(_fmt(v) for v in row) for row in rows]
        path.write_text("\n".join(body) + "\n")
        return path
    if fmt == "json":
        doc = {
            "n": n,
            "resolution": [t_steps, r_steps],
            "columns": columns,
            "rows": [[float(_fmt(v)) for v in row] for row in rows],
        }
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                        + "\n")
        return path
    raise ValueError(f"unknown export format {format!r}; use obj, csv or json")

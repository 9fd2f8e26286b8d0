"""Geometric oracle for the single-limit portfolio problem in d <= 3.

Ray-boundary intersection with the scaled generator hull gives the optimum of
a one-limit problem by plane geometry alone, independently of the
cutting-plane solver in `crm.optimize`; the optimizer tests check against it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull


@dataclass(frozen=True)
class GeometricSolution:
    boundary_point: np.ndarray
    h: np.ndarray
    value: float
    degenerate: bool  # ray met a vertex/edge: normal cone is not a single ray


def geometric_solution(points, rewards) -> GeometricSolution:
    """Solve the single-generator problem by ray-boundary intersection.

    `points` is a finite cloud whose convex hull is the (scaled) generator;
    the ray from the reward vector through the origin, extended beyond the
    origin, meets the hull boundary at the solution's supporting point. The
    inner normal there, scaled to pay -1 on that point, is the optimal
    portfolio, worth |rewards| / |boundary point|. Requires the origin
    strictly inside the hull and dimension <= 3.
    """
    g = np.asarray(points, dtype=float)
    e = np.asarray(rewards, dtype=float)
    if g.ndim != 2 or g.shape[0] == 0:
        raise ValueError("points must be a nonempty P x d array")
    d = g.shape[1]
    if e.shape != (d,) or not np.any(e != 0.0):
        raise ValueError("rewards must be a nonzero d-vector")
    if d > 3:
        raise ValueError("geometric solver supports d <= 3")
    direction = -e / float(np.linalg.norm(e))
    if d == 1:
        lo, hi = float(g.min()), float(g.max())
        if not lo < 0.0 < hi:
            raise ValueError("origin is not interior to the hull of the points")
        t_point = np.array([lo if direction[0] < 0 else hi])
        h = -1.0 / t_point
        return GeometricSolution(boundary_point=t_point, h=h,
                                 value=float(abs(e[0]) / abs(t_point[0])),
                                 degenerate=False)

    hull = ConvexHull(g)
    normals = hull.equations[:, :d]      # outward unit normals
    offsets = -hull.equations[:, d]      # <n, x> <= offset on the hull
    interior_margin = float(offsets.min())
    if interior_margin <= 1e-12:
        raise ValueError("origin is not interior to the hull of the points")
    along = normals @ direction
    with np.errstate(divide="ignore"):
        t_hit = np.where(along > 1e-14, offsets / along, np.inf)
    s = float(t_hit.min())
    t_point = s * direction
    hits = np.flatnonzero(t_hit <= s * (1.0 + 1e-9))
    degenerate = hits.size > 1
    # inner normals scaled so <h, t_point> = -1; the centroid of the cone's
    # generators resolves vertex/edge hits
    cands = np.array([normals[i] / offsets[i] for i in hits])
    h = cands.mean(axis=0)
    h = -h / float(h @ t_point) * 1.0
    value = float(np.linalg.norm(e) / np.linalg.norm(t_point))
    return GeometricSolution(boundary_point=t_point, h=h, value=value,
                             degenerate=degenerate)

"""Canonical bodies and direction sets used by tests, scripts and demos."""
from __future__ import annotations

import numpy as np

from .geometry import MeshPolyhedron, convex_hull, unit
from .herisson import Herisson, herisson_of_mesh, validate_herisson

PHI = (1.0 + np.sqrt(5.0)) / 2.0

_AXES = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                  [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)


def box_mesh(extents, center=(0.0, 0.0, 0.0)) -> MeshPolyhedron:
    ex = np.asarray(extents, float) / 2.0
    c = np.asarray(center, float)
    corners = np.array([[sx * ex[0], sy * ex[1], sz * ex[2]]
                        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return convex_hull(corners + c)


def cube_mesh(edge=1.0, center=(0.0, 0.0, 0.0)) -> MeshPolyhedron:
    return box_mesh((edge, edge, edge), center)


def cube_herisson(face_area=1.0) -> Herisson:
    return validate_herisson(_AXES, np.full(6, float(face_area)))


def box_herisson(extents) -> Herisson:
    a, b, c = (float(x) for x in extents)
    areas = np.array([b * c, b * c, a * c, a * c, a * b, a * b])
    return validate_herisson(_AXES, areas)


def tetrahedron_mesh(edge=1.0) -> MeshPolyhedron:
    """Regular tetrahedron; its z-axis passes through two opposite edge
    midpoints, so a quarter turn about z maps it to its point reflection."""
    base = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    return convex_hull(base * (edge / (2.0 * np.sqrt(2.0))))


def rotated_tetrahedron_pair(edge=1.0):
    """Two congruent regular tetrahedra, the second turned 90 degrees about
    the vertical axis."""
    t = tetrahedron_mesh(edge)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return t, convex_hull(t.vertices @ rot.T)


def _cyclic(v):
    x, y, z = v
    return [(x, y, z), (z, x, y), (y, z, x)]


def icosahedron_directions() -> np.ndarray:
    """The 20 face normals of a regular icosahedron whose vertices are the
    cyclic permutations of (0, +-1, +-PHI): the 8 cube diagonals plus the 12
    cyclic permutations of (0, +-1/PHI, +-PHI), all of squared norm 3."""
    raw = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    for sy in (1, -1):
        for sz in (1, -1):
            raw.extend(_cyclic((0.0, sy / PHI, sz * PHI)))
    return np.array([unit(v) for v in raw])


def dodecahedron_directions() -> np.ndarray:
    """The 12 face normals of a regular dodecahedron: cyclic permutations of
    (0, +-PHI, +-1)."""
    raw = []
    for sy in (1, -1):
        for sz in (1, -1):
            raw.extend(_cyclic((0.0, sy * PHI, sz * 1.0)))
    return np.array([unit(v) for v in raw])


def icosahedron_herisson(face_area=5.0) -> Herisson:
    return validate_herisson(icosahedron_directions(),
                             np.full(20, float(face_area)))


def dodecahedron_herisson(face_area=3.0) -> Herisson:
    return validate_herisson(dodecahedron_directions(),
                             np.full(12, float(face_area)))


def grunbaum_herisson() -> Herisson:
    """Octahedron-with-a-cap input: three tilted directions and seven cube
    diagonals.  The tilted weight 5/sqrt(6) balances the missing diagonal."""
    tilted = np.array([unit(v) for v in ((1, 1, 0), (0, 1, 1), (1, 0, 1))])
    diag = np.array([unit((sx, sy, sz))
                     for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
                     if (sx, sy, sz) != (1, 1, 1)])
    dirs = np.vstack([tilted, diag])
    areas = np.concatenate([np.full(3, 5.0 / np.sqrt(6.0)), np.full(7, 5.0)])
    return validate_herisson(dirs, areas)


def elongated_herisson(r, seed=0) -> Herisson:
    """The face data of the hull of 60 standard Gaussian points (seeded)
    scaled by (r, 1, r^-1/2): a needle-like body with faces of very
    different sizes, hard for the solve when r is large."""
    pts = np.random.default_rng(seed).standard_normal((60, 3))
    return herisson_of_mesh(convex_hull(pts * (r, 1.0, r ** -0.5)))


def near_duplicate_herisson(eps) -> Herisson:
    """The icosahedron's face data plus a normal eps rad from face 0's,
    turned towards face 1's; face 0's area 5 is split 4.95 / 0.05 between
    the two (the closure defect of order eps is projected away)."""
    dirs = icosahedron_directions()
    n0 = dirs[0]
    w = unit(dirs[1] - (dirs[1] @ n0) * n0)
    extra = np.cos(eps) * n0 + np.sin(eps) * w
    areas = np.concatenate([[4.95], np.full(19, 5.0), [0.05]])
    return validate_herisson(np.vstack([dirs, extra]), areas)


def icosphere_mesh(depth: int, radius=1.0) -> MeshPolyhedron:
    """Geodesic sphere: icosahedron subdivided `depth` times, vertices
    projected onto the sphere of the given radius."""
    verts = [unit(v) for v in
             [p for s1 in (1, -1) for s2 in (1, -1)
              for p in _cyclic((0.0, s1 * 1.0, s2 * PHI))]]
    verts = np.array(verts)
    tris = convex_hull(verts).cycles[2].reshape(-1, 3).tolist()
    cache = {}
    vlist = [tuple(v) for v in verts]

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in cache:
            m = unit(np.asarray(vlist[a]) + np.asarray(vlist[b]))
            cache[key] = len(vlist)
            vlist.append(tuple(m))
        return cache[key]

    for _ in range(depth):
        new = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        tris = new
    return convex_hull(np.asarray(vlist) * radius)

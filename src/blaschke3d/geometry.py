"""Exact-enough 3-D convex geometry.

Bounded convex polyhedra appear in two forms: a half-space representation
(`SupportPolyhedron`: outward unit directions plus support numbers) and an
explicit boundary complex (`MeshPolyhedron`: vertices, face cycles, areas,
edge lengths).  Each conversion is one Qhull hull (Barber, Dobkin &
Huhdanpaa 1996).  `convex_hull` merges coplanar hull triangles into faces.
`intersect_halfspaces` hulls the polar points of the planes: each facet is
a vertex of the body, lying on the three planes that span it.  One record,
`_Cut`, holds what that hull gives: the bare edge list of the body
(`EdgeList`: face pairs and lengths, from adjacent facets), its slack, its
exact face areas (`_face_areas`), the hull and the corners.  The solver's
Newton loop, its oracle and the face complex (`_hull_mesh`) all read that
one record.  Tolerances are relative to the body scale (bounding-box
diagonal); inputs are assumed desk-scale, no exact predicates.
"""
from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull as _Qhull
from scipy.spatial import QhullError, cKDTree
from scipy.spatial.distance import pdist

from .errors import DegenerateBody, DuplicateDirection, UnboundedRegion

# Two directions within this angle (radians; equal to chord length at this
# magnitude) count as one direction.
DIRECTION_TOL = 1e-9
# Vertices closer than this, times the body scale, are one vertex.
MERGE_TOL = 1e-9
# The polar hull is centred on the origin or else on the least-squares point
# of the planes, whichever first has its smallest slack above this fraction
# of the median slack; failing both, on the Chebyshev centre (a linear
# program).  A small slack puts a polar point far out and costs precision.
_CENTRE_SLACK = 0.05


def unit(v):
    """Normalized copy of a nonzero vector."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return v / n


def _cross(a, b):
    """Row-wise cross product of (n, 3) arrays; NumPy's cross has heavy
    call overhead for the small arrays used here."""
    return np.stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                     a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                     a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]], axis=1)


def as_unit_rows(directions):
    """Validate an (k, 3) array of unit rows (norm 1 within 1e-12)."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError(f"expected an (k, 3) direction array, got {d.shape}")
    norms = np.linalg.norm(d, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError("directions must be unit vectors (within 1e-12)")
    return d


def match_directions(a, b):
    """Per row of `a`, the nearest row of `b` within DIRECTION_TOL, or -1."""
    gap, hit = cKDTree(b).query(a)
    return np.where(gap <= DIRECTION_TOL, hit, -1)


def check_distinct_directions(directions, tol=DIRECTION_TOL):
    """Raise DuplicateDirection if two rows are closer than `tol` radians."""
    d = np.asarray(directions, float)
    i, j = cKDTree(d).query_pairs(tol, output_type="ndarray").T
    gap = np.linalg.norm(d[i] - d[j], axis=1)
    if np.any(gap < tol):
        n = int(np.argmin(gap))
        raise DuplicateDirection(
            f"directions {i[n]} and {j[n]} coincide within {tol} rad")


def check_positive_spanning(directions):
    """Raise UnboundedRegion unless the origin is strictly inside the convex
    hull of the direction endpoints (equivalently, the directions positively
    span 3-space and every half-space intersection with these normals is
    bounded)."""
    d = np.asarray(directions, float)
    try:
        hull = _Qhull(d)
    except QhullError as exc:
        raise UnboundedRegion(
            "directions do not positively span 3-space") from exc
    # hull equations: n.x + b <= 0 inside; strict interior needs b < 0
    if np.any(hull.equations[:, 3] > -1e-10):
        raise UnboundedRegion(
            "origin is not strictly inside the hull of the directions")


@dataclass(frozen=True)
class SupportPolyhedron:
    """Half-space representation: the body is the set of points x with
    x . directions[j] <= support_numbers[j] for all j."""

    directions: np.ndarray
    support_numbers: np.ndarray

    def __post_init__(self):
        d = as_unit_rows(self.directions)
        h = np.asarray(self.support_numbers, dtype=float).ravel()
        if d.shape[0] < 4:
            raise ValueError("need at least 4 directions")
        if len(h) != d.shape[0]:
            raise ValueError("one support number per direction required")
        check_distinct_directions(d)
        check_positive_spanning(d)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "support_numbers", h)

    @property
    def k(self):
        return self.directions.shape[0]

    def _with_support_numbers(self, h):
        """The body with these directions, already checked, and support
        numbers h."""
        moved = copy.copy(self)
        object.__setattr__(moved, "support_numbers",
                           np.asarray(h, dtype=float).ravel())
        return moved


@dataclass(frozen=True)
class MeshPolyhedron:
    """Boundary complex of a bounded convex polyhedron.

    `faces[j]` is a cycle of vertex indices, counterclockwise as seen from
    outside along `face_normals[j]`; it is empty when plane j does not touch
    the body in a 2-dimensional face, in which case `face_areas[j]` is 0, so
    index j stays aligned with the generating direction list.  `edge_lengths`
    maps unordered face-index pairs to the shared edge length (positive
    entries only).
    """

    vertices: np.ndarray
    faces: list
    face_normals: np.ndarray
    face_areas: np.ndarray
    edge_lengths: dict

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           np.atleast_2d(np.asarray(self.vertices, float)))
        object.__setattr__(self, "face_normals",
                           np.atleast_2d(np.asarray(self.face_normals, float)))
        object.__setattr__(self, "face_areas",
                           np.asarray(self.face_areas, float).ravel())

    @property
    def face_count(self):
        """Number of faces with positive area."""
        return int(np.count_nonzero(self.face_areas > 0.0))

    @property
    def scale(self):
        """Bounding-box diagonal; the reference length for tolerances."""
        return float(np.linalg.norm(self.vertices.max(axis=0)
                                    - self.vertices.min(axis=0)))

    @property
    def centroid(self):
        return self.vertices.mean(axis=0)

    def diameter(self):
        """Exact diameter (max pairwise vertex distance)."""
        if len(self.vertices) < 2:
            return 0.0
        return float(pdist(self.vertices).max())

    def adjacency(self):
        """Face-adjacency graph as a frozenset of index pairs."""
        return frozenset(self.edge_lengths.keys())

    def face_support_numbers(self):
        """Per-face plane offsets n_j . x for x on face j (NaN if absent)."""
        count, face, vid = _incidences(self.faces)
        dots = (self.vertices[vid] * self.face_normals[face]).sum(axis=1)
        with np.errstate(invalid="ignore"):
            return np.bincount(face, dots, len(count)) / count

    def translate(self, t):
        t = np.asarray(t, float)
        return dataclasses.replace(self, vertices=self.vertices + t)


def _incidences(faces):
    """The face cycles as flat arrays: the length of every cycle, and the
    face and the vertex at every cycle position, in cycle order."""
    count = np.fromiter(map(len, faces), np.intp, len(faces))
    face = np.repeat(np.arange(len(count)), count)
    vid = np.fromiter(chain.from_iterable(faces), np.intp, len(face))
    return count, face, vid


def _row_blocks(rows, cols):
    """Slices covering `rows` rows of `cols` values each, a block of rows
    holding about 2^17 values (1 MB of floats) whatever the sizes."""
    block = max(1, (1 << 17) // max(cols, 1))
    return [slice(s, s + block) for s in range(0, rows, block)]


def _group_sums(group, values, n):
    """Sums of the rows of an (m, 3) array over n labelled groups."""
    return np.stack([np.bincount(group, values[:, a], n)
                     for a in range(3)], axis=1)


def _assemble_faces(verts, face, vertex, normals):
    """Build face cycles from (face, vertex) incidence pairs.

    Face f has the distinct vertices paired with f, in a cycle running
    counterclockwise about `normals[f]`; with fewer than 3 (a plane that
    touches the body at most in an edge) the cycle is empty.  Returns the
    cycles and the shared-edge lengths keyed by face pairs.
    """
    m, nf = len(verts), len(normals)
    face, vid = np.divmod(np.unique(face * m + vertex), m)
    count = np.bincount(face, minlength=nf)
    count[count < 3] = 0
    keep = count[face] > 0
    face, vid = face[keep], vid[keep]
    rel = verts[vid]
    rel -= (_group_sums(face, rel, nf) / np.maximum(count, 1)[:, None])[face]

    # angle about each face's centroid in a basis right-handed with normal
    seed = np.zeros((nf, 3))
    seed[np.arange(nf), np.argmin(np.abs(normals), axis=1)] = 1.0
    b1 = _cross(normals, seed)
    b1 /= np.linalg.norm(b1, axis=1)[:, None]
    b2 = _cross(normals, b1)
    angle = np.arctan2((rel * b2[face]).sum(axis=1),
                       (rel * b1[face]).sum(axis=1))
    order = np.lexsort((angle, face))
    face, vid = face[order], vid[order]

    # successor along each cycle; the last position wraps to the first
    end = np.cumsum(count)
    live = count > 0
    nxt = np.arange(1, len(vid) + 1)
    nxt[end[live] - 1] = (end - count)[live]

    ids = vid.tolist()
    cycles = [ids[e - c:e] for e, c in zip(end.tolist(), count.tolist())]

    # a convex surface has each vertex pair of an edge in exactly two cycles
    a, b = vid, vid[nxt]
    key = np.minimum(a, b) * m + np.maximum(a, b)
    srt = np.argsort(key, kind="stable")
    pair = np.flatnonzero(key[srt[1:]] == key[srt[:-1]])
    p, q = srt[pair], srt[pair + 1]
    lo, hi = np.minimum(face[p], face[q]), np.maximum(face[p], face[q])
    length = np.linalg.norm(verts[a[p]] - verts[b[p]], axis=1)
    edges = dict(zip(zip(lo.tolist(), hi.tolist()), length.tolist()))
    return cycles, edges


def _solid_scale(pts):
    """Bounding-box diagonal of points that must span 3-space."""
    if len(pts) < 4:
        raise DegenerateBody("need at least 4 points")
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if scale == 0.0 or sv[2] <= 1e-9 * sv[0]:
        raise DegenerateBody("points lie within 1e-9*scale of a plane")
    return scale


def _merge_close(points, tol):
    """Clusters of points chained by gaps of at most `tol`: their means and
    the cluster label of every point."""
    label = np.arange(len(points))
    i, j = cKDTree(points).query_pairs(tol, output_type="ndarray").T
    while not np.array_equal(label[i], label[j]):
        low = np.minimum(label[i], label[j])
        np.minimum.at(label, i, low)
        np.minimum.at(label, j, low)
    _, label = np.unique(label, return_inverse=True)
    count = np.bincount(label)
    return _group_sums(label, points, len(count)) / count[:, None], label


def _median(x):
    """np.median of a 1-D array, bit for bit, from one partition."""
    mid = (len(x) - 1) // 2, len(x) // 2
    part = np.partition(x, mid)
    return 0.5 * (part[mid[0]] + part[mid[1]])


def _well_centred(slack):
    """The `_CENTRE_SLACK` rule."""
    median = _median(slack)
    return median > 0.0 and slack.min() > _CENTRE_SLACK * median


def _interior_point(D, h):
    """A point strictly inside {x : D x <= h} and its slack h - D x.

    The origin (slack h) if it passes the `_CENTRE_SLACK` rule, else the
    least-squares point of the planes (3x3 normal equations; the directions
    span 3-space) if it does, else the centre of the largest inscribed ball
    (a linear program, posed about the least-squares point in units of its
    largest slack so that tolerances are relative to the body).
    """
    if _well_centred(h):
        return np.zeros(3), h
    c = np.linalg.solve(D.T @ D, D.T @ h)
    slack = h - D @ c
    if _well_centred(slack):
        return c, slack
    unit_len = float(np.abs(slack).max())
    if unit_len == 0.0:
        raise DegenerateBody("intersection has empty interior")
    from scipy.optimize import linprog
    res = linprog(c=[0.0, 0.0, 0.0, -1.0],
                  A_ub=np.hstack([D, np.ones((len(D), 1))]),
                  b_ub=slack / unit_len, bounds=[(None, None)] * 4,
                  method="highs")
    if res.status != 0:
        raise DegenerateBody(f"interior-point LP failed: {res.message}")
    c = c + unit_len * res.x[:3]
    slack = h - D @ c
    if slack.min() <= MERGE_TOL * unit_len:
        raise DegenerateBody("empty half-space intersection"
                             if res.x[3] < 0 else
                             "intersection has empty interior")
    return c, slack


class EdgeList(NamedTuple):
    """The edges of a body as arrays: edge e joins faces i[e] < j[e], whose
    normals make an angle of sine sin[e] and cosine cos[e], and has length
    lengths[e]; `face_normals` has a row per face slot, present or not."""

    face_normals: np.ndarray
    i: np.ndarray
    j: np.ndarray
    lengths: np.ndarray
    sin: np.ndarray
    cos: np.ndarray


def _edge_list(normals, i, j, lengths):
    """The `EdgeList` of the edges i-j of these lengths."""
    ni, nj = normals[i], normals[j]
    sin = np.linalg.norm(_cross(ni, nj), axis=1)
    return EdgeList(normals, i, j, lengths, sin, (ni * nj).sum(axis=1))


class _Cut(NamedTuple):
    """A body read off the polar hull of its half-spaces (`_polar_hull`):
    its edge list, its slack h - D c (its support numbers about the centre
    c), its face areas 1/2 J slack (`_face_areas`), the hull, the body's
    corners about c, one per facet, and c."""

    edges: EdgeList
    slack: np.ndarray
    areas: np.ndarray
    polar: object
    corners: np.ndarray
    c: np.ndarray

    def scaled(self, lam):
        """The body scaled by lam about c: edge lengths, slack and corners
        times lam, areas times lam^2; the hull's combinatorics are the
        same."""
        return self._replace(
            edges=self.edges._replace(lengths=lam * self.edges.lengths),
            slack=lam * self.slack, areas=lam ** 2 * self.areas,
            corners=lam * self.corners)


def _polar_hull(directions, offsets):
    """The `_Cut` of the half-spaces, about `_interior_point`'s c.

    The planes n_j . x = h_j become the polar points n_j / (h_j - n_j . c);
    each facet a . y + b = 0 of their convex hull is the polar of the corner
    -a / b (about c) of the body, which lies on the three planes spanning
    the facet.  Faces a and b meet between the corners of the facets
    sharing the polar edge {a, b}; the edge list keeps those of positive
    length, and the face areas come from it exactly.
    """
    D = np.asarray(directions, float)
    h = np.asarray(offsets, float)
    if not np.all(np.isfinite(h)):
        raise DegenerateBody("non-finite support numbers")
    c, slack = _interior_point(D, h)
    try:
        polar = _Qhull(D / slack[:, None])
    except QhullError as exc:
        raise DegenerateBody("degenerate half-space intersection") from exc
    corners = -polar.equations[:, :3] / polar.equations[:, 3:]
    f, m = np.nonzero(polar.neighbors > np.arange(len(corners))[:, None])
    g = polar.neighbors[f, m]
    a, b = polar.simplices[f, (m + 1) % 3], polar.simplices[f, (m + 2) % 3]
    lengths = np.linalg.norm(corners[f] - corners[g], axis=1)
    keep = lengths > 0.0
    i, j = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    edges = _edge_list(D, i, j, lengths[keep])
    return _Cut(edges, slack, _face_areas(edges, slack), polar, corners, c)


def _face_areas(edges, slack):
    """Face areas 1/2 J slack of the body with edge list `edges` and support
    numbers `slack` about any point c, J the area Jacobian: each edge adds
    l d / 2 to face i, d = (s_j - cos s_i) / sin its distance from c's foot."""
    _, i, j, lengths, sin, cos = edges
    w, si, sj, k = 0.5 * lengths / sin, slack[i], slack[j], len(slack)
    return (np.bincount(i, w * (sj - cos * si), k)
            + np.bincount(j, w * (si - cos * sj), k))


def _hull_mesh(cut, shift=0.0):
    """The boundary complex of a `_Cut`'s body, its corners moved by
    `shift` (c puts the body back in place; 0 leaves it about c): corner
    copies from coplanar polar points are merged into one vertex, and the
    three planes of each facet are the faces through its vertex.  The face
    areas are the cut's, except that a plane left with fewer than three
    distinct vertices has no face and area 0."""
    D = cut.edges.face_normals
    corners = cut.corners + shift
    verts, label = _merge_close(corners, MERGE_TOL * _solid_scale(corners))
    faces, edge_lengths = _assemble_faces(
        verts, cut.polar.simplices.ravel(), np.repeat(label, 3), D)
    areas = np.where(list(map(bool, faces)), cut.areas, 0.0)
    return MeshPolyhedron(vertices=verts, faces=faces, face_normals=D.copy(),
                          face_areas=areas, edge_lengths=edge_lengths)


def _intersect_arrays(directions, offsets):
    """Core half-space intersection on raw arrays, whose directions must
    positively span 3-space (as `SupportPolyhedron` checks): the
    `_hull_mesh` of `_polar_hull`, moved back by c."""
    cut = _polar_hull(directions, offsets)
    return _hull_mesh(cut, cut.c)


def intersect_halfspaces(p: SupportPolyhedron) -> MeshPolyhedron:
    """Boundary complex of the intersection of the half-spaces of `p`.

    Planes that do not touch the body keep their index slot with area 0 and
    an empty cycle, so face j always corresponds to direction j.
    """
    return _intersect_arrays(p.directions, p.support_numbers)


def convex_hull(points) -> MeshPolyhedron:
    """Convex hull with coplanar facets merged into geometric faces."""
    pts = np.atleast_2d(np.asarray(points, float))
    scale = _solid_scale(pts)
    try:
        hull = _Qhull(pts)
    except QhullError as exc:
        raise DegenerateBody("degenerate point set") from exc
    verts, eqs = pts[hull.vertices], hull.equations
    index = np.empty(len(pts), dtype=np.intp)
    index[hull.vertices] = np.arange(len(hull.vertices))
    tris = index[hull.simplices]
    # triangles whose plane equations agree within tolerance, chained along
    # the lexsorted equations, form one face
    order = np.lexsort(eqs.T[::-1])
    tolvec = np.array([1e-9, 1e-9, 1e-9, 1e-9 * max(1.0, scale)])
    step = np.concatenate(
        ([True], (np.abs(np.diff(eqs[order], axis=0)) > tolvec).any(axis=1)))
    group = np.empty(len(eqs), dtype=np.intp)
    group[order] = np.cumsum(step) - 1
    faces, edge_lengths = _assemble_faces(
        verts, np.repeat(group, 3), tris.ravel(), eqs[order[step], :3])
    # area vectors: each cycle fanned about its first vertex, whose offset
    # is zero, so the products across cycle ends add nothing
    count, face, vid = _incidences(faces)
    rel = verts[vid] - verts[vid[np.repeat(np.cumsum(count) - count, count)]]
    area_vecs = 0.5 * _group_sums(face[:-1], _cross(rel[:-1], rel[1:]),
                                  len(faces))
    areas = np.linalg.norm(area_vecs, axis=1)
    return MeshPolyhedron(vertices=verts, faces=faces,
                          face_normals=area_vecs / areas[:, None],
                          face_areas=areas, edge_lengths=edge_lengths)


def volume(p: MeshPolyhedron) -> float:
    """Volume as one third of the sum of face areas times their signed plane
    distance from an interior reference point (the vertex centroid); the
    choice of reference point does not matter."""
    h = p.face_support_numbers()
    live = ~np.isnan(h)
    dist = h[live] - p.face_normals[live] @ p.centroid
    return float(p.face_areas[live] @ dist) / 3.0


def _support_values(vertices, normals):
    """Max of n . v over the vertices for each row n; rows go in blocks so
    the product matrix stays near 1 MB for any mesh size."""
    out = np.empty(len(normals))
    for rows in _row_blocks(len(normals), len(vertices)):
        out[rows] = (vertices @ normals[rows].T).max(axis=0)
    return out


def support_value(p: MeshPolyhedron, d) -> float:
    """Support function of the body at direction d: max of d . v over
    the vertices."""
    return float((p.vertices @ np.asarray(d, float)).max())


def vector_area_residual(p: MeshPolyhedron):
    """Sum of area-weighted outward normals; zero for a closed surface."""
    return (p.face_areas[:, None] * p.face_normals).sum(axis=0)


def _edge_arrays(p):
    """The `EdgeList` of a mesh, or `p` itself if it is one."""
    if isinstance(p, EdgeList):
        return p
    n = len(p.edge_lengths)
    i, j = np.fromiter(chain.from_iterable(p.edge_lengths), np.intp,
                       2 * n).reshape(n, 2).T
    return _edge_list(p.face_normals, i, j,
                      np.fromiter(p.edge_lengths.values(), float, n))


def integral_mean_curvature(p: MeshPolyhedron) -> float:
    """Half the sum over edges of edge length times exterior dihedral angle
    (which for adjacent outward normals is just the angle between them)."""
    _, _, _, lengths, sin, cos = _edge_arrays(p)
    return 0.5 * float(lengths @ np.arctan2(sin, cos))


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of a translate-inside query.

    `margin` is the largest uniform slack s with inner + t + (s ball
    support shift) still inside; nonnegative (up to tolerance) iff some
    translate fits.  On failure `certificate` holds Farkas weights: a convex
    combination of outer face constraints with zero normal sum whose total
    slack is negative, proving infeasibility.
    """

    contained: bool
    translation: np.ndarray | None
    margin: float
    certificate: dict | None = None

    def __bool__(self):
        return self.contained


def contains_by_translation(outer: MeshPolyhedron,
                            inner: MeshPolyhedron) -> ContainmentResult:
    """Decide whether some translate of `inner` fits inside `outer`.

    Maximizes the slack s subject to n_i . t + s <= h_i - h_inner(n_i) over
    the facet directions of `outer`; a translate exists iff the optimum is
    >= -1e-9 * scale.
    """
    live = np.where(outer.face_areas > 0)[0]
    normals = outer.face_normals[live]
    h_outer = outer.face_support_numbers()[live]
    rhs = h_outer - _support_values(inner.vertices, normals)
    a_ub = np.hstack([normals, np.ones((len(live), 1))])
    from scipy.optimize import linprog
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=a_ub, b_ub=rhs,
                  bounds=[(None, None)] * 4, method="highs")
    if res.status != 0:
        raise RuntimeError(f"containment LP failed: {res.message}")
    t, s = res.x[:3], float(res.x[3])
    ok = s >= -1e-9 * outer.scale
    cert = None
    if not ok:
        weights = -np.asarray(res.ineqlin.marginals, float)
        cert = {"directions": normals, "weights": weights, "deficit": s}
    return ContainmentResult(contained=ok,
                             translation=t if ok else None,
                             margin=s, certificate=cert)


def validate_mesh(mesh: MeshPolyhedron) -> MeshPolyhedron:
    """Check the boundary-complex invariants; raise ValueError on violation.

    Verifies convex support (no vertex beyond any face plane), the Euler
    characteristic, closure of the vector area, and that positive edge
    lengths appear exactly for adjacent positive faces.
    """
    tol = 1e-9 * mesh.scale
    h = mesh.face_support_numbers()
    live = np.flatnonzero(~np.isnan(h))
    gap = _support_values(mesh.vertices, mesh.face_normals[live]) - h[live]
    if np.any(gap > tol):
        j = live[int(np.argmax(gap > tol))]
        raise ValueError(f"vertex beyond plane of face {j}")
    v = len(mesh.vertices)
    e = len(mesh.edge_lengths)
    f = mesh.face_count
    if v - e + f != 2:
        raise ValueError(f"Euler characteristic V-E+F = {v - e + f} != 2")
    resid = float(np.linalg.norm(vector_area_residual(mesh)))
    if resid > 1e-9 * mesh.face_areas.sum():
        raise ValueError("vector area of the surface does not close up")
    for (i, j), length in mesh.edge_lengths.items():
        if length <= 0:
            raise ValueError(f"non-positive edge length for faces {i},{j}")
        if not (mesh.faces[i] and mesh.faces[j]):
            raise ValueError(f"edge between absent faces {i},{j}")
    return mesh

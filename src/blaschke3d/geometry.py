"""Exact-enough 3-D convex geometry.

Bounded convex polyhedra appear in two forms: a half-space representation
(`SupportPolyhedron`: outward unit directions plus support numbers) and an
explicit boundary complex (`MeshPolyhedron`: vertices, face cycles, areas,
edge lengths).  Each conversion is one Qhull hull (Barber, Dobkin &
Huhdanpaa 1996).  `convex_hull` merges hull triangles whose planes lie
within 1e-9 into faces, by the `_merge_close` that merges corners, and a
vertex lies on at least three faces (`_assemble_faces`).
`intersect_halfspaces` hulls the polar points of the planes: each facet is
a vertex of the body, lying on the three planes that span it.  One record,
`_Cut`, holds what that hull gives: the bare edge list of the body
(`EdgeList`: face pairs and lengths, from adjacent facets), its slack, its
exact face areas (`_face_areas`), the facets' plane triples and the
corners.  The solver's Newton loop, its oracle, the checks (for the volume
and the support points of a solved body) and the face complex
(`_hull_mesh`) all read that one record.  A cut of a simple body also
seeds the next: support numbers whose corners, solved on its
triangulation, leave every edge a positive length lie in its type cone
and are read off it with no Qhull run (`_polar_hull`'s `prev`).  A mesh
is its arrays: its flat face cycles and its edges (an `EdgeList` too),
which every measurement, check and file writer reads; its face area
vectors come from one formula, `_area_vectors`, and every 2-norm of area
vectors from one, `_area_norms`, taken at a power of two.  Which faces
meet is one rule, `_adjacency` (the edges longer than 1e-9 of the
longest), which the solve's combinatorial-change count reads.
Tolerances are relative to one reference length, the bounding-box
diagonal `_extent`, a 2-norm by `_area_norms`; no exact predicates.  Both
hulls take extents from 1e-150 to 1e150 (`_HULL_EXTENTS`), and Qhull and
`_merge_close`'s k-d tree see points scaled by a power of two.  SciPy
loads `scipy.spatial` on the first hull or k-d tree, so code that builds
neither, such as the spherical check, never pays for its import.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

from .errors import (DegenerateBody, DuplicateDirection, LinearProgramFailed,
                     UnboundedRegion)

# Two directions within this angle (radians; equal to chord length at this
# magnitude) count as one direction.
DIRECTION_TOL = 1e-9
# Vertices closer than this, times the body scale, are one vertex.
MERGE_TOL = 1e-9
# The polar hull is centred on the origin if its smallest slack there is
# above this fraction of the median slack, else on the Chebyshev centre (a
# linear program).  A small slack puts a polar point far out and costs
# precision.
_CENTRE_SLACK = 0.05
# The extents a hull takes (`convex_hull`) or gives (`_polar_hull`): the
# squares of its lengths (its face areas) stay normal floats.
_HULL_EXTENTS = (1e-150, 1e150)
# Pivot cap of `_deepest_point`, whose programs take 4 to 20 pivots.
_PIVOTS = 500


def _Qhull(points):
    """Qhull's hull of the points, `scipy.spatial.ConvexHull`."""
    return scipy.spatial.ConvexHull(points)


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
    """Validate an (k, 3) array of unit rows (norm 1 within 1e-12; a row
    with a NaN fails)."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError(f"expected an (k, 3) direction array, got {d.shape}")
    norms = np.linalg.norm(d, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-12):
        raise ValueError("directions must be unit vectors (within 1e-12)")
    return d


def match_directions(a, b):
    """Per row of `a`, the nearest row of `b` within DIRECTION_TOL, or -1."""
    gap, hit = scipy.spatial.cKDTree(b).query(a)
    return np.where(gap <= DIRECTION_TOL, hit, -1)


def check_distinct_directions(directions):
    """Raise DuplicateDirection if two rows are closer than DIRECTION_TOL
    radians."""
    d = np.asarray(directions, float)
    i, j = scipy.spatial.cKDTree(d).query_pairs(
        DIRECTION_TOL, output_type="ndarray").T
    gap = np.linalg.norm(d[i] - d[j], axis=1)
    if np.any(gap < DIRECTION_TOL):
        n = int(np.argmin(gap))
        raise DuplicateDirection(f"directions {i[n]} and {j[n]} coincide "
                                 f"within {DIRECTION_TOL} rad")


@dataclass(frozen=True)
class SupportPolyhedron:
    """Half-space representation: the body is the set of points x with
    x . directions[j] <= support_numbers[j] for all j.  Construction checks
    the rows (unit, at least 4, distinct, one support number each); the cut
    (`_polar_hull`) reports an unbounded, empty or flat system."""

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
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "support_numbers", h)


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


def _adjacency(edges):
    """The face pairs of the edges longer than `MERGE_TOL` times the
    longest, the edges a mesh keeps after merging its close vertices."""
    keep = edges.lengths > MERGE_TOL * edges.lengths.max()
    return frozenset(zip(edges.i[keep].tolist(), edges.j[keep].tolist()))


@dataclass(frozen=True)
class MeshPolyhedron:
    """Boundary complex of a bounded convex polyhedron.

    `cycles` is the triple (count, face, vertex) of flat arrays: the length
    of every face cycle, and the face and the vertex at every cycle
    position.  The cycle of face j runs counterclockwise as seen from
    outside along `face_normals[j]`; it is empty when plane j does not touch
    the body in a 2-dimensional face, in which case `face_areas[j]` is 0, so
    index j stays aligned with the generating direction list.  `edges` is
    the `EdgeList` of the edges of positive length.  A mesh is immutable.
    """

    vertices: np.ndarray
    cycles: tuple
    face_normals: np.ndarray
    face_areas: np.ndarray
    edges: EdgeList

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
        """Bounding-box diagonal (`_extent`), the tolerances' length."""
        return _extent(self.vertices)

    @property
    def centroid(self):
        return self.vertices.mean(axis=0)

    def face_support_numbers(self):
        """Per-face plane offsets n_j . x for x on face j (NaN if absent)."""
        count, face, vid = self.cycles
        dots = (self.vertices[vid] * self.face_normals[face]).sum(axis=1)
        with np.errstate(invalid="ignore"):
            return np.bincount(face, dots, len(count)) / count

    def translate(self, t):
        t = np.asarray(t, float)
        return dataclasses.replace(self, vertices=self.vertices + t)


def _row_blocks(rows, cols):
    """Slices covering `rows` rows of `cols` values each, a block of rows
    holding about 2^17 values (1 MB of floats) whatever the sizes."""
    block = max(1, (1 << 17) // max(cols, 1))
    return [slice(s, s + block) for s in range(0, rows, block)]


def _area_norms(vecs, axis=None):
    """np.linalg.norm(vecs, axis=axis) taken in units of 2^e, the power of
    two just above the largest |entry|, and scaled back exactly: the plain
    norm's bits wherever its squares are normal floats, and no square
    under- or overflows at any unit of area."""
    vecs = np.asarray(vecs, float)
    e = math.frexp(float(np.abs(vecs).max(initial=0.0)))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(vecs, -e), axis=axis), e)


def _extent(pts):
    """Bounding-box diagonal by `_area_norms`: finite where the span is."""
    return float(_area_norms(pts.max(axis=0) - pts.min(axis=0)))


def _group_sums(group, values, n):
    """Sums of the rows of an (m, d) array over n labelled groups."""
    return np.stack([np.bincount(group, values[:, a], n)
                     for a in range(values.shape[1])], axis=1)


def _area_vectors(verts, cycles):
    """Vector areas of flat face cycles, each fanned about its first vertex:
    offsets of face size wherever the body is, and zero at cycle ends."""
    count, face, vid = cycles
    rel = verts[vid] - verts[vid[np.repeat(np.cumsum(count) - count, count)]]
    return 0.5 * _group_sums(face[:-1], _cross(rel[:-1], rel[1:]), len(count))


def _assemble_faces(points, face, point, normals):
    """Build face cycles from (face, point) incidence pairs: a point on 3
    distinct faces or more is a vertex (on fewer it lies inside a face or
    an edge), and face f has the distinct vertices paired with f, in a
    cycle running counterclockwise about `normals[f]`; with fewer than 3 (a
    plane that touches the body at most in an edge) the cycle is empty.
    Returns the vertices, in point order, the flat cycles (a mesh's
    `cycles`) and the edges: the face pairs i < j and the edge lengths."""
    m, nf = len(points), len(normals)
    # the distinct pairs, sorted by face and then point
    key = np.sort(face.astype(np.intp) * m + point)
    face, vid = np.divmod(key[np.diff(key, prepend=-1) != 0], m)
    on = np.bincount(vid, minlength=m) >= 3
    count = np.bincount(face[on[vid]], minlength=nf)
    count[count < 3] = 0
    keep = on[vid] & (count[face] > 0)
    face, vid = face[keep], (np.cumsum(on) - 1)[vid[keep]]
    verts = points[on]
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
    # order each face's run by the rank of its angle among all angles; the
    # distinct vertices of a convex face have distinct angles, so no tie is
    # left for a stable sort to break
    n = len(vid)
    by_angle = np.argsort(angle)
    rank = np.empty(n, dtype=np.intp)
    rank[by_angle] = np.arange(n)
    base = face * n
    vid = vid[by_angle[np.sort(base + rank) - base]]

    # successor along each cycle; the last position wraps to the first
    end = np.cumsum(count)
    live = count > 0
    nxt = np.arange(1, n + 1)
    nxt[end[live] - 1] = (end - count)[live]

    # a convex surface has each vertex pair of an edge in exactly two
    # cycles, and the two give the same face pair and length in either order
    a, b = vid, vid[nxt]
    key = np.minimum(a, b) * m + np.maximum(a, b)
    srt = np.argsort(key)
    pair = np.flatnonzero(key[srt[1:]] == key[srt[:-1]])
    p, q = srt[pair], srt[pair + 1]
    lo, hi = np.minimum(face[p], face[q]), np.maximum(face[p], face[q])
    length = _area_norms(verts[a[p]] - verts[b[p]], axis=1)
    return verts, (count, face, vid), (lo, hi, length)


def _merge_close(points, tol):
    """Clusters of points chained by gaps of at most `tol`: their means and
    the cluster label of every point.  The k-d tree holds the points times
    2^-e, the power of two that brings the largest |coordinate| into
    [1/2, 1), and is queried at tol 2^-e, so no squared gap overflows and
    the labels do not depend on the unit of length."""
    label = np.arange(len(points))
    e = math.frexp(float(np.abs(points).max(initial=0.0)))[1]
    # midpoint splits build fast
    tree = scipy.spatial.cKDTree(np.ldexp(points, -e), balanced_tree=False)
    i, j = tree.query_pairs(math.ldexp(tol, -e), output_type="ndarray").T
    while not np.array_equal(label[i], label[j]):
        low = np.minimum(label[i], label[j])
        np.minimum.at(label, i, low)
        np.minimum.at(label, j, low)
    # every label is now its cluster's least index: number them in order
    label = (np.cumsum(label == np.arange(len(label))) - 1)[label]
    count = np.bincount(label)
    return _group_sums(label, points, len(count)) / count[:, None], label


def _median(x):
    """np.median of a 1-D array, bit for bit, from one partition."""
    mid = (len(x) - 1) // 2, len(x) // 2
    part = np.partition(x, mid)
    return 0.5 * (part[mid[0]] + part[mid[1]])


def _deepest_point(normals, offsets):
    """The linear program max s subject to normals . t + s <= offsets: the
    point t deepest inside the half-spaces and its depth s, or their largest
    uniform deficit.  Returns x = (t, s) and the weights y of the rows:
    y >= 0, sum y = 1, y @ normals = 0 and y @ offsets = s, the Farkas
    certificate when s < 0.

    A dual simplex on four tight rows.  It starts from the artificial
    bounds x_k <= M = 1e6 max|offsets|, of which only s <= M has weight.
    Each pivot enters the most violated row and, by a ratio test over the
    four basic weights, drops the first whose weight reaches zero, so y @
    offsets falls to s.  The start's three bounds on t have no weight, so
    the first three steps may have zero length; after a fourth in a row the
    violated row of least index enters, and a tie always drops the least
    index (Bland's rule), so the pivots cannot cycle.  It stops when no slack
    is below -1e-12 max|offsets|.  Raises UnboundedRegion if a bound
    x_k <= M is still tight there (the normals do not positively span
    3-space) and LinearProgramFailed after `_PIVOTS` pivots.
    """
    m = len(normals)
    rows = np.vstack([np.column_stack([normals, np.ones(m)]), np.eye(4)])
    scale = float(np.abs(offsets).max()) or 1.0
    rhs = np.concatenate([offsets, np.full(4, 1e6 * scale)])
    basis = np.arange(m, m + 4)
    stalled = 0
    for _ in range(_PIVOTS):
        inv = np.linalg.inv(rows[basis])
        x, y = inv @ rhs[basis], inv[3]
        y = np.where(y > 1e-12, y, 0.0)  # a weight of rounding size is 0
        slack = offsets - rows[:m] @ x
        slack[basis[basis < m]] = 0.0  # tight, whatever the rounding
        short = np.flatnonzero(slack < -1e-12 * scale)
        if len(short) == 0:
            if basis.max() >= m:
                raise UnboundedRegion(
                    "normals do not positively span 3-space")
            weights = np.zeros(m)
            weights[basis] = y
            return x, weights
        enter = short[0] if stalled > 3 else short[np.argmin(slack[short])]
        lam = rows[enter] @ inv
        ratio = np.full(4, np.inf)
        up = lam > 1e-12
        ratio[up] = y[up] / lam[up]
        tied = np.flatnonzero(ratio == ratio.min())
        basis[tied[np.argmin(basis[tied])]] = enter
        stalled = stalled + 1 if ratio.min() == 0.0 else 0
    raise LinearProgramFailed(f"no optimum after {_PIVOTS} pivots")


def _interior_point(D, h):
    """A point strictly inside {x : D x <= h} and its slack h - D x.

    The origin (slack h) if it passes the `_CENTRE_SLACK` rule, else the
    centre of the largest inscribed ball: a linear program, posed about the
    least-squares point of the planes (3x3 normal equations) in units of its
    largest slack, so that a body far from the origin keeps its precision
    and tolerances are relative to the body.  UnboundedRegion if the normal
    equations are singular (directions in a plane) or the LP is unbounded.
    """
    median = _median(h)
    if median > 0.0 and h.min() > _CENTRE_SLACK * median:
        return np.zeros(3), h
    try:
        c = np.linalg.solve(D.T @ D, D.T @ h)
    except np.linalg.LinAlgError:
        raise UnboundedRegion("directions lie in a plane") from None
    slack = h - D @ c
    unit_len = float(np.abs(slack).max())
    if unit_len == 0.0:
        raise DegenerateBody("intersection has empty interior")
    try:
        x = _deepest_point(D, slack / unit_len)[0]
    except LinearProgramFailed as exc:
        raise DegenerateBody(f"interior-point LP failed: {exc}") from exc
    c = c + unit_len * x[:3]
    slack = h - D @ c
    if slack.min() <= MERGE_TOL * unit_len:
        raise DegenerateBody("empty half-space intersection"
                             if x[3] < 0 else
                             "intersection has empty interior")
    return c, slack


class _Cut(NamedTuple):
    """A body read off the polar hull of its half-spaces (`_polar_hull`):
    its edge list, its slack h - D c (its support numbers about the centre
    c), its face areas 1/2 J slack (`_face_areas`), the plane triples of
    the hull's facets, the body's corners about c, one per facet, and c.
    Its volume is Minkowski's 1/3 sum F_j s_j, and its corners are points
    whose hull is the body, so the volume and the support values of a
    solved body need no mesh.

    `warm` is None unless the body is simple (every polar edge has positive
    length) and every plane is a face.  Then its type cone (McMullen 1973),
    the support numbers with the same combinatorics, is the open cone where
    every edge of this triangulation keeps a positive length, and `warm`
    holds what reads a body of that cone off it (`_polar_hull`'s `prev`):
    the inverses of D[simplices], the facets f, g at the two ends of each
    edge and the unit edge directions from f to g.  `hulled` is False for
    a cut read off another's triangulation, True for one that ran Qhull."""

    edges: EdgeList
    slack: np.ndarray
    areas: np.ndarray
    simplices: np.ndarray
    corners: np.ndarray
    c: np.ndarray
    warm: tuple | None
    hulled: bool

    @property
    def volume(self):
        return _volume(self.areas, self.slack)

    def scaled(self, lam):
        """The body scaled by lam about c: edge lengths, slack and corners
        times lam, areas times lam^2; the hull's combinatorics are the
        same."""
        return self._replace(
            edges=self.edges._replace(lengths=lam * self.edges.lengths),
            slack=lam * self.slack, areas=lam ** 2 * self.areas,
            corners=lam * self.corners)


def _polar_hull(directions, offsets, prev=None):
    """The `_Cut` of the half-spaces, about `_interior_point`'s c.

    With `prev`, a cut of the same directions whose `warm` is set, and c
    the origin (the centre a solver's state carries), each corner solves
    its facet's three planes of `prev`'s triangulation, and each edge gets
    a signed length along `prev`'s unit edge direction.  If every signed
    length is positive, the support numbers lie in `prev`'s type cone (the
    wall-crossing criterion), so that triangulation is the body's and the
    cut keeps it, with `prev`'s edge pairs and their angles; otherwise
    Qhull runs as below.

    The planes n_j . x = h_j become the polar points n_j / (h_j - n_j . c);
    each facet a . y + b = 0 of their convex hull is the polar of the corner
    -a / b (about c) of the body, which lies on the three planes spanning
    the facet.  Faces a and b meet between the corners of the facets
    sharing the polar edge {a, b}; the edge list keeps those of positive
    length, and the face areas come from it exactly.  With positive slack
    the body is bounded exactly when the origin is strictly inside the hull:
    UnboundedRegion if Qhull finds the polar points flat or a facet has
    -a . n_j = b s_j > -1e-10 at a vertex j (at unit slack, b itself).
    Qhull sees the polar points times the power of two that brings the
    largest, 1 / min slack, into (1, 2], and the corners and edge lengths
    are taken at its unit and scaled back exactly, so no coordinate is
    squared near the float limit.  DegenerateBody refuses a body whose
    corners reach outside `_HULL_EXTENTS`, as `convex_hull` does.
    """
    D = np.asarray(directions, float)
    h = np.asarray(offsets, float)
    if not np.all(np.isfinite(h)):
        raise DegenerateBody("non-finite support numbers")
    c, slack = _interior_point(D, h)
    if prev is not None and prev.warm is not None and not c.any():
        inverses, f, g, units = prev.warm
        corners = (inverses @ slack[prev.simplices][:, :, None])[:, :, 0]
        lengths = ((corners[g] - corners[f]) * units).sum(axis=1)
        if lengths.min() > 0.0:
            edges = prev.edges._replace(lengths=lengths)
            return _Cut(edges, slack, _face_areas(edges, slack),
                        prev.simplices, corners, c, prev.warm, False)
    e = math.frexp(slack.min())[1]
    unit_slack = np.ldexp(slack, -e)
    try:
        polar = _Qhull(D / unit_slack[:, None])
    except scipy.spatial.QhullError as exc:
        raise UnboundedRegion(
            "directions do not positively span 3-space") from exc
    simplices = polar.simplices
    if np.any(polar.equations[:, 3] * unit_slack[simplices[:, 0]] > -1e-10):
        raise UnboundedRegion(
            "origin is not strictly inside the hull of the directions")
    corners = -polar.equations[:, :3] / polar.equations[:, 3:]
    with np.errstate(over="ignore"):
        size = np.ldexp(np.abs(corners).max(), e)
    if not _HULL_EXTENTS[0] <= size <= _HULL_EXTENTS[1]:
        raise DegenerateBody(f"body extent {size:.3g} is outside "
                             f"{_HULL_EXTENTS[0]:g} to {_HULL_EXTENTS[1]:g}")
    f, m = np.nonzero(polar.neighbors > np.arange(len(corners))[:, None])
    g = polar.neighbors[f, m]
    a, b = simplices[f, (m + 1) % 3], simplices[f, (m + 2) % 3]
    run = corners[g] - corners[f]
    lengths = np.linalg.norm(run, axis=1)
    keep = lengths > 0.0
    i, j = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    edges = _edge_list(D, i, j, np.ldexp(lengths[keep], e))
    warm = None
    if keep.all() and len(polar.vertices) == len(D):
        warm = (np.linalg.inv(D[simplices]), f, g, run / lengths[:, None])
    return _Cut(edges, slack, _face_areas(edges, slack), simplices,
                np.ldexp(corners, e), c, warm, True)


def _face_areas(edges, slack):
    """Face areas 1/2 J slack of the body with edge list `edges` and support
    numbers `slack` about any point c, J the area Jacobian: each edge adds
    l d / 2 to face i, d = (s_j - cos s_i) / sin its distance from c's foot."""
    _, i, j, lengths, sin, cos = edges
    w, si, sj, k = 0.5 * lengths / sin, slack[i], slack[j], len(slack)
    return (np.bincount(i, w * (sj - cos * si), k)
            + np.bincount(j, w * (si - cos * sj), k))


def _hull_mesh(cut):
    """The boundary complex of a `_Cut`'s body, about its centre c: corner
    copies from coplanar polar points are merged into one vertex, and the
    three planes of each facet are the faces through its vertex.  The face
    areas are the cut's, except that a plane left with fewer than three
    distinct vertices has no face and area 0."""
    D = cut.edges.face_normals.copy()
    points, label = _merge_close(cut.corners,
                                 MERGE_TOL * _extent(cut.corners))
    verts, cycles, edges = _assemble_faces(
        points, cut.simplices.ravel(), np.repeat(label, 3), D)
    areas = np.where(cycles[0] > 0, cut.areas, 0.0)
    return MeshPolyhedron(vertices=verts, cycles=cycles, face_normals=D,
                          face_areas=areas, edges=_edge_list(D, *edges))


def intersect_halfspaces(p: SupportPolyhedron) -> MeshPolyhedron:
    """Boundary complex of the intersection of the half-spaces of `p`: the
    `_hull_mesh` of their `_polar_hull`, moved back from its centre (the
    origin, or the Chebyshev centre when the origin is too near a plane).
    Planes that do not touch the body keep their index slot with area 0 and
    an empty cycle, so face j always corresponds to direction j.  Raises
    UnboundedRegion if the directions do not positively span 3-space, and
    DegenerateBody if the intersection is empty or flat."""
    cut = _polar_hull(p.directions, p.support_numbers)
    return _hull_mesh(cut).translate(cut.c)


def convex_hull(points) -> MeshPolyhedron:
    """Convex hull with coplanar facets merged into geometric faces: hull
    triangles whose plane rows chain by gaps of at most 1e-9 are one face,
    numbered in lexsorted row order.  A plane left with fewer than 3 vertices
    touches the body in an edge: its slot stays empty and keeps its normal.
    Qhull sees the points times the power of two 2^-e that brings their
    scale into [1/2, 1), and its plane rows are merged at that unit, so the
    hull does not depend on the unit of length, from an extent of 1e-150 to
    one of 1e150 (`_HULL_EXTENTS`).  DegenerateBody names points that are
    not finite, fewer than 4, overflowing, outside those extents or flat."""
    pts = np.atleast_2d(np.asarray(points, float))
    if not np.all(np.isfinite(pts)):
        raise DegenerateBody("non-finite point coordinates")
    if len(pts) < 4:
        raise DegenerateBody("need at least 4 points")
    with np.errstate(over="ignore"):
        span = pts.max(axis=0) - pts.min(axis=0)
        scale = _extent(pts)
        centre = pts.mean(axis=0)
    if not (np.isfinite(scale) and np.all(np.isfinite(centre))):
        raise DegenerateBody("point coordinates overflow the float range")
    if not _HULL_EXTENTS[0] <= span.max() <= _HULL_EXTENTS[1]:
        raise DegenerateBody(f"point extent {span.max():.3g} is outside "
                             f"{_HULL_EXTENTS[0]:g} to {_HULL_EXTENTS[1]:g}")
    sv = np.linalg.svd(pts - centre, compute_uv=False)
    if sv[2] <= 1e-9 * sv[0]:
        raise DegenerateBody("points lie within 1e-9*scale of a plane")
    e = math.frexp(scale)[1]
    try:
        hull = _Qhull(np.ldexp(pts, -e))
    except scipy.spatial.QhullError as exc:
        raise DegenerateBody("degenerate point set") from exc
    order = np.lexsort(hull.equations.T[::-1])
    planes, label = _merge_close(hull.equations[order], 1e-9)
    verts, cycles, edges = _assemble_faces(
        pts, np.repeat(label, 3), hull.simplices[order].ravel(), planes[:, :3])
    area_vecs = _area_vectors(verts, cycles)
    areas = _area_norms(area_vecs, axis=1)
    normals = planes[:, :3].copy()
    np.divide(area_vecs, areas[:, None], out=normals, where=areas[:, None] > 0)
    return MeshPolyhedron(vertices=verts, cycles=cycles,
                          face_normals=normals, face_areas=areas,
                          edges=_edge_list(normals, *edges))


def volume(p: MeshPolyhedron) -> float:
    """Volume as one third of the sum of face areas times their signed plane
    distance from an interior reference point (the vertex centroid); the
    choice of reference point does not matter."""
    h = p.face_support_numbers()
    live = ~np.isnan(h)
    dist = h[live] - p.face_normals[live] @ p.centroid
    return _volume(p.face_areas[live], dist)


def _volume(areas, heights, base=0.0, per=3.0):
    """base + areas . heights / per: Minkowski's volume (per 3, heights
    about an interior point) or mixed terms (per 1); DegenerateBody if an
    overflow or underflow leaves it outside the normal floats."""
    with np.errstate(over="ignore", under="ignore"):
        v = base + float(areas @ heights) / per
    if not np.finfo(float).tiny <= v < np.inf:
        raise DegenerateBody(f"volume {v:.3g} is outside the float range")
    return v


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


def integral_mean_curvature(p: MeshPolyhedron) -> float:
    """Half the sum over edges of edge length times exterior dihedral angle
    (which for adjacent outward normals is just the angle between them)."""
    _, _, _, lengths, sin, cos = p.edges
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

    Maximizes the slack s subject to n_i . t' + s <= h_i - h_inner(n_i) over
    the facet directions of `outer`; a translate exists iff the optimum is
    >= -1e-9 * scale.  Outer's offsets h_i are taken about outer's vertex
    centroid and inner's support numbers about inner's, as in
    `validate_mesh`, so the verdict does not depend on where the bodies sit.
    `translation` is in the caller's frame: t' plus the centroids' gap.
    """
    live = np.where(outer.face_areas > 0)[0]
    normals = outer.face_normals[live]
    h_outer = outer.translate(-outer.centroid).face_support_numbers()[live]
    h_inner = _support_values(inner.vertices - inner.centroid, normals)
    x, weights = _deepest_point(normals, h_outer - h_inner)
    t = x[:3] + (outer.centroid - inner.centroid)
    s = float(x[3])
    ok = s >= -1e-9 * outer.scale
    cert = None
    if not ok:
        cert = {"directions": normals, "weights": weights, "deficit": s}
    return ContainmentResult(contained=ok,
                             translation=t if ok else None,
                             margin=s, certificate=cert)


def validate_mesh(mesh: MeshPolyhedron) -> MeshPolyhedron:
    """Check the boundary-complex invariants; raise ValueError on violation.

    Verifies convex support (no vertex beyond any face plane, measured
    about the vertex centroid so that the check does not depend on where
    the body sits), the Euler characteristic, closure of the vector area,
    and that positive edge lengths appear exactly for adjacent positive
    faces.  Returns `mesh`.
    """
    tol = 1e-9 * mesh.scale
    about = mesh.translate(-mesh.centroid)
    h = about.face_support_numbers()
    live = np.flatnonzero(~np.isnan(h))
    gap = _support_values(about.vertices, about.face_normals[live]) - h[live]
    if np.any(gap > tol):
        j = live[int(np.argmax(gap > tol))]
        raise ValueError(f"vertex beyond plane of face {j}")
    v = len(mesh.vertices)
    e = len(mesh.edges.i)
    f = mesh.face_count
    if v - e + f != 2:
        raise ValueError(f"Euler characteristic V-E+F = {v - e + f} != 2")
    resid = float(_area_norms(vector_area_residual(mesh)))
    if resid > (1e-9 * mesh.face_areas).sum():
        raise ValueError("vector area of the surface does not close up")
    _, i, j, lengths, _, _ = mesh.edges
    count = mesh.cycles[0]
    bad = (lengths <= 0) | (count[i] == 0) | (count[j] == 0)
    for n in np.flatnonzero(bad)[:1]:  # the first bad edge, if any
        if lengths[n] <= 0:
            raise ValueError(
                f"non-positive edge length for faces {i[n]},{j[n]}")
        raise ValueError(f"edge between absent faces {i[n]},{j[n]}")
    return mesh

"""Shared test utilities: independent oracles and random-body generators."""
from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import scipy.optimize
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import cdist

from blaschke3d import fileio, geometry
from blaschke3d.errors import DegenerateBody, ToolkitError
from blaschke3d.geometry import DIRECTION_TOL, MERGE_TOL, MeshPolyhedron, \
    SupportPolyhedron, _cross, _edge_list, _group_sums, intersect_halfspaces
from blaschke3d.herisson import _MIN_SEPARATION, random_herisson


def mesh_of(vertices, faces, normals, areas, edge_lengths) -> MeshPolyhedron:
    """A mesh given by its face cycles as lists of vertex indices and its
    edge lengths keyed by face pairs (i, j), i < j."""
    normals = np.atleast_2d(np.asarray(normals, float))
    count = np.array([len(c) for c in faces], dtype=np.intp)
    cycles = (count, np.repeat(np.arange(len(faces)), count),
              np.array([v for c in faces for v in c], dtype=np.intp))
    i, j = np.array(list(edge_lengths), dtype=np.intp).reshape(-1, 2).T
    lengths = np.array(list(edge_lengths.values()), dtype=float)
    return MeshPolyhedron(vertices, cycles, normals, areas,
                          _edge_list(normals, i, j, lengths))


def cycle_arrays(mesh: MeshPolyhedron):
    """The face cycles of `mesh.cycles`, one index array per face slot
    (empty for a face without area)."""
    count, _, vid = mesh.cycles
    return np.split(vid, np.cumsum(count)[:-1])


def edge_dict(edges):
    """The lengths of an `EdgeList` keyed by face pairs (i, j), in order."""
    return dict(zip(zip(edges.i.tolist(), edges.j.tolist()),
                    edges.lengths.tolist()))


def export_off_reference(mesh: MeshPolyhedron) -> str:
    """`export_off` written from face lists, one list per face: the
    reference that the array writer matches byte for byte."""
    cycles = [c.tolist() for c in cycle_arrays(mesh) if len(c)]
    n_edges = sum(len(c) for c in cycles) // 2
    lines = ["OFF", f"{len(mesh.vertices)} {len(cycles)} {n_edges}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{float(x):.17g}" for x in v))
    for c in cycles:
        lines.append(" ".join([str(len(c))] + [str(i) for i in c]))
    return "\n".join(lines) + "\n"


def divergence_volume(mesh: MeshPolyhedron) -> float:
    """Independent volume oracle: fan-triangulate every face and sum
    (centroid . normal) * area / 3 over the triangles."""
    total = 0.0
    for cyc in cycle_arrays(mesh):
        if not len(cyc):
            continue
        ring = mesh.vertices[cyc]
        a = ring[0]
        for b, c in zip(ring[1:-1], ring[2:]):
            area_vec = 0.5 * np.cross(b - a, c - a)
            centroid = (a + b + c) / 3.0
            total += float(centroid @ area_vec) / 3.0
    return total


def intersect(directions, offsets) -> MeshPolyhedron:
    """`intersect_halfspaces` of the half-spaces x . directions[j] <=
    offsets[j], through a validated `SupportPolyhedron`."""
    return intersect_halfspaces(SupportPolyhedron(directions, offsets))


def positively_spanning_reference(directions) -> bool:
    """Whether the origin lies strictly inside the convex hull of the
    direction endpoints, every facet offset below -1e-10 (the rule of
    `SupportPolyhedron` before the cut decided boundedness): then every
    half-space intersection with these normals is bounded."""
    try:
        hull = ConvexHull(np.asarray(directions, float))
    except QhullError:
        return False
    return bool(np.all(hull.equations[:, 3] <= -1e-10))


def merge_close_reference(points, tol):
    """Cluster labels of the points chained by gaps of at most `tol`, found
    among all pairs by a k-d tree (the rule that `geometry._merge`, over
    the hull's sides, replaced) and numbered in order of least index.  The
    tree holds the points times 2^-e, the power of two that brings the
    largest |coordinate| into [1/2, 1), so no squared gap overflows."""
    label = np.arange(len(points))
    e = math.frexp(float(np.abs(points).max(initial=0.0)))[1]
    tree = cKDTree(np.ldexp(points, -e))
    i, j = tree.query_pairs(math.ldexp(tol, -e), output_type="ndarray").T
    while not np.array_equal(label[i], label[j]):
        low = np.minimum(label[i], label[j])
        np.minimum.at(label, i, low)
        np.minimum.at(label, j, low)
    return (np.cumsum(label == np.arange(len(label))) - 1)[label]


def support_values_reference(points, normals):
    """`geometry._support_values` in one product, without row blocks."""
    return (points @ normals.T).max(axis=0)


def draw_directions_reference(rng, k):
    """`herisson._draw_directions` as a list loop: the array of every kept
    direction rebuilt for each draw and the builtin `min` over it."""
    dirs = []
    tries = 0
    while len(dirs) < k:
        if tries > 400:
            return None
        tries += 1
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue
        v = v / n
        if dirs and min(np.linalg.norm(np.array(dirs) - v, axis=1)) \
                < _MIN_SEPARATION:
            continue
        dirs.append(v)
    return np.array(dirs)


def random_tangent_mesh(k: int, seed: int, jitter=0.0):
    """Mesh of a random polyhedron circumscribing the unit sphere, with all
    k faces present; optional support-number jitter keeps faces alive by
    retrying seeds."""
    s = seed
    for _ in range(50):
        h = random_herisson(k, s)
        rng = np.random.default_rng(s + 77)
        offsets = np.ones(k) + jitter * rng.uniform(-1.0, 1.0, k)
        mesh = intersect_halfspaces(SupportPolyhedron(h.directions, offsets))
        if mesh.face_count == k and mesh.face_areas.min() \
                > 0.02 * mesh.face_areas.max():
            return mesh
        s += 1000
    raise AssertionError(f"no healthy tangent mesh for k={k}, seed={seed}")


def vertex_sets_match(a: MeshPolyhedron, b: MeshPolyhedron, tol) -> bool:
    """Same vertex sets within tol under optimal pairing by nearest point."""
    if len(a.vertices) != len(b.vertices):
        return False
    d = cdist(a.vertices, b.vertices)
    return float(d.min(axis=0).max()) <= tol and \
        float(d.min(axis=1).max()) <= tol


def centered(mesh: MeshPolyhedron) -> MeshPolyhedron:
    return mesh.translate(-mesh.centroid)


def diameter(mesh: MeshPolyhedron) -> float:
    """Exact diameter: the largest distance between two vertices."""
    return float(cdist(mesh.vertices, mesh.vertices).max())


# -- reference half-space intersection by triple-plane enumeration ----------

# Determinant floor for a usable triple plane intersection.
_DET_TOL = 1e-12


def _sorted_cycle(vertices, idx, normal):
    """Order the on-plane vertex indices counterclockwise around `normal`
    and return (cycle, signed polygon area by the shoelace rule)."""
    pts = vertices[idx]
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(normal)))] = 1.0
    b1 = np.cross(normal, seed)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(normal, b1)
    rel = pts - pts.mean(axis=0)
    u, v = rel @ b1, rel @ b2
    order = np.argsort(np.arctan2(v, u), kind="stable")
    u, v = u[order], v[order]
    area = 0.5 * float(u @ np.roll(v, -1) - v @ np.roll(u, -1))
    return [int(i) for i in idx[order]], area


def _dedup_points(points, tol):
    """Cluster points within `tol` (connected components of the proximity
    graph, grown breadth-first) and return (component means, label per
    point)."""
    m = len(points)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    t2 = tol * tol
    labels = np.full(m, -1, dtype=int)
    n = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        members = d2[i] <= t2
        while True:
            grown = members | (d2[:, members].min(axis=1) <= t2)
            if (grown == members).all():
                break
            members = grown
        labels[members] = n
        n += 1
    sums = np.zeros((n, 3))
    np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=n).astype(float)
    return sums / counts[:, None], labels


def enumerate_intersection(directions, offsets) -> MeshPolyhedron:
    """Reference half-space intersection, independent of Qhull, in O(k^4).

    For every pair of non-parallel planes, all triple intersections with the
    remaining planes are computed by Cramer's rule; the ones lying on the
    body are kept, and the two extreme survivors along the pair's line are
    that pair's shared-edge endpoints.  Vertices are the deduplicated
    endpoint set; face cycles come from on-plane classification, and faces
    below a noise area of 4 * MERGE_TOL * scale^2 count as absent.
    """
    D = np.asarray(directions, float)
    h = np.asarray(offsets, float)
    k = len(D)

    ii, jj = np.triu_indices(k, 1)
    w = np.cross(D[ii], D[jj])
    wn = np.linalg.norm(w, axis=1)
    keep = wn > DIRECTION_TOL
    ii, jj, w, wn = ii[keep], jj[keep], w[keep], wn[keep]
    npair = len(ii)

    # x(p, q) solves [n_i; n_j; n_q] x = [h_i; h_j; h_q] by Cramer's rule
    cjq = np.cross(D[jj][:, None, :], D[None, :, :])
    cqi = np.cross(D[None, :, :], D[ii][:, None, :])
    det = w @ D.T
    num = (h[ii][:, None, None] * cjq + h[jj][:, None, None] * cqi
           + h[None, :, None] * w[:, None, :])
    solvable = np.abs(det) > _DET_TOL
    X = np.zeros_like(num)
    np.divide(num, det[:, :, None], out=X, where=solvable[:, :, None])
    marg = (np.einsum("pqc,rc->pqr", X, D) - h).max(axis=2)

    # provisional pass to learn the body scale, then the final tolerance
    coarse = solvable & (marg <= 1e-7 * max(1.0, float(np.abs(h).max())))
    if not coarse.any():
        raise DegenerateBody("empty half-space intersection")
    pts = X[coarse]
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    tol = MERGE_TOL * scale
    feas = solvable & (marg <= tol)

    # extreme feasible points along each pair's line
    t = np.einsum("pqc,pc->pq", X, w / wn[:, None])
    lo_idx = np.argmin(np.where(feas, t, np.inf), axis=1)
    hi_idx = np.argmax(np.where(feas, t, -np.inf), axis=1)
    hit = np.where(feas.any(axis=1))[0]
    cand = np.concatenate([X[hit, lo_idx[hit]], X[hit, hi_idx[hit]]])
    verts, labels = _dedup_points(cand, tol)
    lo_lab, hi_lab = labels[:len(hit)], labels[len(hit):]

    plane_gap = np.abs(verts @ D.T - h[None, :])
    faces = []
    areas = np.zeros(k)
    for j in range(k):
        idx = np.where(plane_gap[:, j] <= 3.0 * tol)[0]
        cyc, area = _sorted_cycle(verts, idx, D[j]) if len(idx) >= 3 \
            else ([], 0.0)
        if area <= 4.0 * tol * scale:
            faces.append([])
        else:
            faces.append(cyc)
            areas[j] = area

    edge_lengths = {}
    for pos, p in enumerate(hit):
        a, b = lo_lab[pos], hi_lab[pos]
        fi, fj = int(ii[p]), int(jj[p])
        if a == b or not (faces[fi] and faces[fj]):
            continue
        length = float(np.linalg.norm(verts[a] - verts[b]))
        if length > tol:
            edge_lengths[(fi, fj)] = length

    return mesh_of(verts, faces, D.copy(), areas, edge_lengths)


def count_deepest_point(monkeypatch):
    """A list that gains one entry per `geometry._deepest_point` call."""
    calls = []
    real = geometry._deepest_point

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(geometry, "_deepest_point", counted)
    return calls


def deepest_point_checked(normals, offsets, tol):
    """`geometry._deepest_point` checked against SciPy's HiGHS (with
    presolve; nonzero offsets): the same depth s within `tol`, a point t
    that reaches it, and weights that certify it (y >= 0, sum y = 1,
    y @ normals = 0, y @ offsets = s).  Returns (t, s), the weights and
    SciPy's result."""
    got, weights = geometry._deepest_point(normals, offsets)
    # HiGHS's feasibility tolerances are absolute: pose its program in
    # units of the largest offset, and scale its solution back
    unit = np.abs(offsets).max()
    want = scipy.optimize.linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([normals, np.ones((len(normals), 1))]),
        b_ub=offsets / unit, bounds=[(None, None)] * 4, method="highs")
    assert want.status == 0
    want.x = unit * want.x
    s = got[3]
    assert abs(s - want.x[3]) <= tol
    assert abs((offsets - normals @ got[:3]).min() - s) <= tol
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12
    assert np.abs(weights @ normals).max() <= 1e-12
    assert abs(weights @ offsets - s) <= tol
    return got, weights, want


def assemble_faces_reference(points, face, point, normals):
    """`geometry._assemble_faces` as first written, with `np.unique`, a
    lexsort of (angle, face) and a stable argsort of the edge keys: the
    reference that the integer-key sorts match array for array.  A point
    on fewer than 3 distinct faces is no vertex, counted with `np.unique`."""
    m, nf = len(points), len(normals)
    face, vid = np.divmod(np.unique(face * m + point), m)
    ids, faces_on = np.unique(vid, return_counts=True)
    vertex_ids = ids[faces_on >= 3]
    on = np.isin(vid, vertex_ids)
    count = np.bincount(face[on], minlength=nf)
    count[count < 3] = 0
    keep = on & (count[face] > 0)
    face, vid = face[keep], np.searchsorted(vertex_ids, vid[keep])
    verts = points[vertex_ids]
    m = len(verts)
    rel = verts[vid]
    rel -= (_group_sums(face, rel, nf) / np.maximum(count, 1)[:, None])[face]
    seed = np.zeros((nf, 3))
    seed[np.arange(nf), np.argmin(np.abs(normals), axis=1)] = 1.0
    b1 = _cross(normals, seed)
    b1 /= np.linalg.norm(b1, axis=1)[:, None]
    b2 = _cross(normals, b1)
    angle = np.arctan2((rel * b2[face]).sum(axis=1),
                       (rel * b1[face]).sum(axis=1))
    order = np.lexsort((angle, face))
    face, vid = face[order], vid[order]
    end = np.cumsum(count)
    live = count > 0
    nxt = np.arange(1, len(vid) + 1)
    nxt[end[live] - 1] = (end - count)[live]
    a, b = vid, vid[nxt]
    key = np.minimum(a, b) * m + np.maximum(a, b)
    srt = np.argsort(key, kind="stable")
    pair = np.flatnonzero(key[srt[1:]] == key[srt[:-1]])
    p, q = srt[pair], srt[pair + 1]
    lo, hi = np.minimum(face[p], face[q]), np.maximum(face[p], face[q])
    length = np.linalg.norm(verts[a[p]] - verts[b[p]], axis=1)
    return verts, (count, face, vid), (lo, hi, length)


@contextmanager
def assembly_checked():
    """Within the block every `geometry._assemble_faces` call is checked
    against `assemble_faces_reference` on the same arguments: the same
    vertices, cycles and edge arrays, values and dtypes.  Yields a list
    that gains one entry per call."""
    calls = []
    real = geometry._assemble_faces

    def checked(points, face, point, normals):
        got = real(points, face, point, normals)
        want = assemble_faces_reference(points, face, point, normals)
        for g, w in zip((got[0],) + got[1] + got[2],
                        (want[0],) + want[1] + want[2]):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        calls.append(1)
        return got
    geometry._assemble_faces = checked
    try:
        yield calls
    finally:
        geometry._assemble_faces = real


def import_both(text):
    """`fileio.import_off(text)` twice: as it runs, and with its certified
    path (`fileio._fan_mesh`) giving no verdict, so that the hull decides.
    Both must give the same verdict and message; an accepted file must give
    the same vertices, the same face cycles (each from any start) and face
    areas within 1e-14 relative.  Returns the first run's mesh (or raises
    its error) and whether the certified path built it."""
    real, built = fileio._fan_mesh, []

    def recorded(verts, cycles):
        mesh = real(verts, cycles)
        built.append(mesh is not None)
        return mesh

    outcomes = []
    for fan in (recorded, lambda verts, cycles: None):
        fileio._fan_mesh = fan
        try:
            outcomes.append(fileio.import_off(text))
        except (ToolkitError, ValueError) as exc:
            outcomes.append(exc)
        finally:
            fileio._fan_mesh = real
    fast, hull = outcomes
    if isinstance(fast, Exception) or isinstance(hull, Exception):
        assert (type(fast), str(fast)) == (type(hull), str(hull))
        raise fast
    np.testing.assert_array_equal(fast.vertices, hull.vertices)
    faces = [face_cycles(mesh) for mesh in (fast, hull)]
    assert faces[0].keys() == faces[1].keys()
    for cycle, j in faces[0].items():
        k = faces[1][cycle]
        assert abs(fast.face_areas[j] - hull.face_areas[k]) \
            <= 1e-14 * hull.face_areas[k]
    return fast, bool(built and built[0])


def face_cycles(mesh):
    """The face index of every face cycle, keyed by the cycle read from its
    least vertex."""
    out = {}
    for j, cycle in enumerate(cycle_arrays(mesh)):
        if len(cycle):
            k = int(np.argmin(cycle))
            out[tuple(np.roll(cycle, -k).tolist())] = j
    return out


def double_octahedron():
    """Two octahedra on the same poles, one turned by 45 degrees about
    their axis, as one surface: it closes, V - E + F = 2, every face is
    planar and every edge convex, and the centroid is inside every face
    plane, but it winds twice about the centroid (the pole has 8 faces)."""
    ring = np.arange(8) * np.pi / 4
    verts = np.vstack([[[0, 0, 1], [0, 0, -1]],
                       np.column_stack([np.cos(ring), np.sin(ring),
                                        np.zeros(8)])])
    faces = []
    for turn in (0, 1):
        for k in range(4):
            a, b = 2 + turn + 2 * k, 2 + turn + (2 * k + 2) % 8
            faces += [[0, a, b], [1, b, a]]
    return verts, faces

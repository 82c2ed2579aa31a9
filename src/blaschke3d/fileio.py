"""File formats: the `.her` face-data format, OFF meshes, and sphere-domain
polygon files.

A `.her` file starts with the face count k, followed by k lines of
`nx ny nz F`: an outward normal (not necessarily unit) and the face area.
Blank lines and `#` comments are allowed.  Floats are printed with 17
significant digits, so print/parse round trips are exact.  Every parser
rejects a number that is not finite (`nan`, `inf`), naming its line.

An OFF file is read as the mesh of its vertices' convex hull.  A file whose
own faces certify their convexity (`geometry._certify_convex`) becomes that
mesh with no hull: its fan triangles go through the hull's own step from
triangles to faces.  Any other file is checked face by face and hulled.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateBody, NonConvexInput, ParseError
from .geometry import (MeshPolyhedron, _area_norms, _area_vectors,
                       _certify_convex, _check_complex, _cross, _extent,
                       _group_sums, _hull_unit, _support_values,
                       _triangle_mesh, _twins, convex_hull, validate_mesh)
from .herisson import Herisson, validate_herisson
from .spherical import SphericalPolygon


def _fmt(x):
    return f"{float(x):.17g}"


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _reals(parts, lineno):
    """The numbers of one line as floats; ParseError naming the line if one
    is malformed or not finite."""
    try:
        x = np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed number") from None
    if not np.isfinite(x).all():
        raise ParseError(f"line {lineno}: number not finite")
    return x


def parse_herisson_file(text: str) -> Herisson:
    """Parse the face-data format; normals are normalized to unit length and
    the closure-repair gate of `validate_herisson` applies."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty input")
    lineno, head = lines[0]
    try:
        k = int(head)
    except ValueError:
        raise ParseError(f"line {lineno}: expected the face count, got "
                         f"{head!r}") from None
    if k < 1:
        raise ParseError(f"line {lineno}: face count must be positive")
    body = lines[1:]
    if len(body) < k:
        raise ParseError(f"header announces {k} faces but only {len(body)} "
                         "data lines follow")
    if len(body) > k:
        raise ParseError(f"header announces {k} faces but {len(body)} "
                         "data lines follow")
    dirs = np.empty((k, 3))
    areas = np.empty(k)
    for i, (lineno, line) in enumerate(body):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 'nx ny nz area', got "
                             f"{line!r}")
        row = _reals(parts, lineno)
        v = row[:3]
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ParseError(f"line {lineno}: zero normal")
        # leave already-unit normals untouched so round trips are exact
        if abs(norm - 1.0) > 1e-12:
            v = v / norm
        dirs[i], areas[i] = v, row[3]
    return validate_herisson(dirs, areas)


def format_herisson(h: Herisson) -> str:
    """Canonical printer for the face-data format."""
    lines = [str(h.k)]
    for d, f in zip(h.directions, h.areas):
        lines.append(" ".join([_fmt(d[0]), _fmt(d[1]), _fmt(d[2]), _fmt(f)]))
    return "\n".join(lines) + "\n"


def export_off(p: MeshPolyhedron) -> str:
    """Standard OFF text: vertices at 17 significant digits, face cycles
    counterclockwise from outside.  Zero-area placeholder faces are omitted."""
    count, _, vid = p.cycles
    count = count[count > 0]
    ids, ends = vid.tolist(), np.cumsum(count).tolist()
    lines = ["OFF", f"{len(p.vertices)} {len(count)} {len(vid) // 2}"]
    lines += [" ".join(_fmt(x) for x in v) for v in p.vertices]
    lines += [" ".join(map(str, (c, *ids[e - c:e])))
              for c, e in zip(count.tolist(), ends)]
    return "\n".join(lines) + "\n"


def import_off(text: str) -> MeshPolyhedron:
    """Parse OFF text (counts not negative, exactly the announced lines),
    reject non-convex input and face lists that do not close the surface,
    and return the mesh (face merge, areas, edge lengths) that `convex_hull`
    gives for the vertices.  A file whose fan triangles give that mesh with
    a certificate of convexity (`_fan_mesh`) builds no hull, and of
    `validate_mesh` takes only the checks that follow convex support
    (`_check_complex`); any other file is checked face by face, naming the
    lowest faulty face (`_check_face_planes`), then hulled, checked for
    closure and extreme points, and validated."""
    numbered = list(_content_lines(text))
    lines = [line for _, line in numbered]
    if not lines or lines[0] != "OFF":
        raise ParseError("missing OFF header")
    try:
        nv, nf, _ = (int(x) for x in lines[1].split())
    except (ValueError, IndexError):
        nv = nf = -1
    if min(nv, nf) < 0:
        raise ParseError("malformed OFF counts line")
    if len(lines) < 2 + nv + nf:
        raise ParseError("truncated OFF file")
    if len(lines) > 2 + nv + nf:
        raise ParseError(f"counts line announces {nf} faces but "
                         f"{len(lines) - 2 - nv} face lines follow")
    try:
        verts = np.array([_reals(line.split(), lineno)
                          for lineno, line in numbered[2:2 + nv]])
        count, ids = [], []
        for i in range(nf):
            parts = [int(x) for x in lines[2 + nv + i].split()]
            if len(parts) != parts[0] + 1:
                raise ParseError(f"face {i}: vertex count mismatch")
            count.append(parts[0])
            ids += parts[1:]
    except ValueError:
        raise ParseError("malformed OFF body") from None
    if nv and verts.shape[1:] != (3,):  # no vertex lines give shape (0,)
        raise ParseError("OFF vertices must be 3-D")
    count = np.array(count, dtype=np.intp)
    face = np.repeat(np.arange(nf), count)
    vid = np.array(ids)  # an index beyond int64 stays a Python int
    out = (vid < 0) | (vid >= nv)
    if out.any():
        raise ParseError(f"face {face[np.argmax(out)]} references a vertex "
                         "out of range")
    if not nv:  # as `convex_hull` says, before `_extent` meets no vertices
        raise DegenerateBody("need at least 4 points")
    cycles = (count, face, vid.astype(np.intp))
    mesh = _fan_mesh(verts, cycles)
    if mesh is not None:  # its convex support is certified
        return _check_complex(mesh)
    area = _check_face_planes(verts, cycles)
    mesh = convex_hull(verts)
    total = mesh.face_areas.sum()
    if _twins(count, cycles[2], nv) is None \
            or abs(area - total) > 1e-9 * total:
        raise NonConvexInput("faces do not close the surface")
    if len(mesh.vertices) != len(verts):
        raise NonConvexInput("some vertices are not extreme points")
    return validate_mesh(mesh)


def _fan_mesh(verts, cycles):
    """The mesh that `convex_hull` gives for the vertices of a file whose
    faces bound a convex body, built from the file's own faces with no
    hull: their fan triangles (each face fanned about its first vertex, as
    `_area_vectors` does), each with the plane of its face at the hull's
    unit, and their sides across the fans and the edges, go through the
    hull's own step, `_triangle_mesh`, and the result must pass
    `_certify_convex`.  A face's plane comes from its area vector, as a
    merged facet of the hull has one plane, so a thin fan triangle does not
    tilt it.  None wherever the hull could decide otherwise or refuse the
    file: a face the hull's checks may refuse (fewer than 3 vertices, an
    area below 1e-13 at the unit of `_check_face_planes`, a plane that may
    cut the body by 1e-8 of the extent there), a face whose fan triangles'
    own planes lie more than 1e-9 apart, an edge whose faces' planes lie
    within 1e-11 c (c as in `_certify_convex`) and their rounding of the
    1e-9 merge rule, a point that is no vertex, a total area off by 1e-9,
    or any refusal of `_hull_unit` or the certificate."""
    count, face, vid = cycles
    twins = _twins(count, vid, len(verts)) if (count >= 3).all() else None
    if twins is None:
        return None
    try:
        pts, e = _hull_unit(verts)
    except DegenerateBody:
        return None
    succ, twin = twins
    at = np.ldexp(pts, -e)
    c = max(1.0, float(np.abs(at).max()))
    # the stated faces at the unit and about the centroid of
    # `_check_face_planes`, and their planes at the hull's unit
    u = at - at.mean(axis=0)
    area = _area_vectors(u, cycles)
    nn = _area_norms(area, axis=1)
    if not nn.min() >= 1e-13:
        return None
    normal = area / nn[:, None]
    centre = _group_sums(face, at[vid], len(count)) / count[:, None]
    plane = np.column_stack([normal, -(normal * centre).sum(axis=1)])
    # triangle k of a face joins its first vertex to positions k, k + 1
    start = np.cumsum(count) - count
    local = np.arange(len(vid)) - start[face]
    mid = np.flatnonzero((local >= 1) & (local <= count[face] - 2))
    tris = np.column_stack([vid[start[face[mid]]], vid[mid], vid[mid + 1]])
    fan = _cross(at[tris[:, 1]] - at[tris[:, 0]],
                 at[tris[:, 2]] - at[tris[:, 0]])
    norm = np.linalg.norm(fan, axis=1)
    if not norm.min() > 0.0:
        return None
    fan /= norm[:, None]
    fan = np.column_stack([fan, -(fan * at[tris[:, 0]]).sum(axis=1)])
    diag = np.flatnonzero(face[mid[1:]] == face[mid[:-1]])
    if (np.linalg.norm(fan[diag] - fan[diag + 1], axis=1) > 1e-9).any():
        return None
    # a face's normal turns by rounding of about k eps c l / |A| (k its
    # vertices, l its perimeter, |A| its area), its offset by c times more
    edge = np.flatnonzero(vid < vid[succ])
    a, b = face[edge], face[twin[edge]]
    perim = np.bincount(face, np.linalg.norm(u[vid[succ]] - u[vid], axis=1),
                        len(count))
    err = 1e-15 * c * (1 + c) * count * perim / nn
    gap = np.linalg.norm(plane[a] - plane[b], axis=1)
    if (np.abs(gap - 1e-9) <= 1e-11 * c + err[a] + err[b]).any():
        return None
    # sides: between a face's consecutive fan triangles, and across edges
    first = np.cumsum(count - 2) - (count - 2)
    tri = first[face] + np.clip(local, 1, count[face] - 2) - 1
    mesh, label = _triangle_mesh(pts, tris, plane[face[mid]],
                                 np.concatenate([diag, tri[edge]]),
                                 np.concatenate([diag + 1, tri[twin[edge]]]))
    if len(mesh.vertices) != len(verts) or not _certify_convex(
            mesh.vertices, mesh.cycles, mesh.face_normals):
        return None
    # no vertex is beyond a face plane of the certified mesh by more than
    # about 1e-12, nor off it on its own face, so a stated plane tilted
    # by d from its face of the mesh is above none by more than 2 r d + that
    scale = np.frexp(_extent(verts))[0]
    tilt = np.linalg.norm(normal - mesh.face_normals[label[first]], axis=1)
    above = 2 * float(np.linalg.norm(u, axis=1).max()) * tilt + 1e-11
    total = mesh.face_areas.sum()
    with np.errstate(over="ignore"):
        if not (above <= 0.25e-8 * scale).all() or abs(
                np.ldexp(nn.sum(), 2 * e) - total) > 1e-9 * total:
            return None
    return mesh


def _check_face_planes(verts, cycles):
    """Raise unless every stated face has 3 or more vertices, an area and a
    plane supporting all the vertices, measured in units of 2^e, the power
    of two just above their extent (`_extent`), about the vertex centroid:
    each decision scales exactly, and no sum or product overflows.  The lowest
    faulty face is named, as wound clockwise if its reversed plane supports
    them.  Returns the faces' total area."""
    count, face, vid = cycles
    scale, e = np.frexp(_extent(verts))
    verts = np.ldexp(verts, -e)
    verts -= verts.mean(axis=0)
    area = _area_vectors(verts, cycles)
    nn = _area_norms(area, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN cuts nothing
        normal = area / nn[:, None]
        offset = (_group_sums(face, verts[vid], len(count)) * normal).sum(1) \
            / count
    cuts = _support_values(verts, normal) - offset > 1e-8 * scale
    short, flat = count < 3, nn < 1e-14 * scale * scale
    for i in np.flatnonzero(short | flat | cuts)[:1]:  # the lowest, if any
        if short[i]:
            raise ParseError(f"face {i} has fewer than 3 vertices")
        if flat[i]:
            raise NonConvexInput(f"face {i} is degenerate")
        if (verts @ normal[i]).min() - offset[i] >= -1e-8 * scale:
            raise NonConvexInput(
                f"face {i} is wound clockwise seen from outside")
        raise NonConvexInput(f"face {i} plane cuts through the body")
    with np.errstate(over="ignore"):
        return np.ldexp(nn.sum(), 2 * e)


def parse_polygon_file(text: str) -> SphericalPolygon:
    """One vertex per line, three reals; vectors are normalized when within
    1e-6 of unit length and rejected otherwise."""
    rows = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected three reals")
        v = _reals(parts, lineno)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ParseError(f"line {lineno}: vertex norm {norm:.8f} is not "
                             "within 1e-6 of 1")
        rows.append(v / norm)
    return SphericalPolygon(np.array(rows) if rows else np.zeros((0, 3)))

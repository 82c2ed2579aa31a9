"""File formats: the `.her` face-data format, OFF meshes, and sphere-domain
polygon files.

A `.her` file starts with the face count k, followed by k lines of
`nx ny nz F`: an outward normal (not necessarily unit) and the face area.
Blank lines and `#` comments are allowed.  Floats are printed with 17
significant digits, so print/parse round trips are exact.  Every parser
rejects a number that is not finite (`nan`, `inf`), naming its line.
"""
from __future__ import annotations

import numpy as np

from .errors import NonConvexInput, ParseError
from .geometry import (MeshPolyhedron, _area_norms, _area_vectors, _extent,
                       _group_sums, _support_values, convex_hull,
                       validate_mesh)
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
    and rebuild the mesh (face merge, areas, edge lengths) by `convex_hull`."""
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
    if verts.shape[1:] != (3,):
        raise ParseError("OFF vertices must be 3-D")
    count = np.array(count, dtype=np.intp)
    face = np.repeat(np.arange(nf), count)
    vid = np.array(ids)  # an index beyond int64 stays a Python int
    out = (vid < 0) | (vid >= nv)
    if out.any():
        raise ParseError(f"face {face[np.argmax(out)]} references a vertex "
                         "out of range")
    cycles = (count, face, vid.astype(np.intp))
    area = _check_face_planes(verts, cycles)
    mesh = convex_hull(verts)
    total = mesh.face_areas.sum()
    if not _edges_pair_up(cycles, nv) or abs(area - total) > 1e-9 * total:
        raise NonConvexInput("faces do not close the surface")
    if len(mesh.vertices) != len(verts):
        raise NonConvexInput("some vertices are not extreme points")
    return validate_mesh(mesh)


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


def _edges_pair_up(cycles, nv):
    """Whether every directed edge of the face cycles (each of 3 or more
    vertices) appears exactly once, and so does its reverse."""
    count, _, vid = cycles
    ends = np.cumsum(count)
    succ = np.arange(1, len(vid) + 1)
    succ[ends - 1] = ends - count
    key = np.sort(vid * nv + vid[succ])
    back = np.sort(vid[succ] * nv + vid)
    return bool((np.diff(key) > 0).all() and (key == back).all())


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

import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from blaschke3d import geometry
from blaschke3d.bodies import (box_mesh, cube_mesh, icosahedron_herisson,
                               icosphere_mesh)
from blaschke3d.errors import DegenerateBody, NonConvexInput, ParseError
from blaschke3d.fileio import (export_off, format_herisson, import_off,
                               parse_herisson_file, parse_polygon_file)
from blaschke3d.geometry import convex_hull, volume
from blaschke3d.herisson import (blaschke_scale, herisson_of_mesh,
                                 random_herisson)
from blaschke3d.solver import continuation_solve
from blaschke3d.sums import minkowski_sum

from helpers import cycle_arrays, double_octahedron, \
    export_off_reference, import_both, intersect, random_tangent_mesh, \
    vertex_sets_match
from test_geometry import corner_cases, summed_mesh
from test_same_outputs import SAME_OUTPUTS

DATA = Path(__file__).resolve().parent.parent / "data"
# spellings that float() reads as numbers that are not finite
NON_FINITE = ["nan", "inf", "-inf"]
# the direction along which `icosphere_mesh(2)` is moved far from the origin
FAR = np.array([1.0, -0.7, 0.3])


def off_text(verts, faces):
    """OFF text of these vertices and face cycles (lists of indices)."""
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(str(x) for x in v) for v in verts]
    lines += [" ".join(str(i) for i in [len(f), *f]) for f in faces]
    return "\n".join(lines) + "\n"


@pytest.fixture
def both_paths(monkeypatch):
    """Every `import_off` call of the test runs by the certified path and
    by the hull path, which must agree (`import_both`)."""
    monkeypatch.setattr(sys.modules[__name__], "import_off",
                        lambda text: import_both(text)[0])


def cube_faces():
    """The vertices and the face cycles of the unit cube."""
    cube = cube_mesh(1.0)
    return cube.vertices, [c.tolist() for c in cycle_arrays(cube)]


def tetrahedron_faces():
    """The vertices and the face cycles of the corner tetrahedron."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    return verts, [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]


class TestHerissonFormat:
    def test_grunbaum_file(self):
        h = parse_herisson_file((DATA / "grunbaum.her").read_text())
        assert h.k == 10
        # the three tilted normals come from integer-component input
        tilted = [np.array(v) / np.sqrt(2.0)
                  for v in ([1, 1, 0], [0, 1, 1], [1, 0, 1])]
        for t in tilted:
            assert np.linalg.norm(h.directions - t, axis=1).min() <= 1e-12
        small = np.sort(h.areas)[:3]
        assert np.allclose(small, 5.0 / np.sqrt(6.0), rtol=1e-9)

    def test_icosahedron_file(self):
        text = (DATA / "icosahedron.her").read_text()
        h = parse_herisson_file(text)
        assert h.k == 20
        assert np.allclose(h.areas, 5.0, rtol=1e-9)
        # every listed raw normal has squared norm 3
        for line in text.splitlines()[1:]:
            x, y, z, _ = (float(s) for s in line.split())
            assert x * x + y * y + z * z == pytest.approx(3.0, abs=1e-8)

    def test_count_mismatch(self):
        text = "6\n" + "\n".join("1 0 0 1" for _ in range(5))
        with pytest.raises(ParseError, match="6 faces"):
            parse_herisson_file(text)

    def test_comments_and_blank_lines(self):
        text = ("# tetrahedron face data\n4\n\n"
                "1 1 1 1\n1 -1 -1 1\n"
                "# trailing pair\n-1 1 -1 1\n\n-1 -1 1 1\n")
        h = parse_herisson_file(text)
        assert h.k == 4
        assert np.allclose(h.areas, 1.0)

    def test_bad_number(self):
        with pytest.raises(ParseError, match="line"):
            parse_herisson_file("1\n1 0 zero 1\n")

    @pytest.mark.parametrize("x", NON_FINITE)
    @pytest.mark.parametrize("column", [2, 3], ids=["normal", "area"])
    def test_non_finite_number(self, x, column):
        row = ["-1", "1", "-1", "1"]
        row[column] = x
        text = "4\n1 1 1 1\n1 -1 -1 1\n" + " ".join(row) + "\n-1 -1 1 1\n"
        with pytest.raises(ParseError, match="^line 4: number not finite$"):
            parse_herisson_file(text)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_print_parse_round_trip_exact(self, seed):
        h = random_herisson(4 + seed % 6, seed)
        again = parse_herisson_file(format_herisson(h))
        assert np.array_equal(again.directions, h.directions)
        assert np.array_equal(again.areas, h.areas)


class TestHerissonRejection:
    """Every `parse_herisson_file` rejection, with its message."""

    @staticmethod
    def rejects(message, text):
        with pytest.raises(ParseError) as err:
            parse_herisson_file(text)
        assert str(err.value) == message

    def test_empty_input(self):
        self.rejects("empty input", "# a comment\n\n")

    def test_face_count_not_an_integer(self):
        self.rejects("line 2: expected the face count, got 'four'",
                     "# tetrahedron\nfour\n1 1 1 1\n")

    def test_face_count_not_positive(self):
        self.rejects("line 1: face count must be positive", "0\n")

    def test_too_many_data_lines(self):
        self.rejects("header announces 2 faces but 3 data lines follow",
                     "2\n1 0 0 1\n0 1 0 1\n0 0 1 1\n")

    def test_data_line_without_four_fields(self):
        self.rejects("line 3: expected 'nx ny nz area', got '1 -1 -1'",
                     "4\n1 1 1 1\n1 -1 -1\n-1 1 -1 1\n-1 -1 1 1\n")

    def test_zero_normal(self):
        self.rejects("line 2: zero normal",
                     "4\n0 0 0 1\n1 -1 -1 1\n-1 1 -1 1\n-1 -1 1 1\n")


@pytest.mark.usefixtures("both_paths")
class TestOff:
    @pytest.mark.parametrize("make", [
        lambda: cube_mesh(1.0),
        lambda: intersect(*corner_cases()[0]),
        lambda: continuation_solve(parse_herisson_file(
            (DATA / "grunbaum.her").read_text()))[1],
        summed_mesh, lambda: icosphere_mesh(3)],
        ids=["cube", "untouched-plane", "grunbaum", "minkowski", "icosphere"])
    def test_writer_matches_the_list_reference(self, make):
        # the corner case's plane 3 has an empty cycle, which is omitted
        mesh = make()
        assert export_off(mesh) == export_off_reference(mesh)

    def test_cube_counts(self):
        text = export_off(cube_mesh(1.0))
        lines = text.splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "8 6 12"

    @pytest.mark.parametrize("s", [1e-150, 1e-100, 1e-80, 1e78, 1e90,
                                   1e140])
    def test_round_trip_at_an_extreme_extent(self, s):
        # the face-plane check and the closure measure area vectors at a
        # power of two, so every extent a hull takes reads back
        mesh = convex_hull(icosphere_mesh(1).vertices * s)
        again = import_off(export_off(mesh))
        assert again.face_count == 80
        assert again.face_areas.sum() == pytest.approx(
            mesh.face_areas.sum(), rel=1e-12)

    def test_solved_body_past_the_extent_of_a_hull(self):
        # a body solved at an area unit of 1e307 spans 1.2e154: the
        # face-plane check measures it at a power of two, with no overflow
        # (an error under the suite's filter), and the hull refuses it
        h = blaschke_scale(random_herisson(24, 1), 1e307)
        text = export_off(continuation_solve(h)[1])
        with pytest.raises(DegenerateBody, match="point extent .* is "
                           "outside 1e-150 to 1e[+]150"):
            import_off(text)

    def test_icosahedron_round_trip_volume(self):
        _, mesh, _ = continuation_solve(icosahedron_herisson())
        again = import_off(export_off(mesh))
        assert volume(again) == pytest.approx(volume(mesh), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_round_trip_vertices_exact(self, seed):
        mesh = random_tangent_mesh(9, seed, jitter=0.05)
        again = import_off(export_off(mesh))
        assert vertex_sets_match(mesh, again, 1e-15 * mesh.scale)
        assert herisson_of_mesh(again).k == herisson_of_mesh(mesh).k

    def test_nonconvex_star_rejected(self):
        # an octahedron whose south pole is pushed inside
        verts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                          [0, 0, 1], [0, 0, 0.2]], float)
        faces = [[4, 0, 2], [4, 2, 1], [4, 1, 3], [4, 3, 0],
                 [5, 2, 0], [5, 1, 2], [5, 3, 1], [5, 0, 3]]
        lines = ["OFF", "6 8 12"]
        lines += [" ".join(str(x) for x in v) for v in verts]
        lines += ["3 " + " ".join(str(i) for i in f) for f in faces]
        with pytest.raises(NonConvexInput, match="face 4 plane cuts"):
            import_off("\n".join(lines))

    def test_a_certified_file_builds_no_hull(self, monkeypatch):
        # the hull runs only where the certificate gives no verdict, and at
        # most once: a corner pushed out by 1e-9 of the scale splits its
        # faces, a clockwise face is refused before the hull and a point
        # inside a face after it
        import blaschke3d.fileio as fileio
        calls, real = [], geometry._Qhull

        def counted(points):
            calls.append(1)
            return real(points)
        monkeypatch.setattr(geometry, "_Qhull", counted)
        verts, faces = cube_faces()
        pushed = verts.copy()
        pushed[0] *= 1 + 1e-9
        inside = np.vstack([verts, verts[faces[0]].mean(axis=0)])
        clockwise = tetrahedron_faces()
        clockwise[1][2] = clockwise[1][2][::-1]
        for text, hulls in ((export_off(cube_mesh(1.0)), 0),
                            (off_text(pushed, faces), 1),
                            (off_text(*clockwise), 0),
                            (off_text(inside, faces), 1)):
            calls.clear()
            try:
                fileio.import_off(text)
            except NonConvexInput:
                pass
            assert len(calls) == hulls

    def test_vertex_inside_a_face_rejected(self):
        # every stated face plane supports the vertex set, but the centre of
        # a face is no extreme point
        verts, faces = cube_faces()
        verts = np.vstack([verts, verts[faces[0]].mean(axis=0)])
        with pytest.raises(NonConvexInput, match="not extreme"):
            import_off(off_text(verts, faces))

    def test_triangulated_cube_imports(self):
        # twelve triangles close the surface; the hull merges them to six
        verts, faces = cube_faces()
        halves = [t for a, b, c, d in faces for t in ([a, b, c], [a, c, d])]
        mesh = import_off(off_text(verts, halves))
        assert mesh.face_count == 6
        assert volume(mesh) == pytest.approx(1.0, rel=1e-12)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            import_off("8 6 12\n")

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_non_finite_vertex(self, x):
        lines = export_off(cube_mesh(1.0)).splitlines()
        lines[4] = f"0.5 {x} -0.5"
        with pytest.raises(ParseError, match="^line 5: number not finite$"):
            import_off("\n".join(lines))

    def test_out_of_range_face_index(self):
        text = export_off(cube_mesh(1.0)).replace("\n4 ", "\n4 9", 1)
        with pytest.raises(ParseError, match="out of range"):
            import_off(text)

    @pytest.mark.parametrize("shift", [1e4, 1e5, 1e6, 1e7, 1e8])
    def test_translated_round_trip(self, shift):
        # the result must not depend on where the body sits
        base = icosphere_mesh(2)
        mesh = base.translate(shift * FAR)
        again = import_off(export_off(mesh))
        assert again.face_count == mesh.face_count == 320
        assert vertex_sets_match(mesh, again, 0.0)
        assert volume(again) == pytest.approx(volume(base), rel=1e-6)


@pytest.mark.usefixtures("both_paths")
class TestOffRejection:
    """Every `import_off` rejection, with its message; of several faulty
    faces the lowest is named."""

    @staticmethod
    def rejects(error, message, verts, faces):
        with pytest.raises(error) as err:
            import_off(off_text(verts, faces))
        assert str(err.value) == message

    def test_vertex_count_mismatch(self):
        # face 2 (line 12) announces 5 vertices and lists 4
        lines = off_text(*cube_faces()).splitlines()
        lines[12] = "5 " + lines[12][2:]
        with pytest.raises(ParseError, match="^face 2: vertex count "
                                             "mismatch$"):
            import_off("\n".join(lines))

    @pytest.mark.parametrize("counts, body", [
        ("-1 -2 0", []), ("4 -1 6", ["0 0 0", "1 0 0", "0 1 0", "0 0 1"])],
        ids=["both", "faces"])
    def test_negative_counts(self, counts, body):
        with pytest.raises(ParseError, match="^malformed OFF counts line$"):
            import_off("\n".join(["OFF", counts, *body]) + "\n")

    @pytest.mark.parametrize("counts", ["4 4.5 6", "4 4"],
                             ids=["not-integer", "too-few"])
    def test_malformed_counts(self, counts):
        lines = off_text(*tetrahedron_faces()).splitlines()
        lines[1] = counts
        with pytest.raises(ParseError) as err:
            import_off("\n".join(lines) + "\n")
        assert str(err.value) == "malformed OFF counts line"

    def test_truncated(self):
        lines = off_text(*tetrahedron_faces()).splitlines()
        with pytest.raises(ParseError) as err:
            import_off("\n".join(lines[:-1]) + "\n")
        assert str(err.value) == "truncated OFF file"

    def test_cube_at_the_float_limit(self):
        # the face-plane check scales the vertices before it centres them,
        # so no sum overflows (a RuntimeWarning, an error under the suite's
        # filter); the hull then names the overflow of their centre
        verts, faces = cube_faces()
        self.rejects(DegenerateBody, "point coordinates overflow the float "
                     "range", verts * 1e308, faces)

    def test_face_index_not_an_integer(self):
        verts, faces = tetrahedron_faces()
        faces[3] = [1, 2, "3.0"]
        self.rejects(ParseError, "malformed OFF body", verts, faces)

    def test_vertices_not_3d(self):
        verts, faces = tetrahedron_faces()
        self.rejects(ParseError, "OFF vertices must be 3-D",
                     verts[:, :2], faces)

    @pytest.mark.parametrize("text, error, message", [
        ("OFF\n0 0 0\n", DegenerateBody, "need at least 4 points"),
        ("OFF\n0 1 0\n3 0 1 2\n", ParseError,
         "face 0 references a vertex out of range")],
        ids=["empty", "faces-only"])
    def test_no_vertex_lines(self, text, error, message):
        # no vertex lines are no 2-D vertices; an empty body is refused
        # before the face-plane check takes the extent of no vertices
        with pytest.raises(error) as err:
            import_off(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("extra", ["3 0 1 2", "hello world"])
    def test_lines_after_the_faces(self, extra):
        text = off_text(*tetrahedron_faces())
        import_off(text)
        with pytest.raises(ParseError, match="^counts line announces 4 faces "
                                             "but 5 face lines follow$"):
            import_off(text + extra + "\n")

    def test_out_of_range_index(self):
        verts, faces = cube_faces()
        faces[3][1] = -1
        faces[5][2] = 8
        self.rejects(ParseError, "face 3 references a vertex out of range",
                     verts, faces)

    def test_huge_index_is_out_of_range(self):
        verts, faces = cube_faces()
        faces[1][0] = 10 ** 30
        self.rejects(ParseError, "face 1 references a vertex out of range",
                     verts, faces)

    def test_count_mismatch_comes_before_an_index_out_of_range(self):
        # face 0 names vertex 99; face 4 (line 14) announces 3 and lists 4
        verts, faces = cube_faces()
        faces[0][0] = 99
        lines = off_text(verts, faces).splitlines()
        lines[14] = "3 " + lines[14][2:]
        with pytest.raises(ParseError, match="^face 4: vertex count "
                                             "mismatch$"):
            import_off("\n".join(lines))

    def test_fewer_than_three_vertices(self):
        verts, faces = cube_faces()
        faces[4] = faces[4][:2]
        self.rejects(ParseError, "face 4 has fewer than 3 vertices",
                     verts, faces)

    def test_degenerate_face(self):
        # three collinear vertices: two cube corners and their midpoint
        verts, faces = cube_faces()
        a, b = faces[2][:2]
        verts = np.vstack([verts, 0.5 * (verts[a] + verts[b])])
        faces[2] = [a, 8, b]
        self.rejects(NonConvexInput, "face 2 is degenerate", verts, faces)

    def test_plane_cuts_through_the_body(self):
        # a corner of face 1 pulled halfway to the centre bends that face
        verts, faces = cube_faces()
        verts = verts.copy()
        verts[faces[1][0]] *= 0.5
        self.rejects(NonConvexInput, "face 1 plane cuts through the body",
                     verts, faces)

    @pytest.mark.parametrize("reversed_faces, named", [
        ((0, 1, 2, 3), 0), ((2,), 2)])
    def test_clockwise_face(self, reversed_faces, named):
        # a tetrahedron with some faces wound clockwise seen from outside
        verts, faces = tetrahedron_faces()
        for i in reversed_faces:
            faces[i] = faces[i][::-1]
        self.rejects(NonConvexInput,
                     f"face {named} is wound clockwise seen from outside",
                     verts, faces)

    def test_open_surface(self):
        # two of the cube's six faces
        verts, faces = cube_faces()
        self.rejects(NonConvexInput, "faces do not close the surface",
                     verts, faces[:2])

    def test_face_listed_twice(self):
        verts, faces = cube_faces()
        self.rejects(NonConvexInput, "faces do not close the surface",
                     verts, faces + faces[3:4])

    def test_edges_without_their_reverse(self):
        # -z and +z (faces 2 and 3) each twice in place of -x and +x (faces
        # 0 and 5): the total and the vector area are the cube's, so only
        # the edges tell
        verts, faces = cube_faces()
        self.rejects(NonConvexInput, "faces do not close the surface",
                     verts, faces[1:5] + faces[2:4])

    def test_vertex_within_the_merge_tolerance_of_a_face(self):
        # the unit cube with its top face fanned about a point 1e-12 above
        # the centre: the point lies on one face, so it is no vertex
        verts = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1],
                          [0, 1, 0], [0, 1, 1], [1, 1, 0], [1, 1, 1],
                          [0.5, 0.5, 1 + 1e-12]])
        faces = [[5, 4, 0, 1], [5, 1, 8], [2, 3, 1, 0], [3, 8, 1],
                 [6, 2, 0, 4], [7, 5, 8], [7, 6, 4, 5], [7, 8, 3],
                 [6, 7, 3, 2]]
        self.rejects(NonConvexInput, "some vertices are not extreme points",
                     verts, faces)

    @pytest.mark.parametrize("first, second", [
        ("short", "flat"), ("flat", "short"), ("cut", "short"),
        ("short", "cut"), ("flat", "flat")])
    def test_lowest_faulty_face_is_named(self, first, second):
        verts, faces = cube_faces()
        a, b = faces[0][:2]
        verts = np.vstack([verts, 0.5 * (verts[a] + verts[b]),
                           [0.0, 0.0, 0.0]])
        faults = {"short": lambda f: f[:2], "flat": lambda f: [a, 8, b],
                  "cut": lambda f: [9, *f[1:]]}
        faces[2] = faults[first](faces[2])
        faces[4] = faults[second](faces[4])
        error, message = {
            "short": (ParseError, "face 2 has fewer than 3 vertices"),
            "flat": (NonConvexInput, "face 2 is degenerate"),
            "cut": (NonConvexInput, "face 2 plane cuts through the body"),
        }[first]
        self.rejects(error, message, verts, faces)


TURN = Rotation.from_euler("xyz", [0.3, -0.5, 0.7]).as_matrix()
LIBRARY = ["cube", "box", "icosphere-1", "icosphere-2", "icosphere-3"]
CONSTRUCTED = sorted(f"construct-{p.stem}" for p in DATA.glob("*.her"))
PUSHES = [1e-12, 1e-10, 1e-8, 1e-6]


@cache
def library_mesh(name):
    """A library mesh by name: the bodies of `LIBRARY`, each also as its
    Minkowski sum with a turned copy ("+turned"), and the solved bodies of
    `data/*.her` ("construct-<stem>")."""
    base, turned, _ = name.partition("+turned")
    if turned:
        mesh = library_mesh(base)
        return minkowski_sum(mesh, convex_hull(1.3 * mesh.vertices @ TURN.T))
    if base.startswith("construct-"):
        her = DATA / f"{base.removeprefix('construct-')}.her"
        return continuation_solve(parse_herisson_file(her.read_text()))[1]
    if base.startswith("icosphere-"):
        return icosphere_mesh(int(base[-1]))
    return cube_mesh(1.0) if base == "cube" else box_mesh((0.3, 1.0, 7.0))


def perturbed(name, how):
    """The OFF text of a library mesh with one fault: vertex 0 pushed away
    from the centroid ("out") or toward it ("in") by a share of the scale,
    face 0 flipped, or the surface listed twice, the second time over a
    copy of its vertices: a closed surface with V - E + F = 4, which the
    certificate's Euler count refuses.  (A surface that winds twice with
    V - E + F = 2 is `double_octahedron`.)"""
    mesh = library_mesh(name)
    verts, faces = mesh.vertices.copy(), [c.tolist()
                                          for c in cycle_arrays(mesh)]
    if how == "flip":
        faces[0] = faces[0][::-1]
    elif how == "twice":
        n = len(verts)
        verts = np.vstack([verts, verts])
        faces += [[i + n for i in face] for face in faces]
    else:
        share = float(how[-5:]) * (1 if how.startswith("out") else -1)
        ray = verts[0] - verts.mean(axis=0)
        verts[0] += share * mesh.scale * ray / np.linalg.norm(ray)
    return off_text(verts, [face for face in faces if face])


def bent_slab(theta, w):
    """The OFF text of a slab whose top is two faces at the dihedral angle
    theta along the edge x = 0 from (0, -0.15) to (0, 0.15), the bent one
    over x > 0 with a corner at (w, 0.15 - w / 100) next to that edge's
    end.  The bent face's cycle starts at that corner, so that its fan
    triangle over the edge has height w."""
    z = 0.15 - theta * np.array([0, w, 0.9, 0.9])
    top = np.array([[-0.9, -0.15, 0.15], [-0.9, 0.15, 0.15], [0, -0.15, z[0]],
                    [0, 0.15, z[0]], [w, 0.15 - w / 100, z[1]],
                    [0.9, -0.15, z[2]], [0.9, 0.1, z[3]]])
    base = np.array([[x, y, 0] for x in (-0.9, 0.9) for y in (-0.15, 0.15)])
    mesh = convex_hull(np.vstack([top, base]))
    faces = [c.tolist() for c in cycle_arrays(mesh) if len(c)]
    for face in faces:
        if {2, 3, 4} <= set(face):
            k = face.index(4)
            face[:] = face[k:] + face[:k]
    return off_text(mesh.vertices, faces)


class TestCertifiedImport:
    """`import_off` by its certified path against the hull path
    (`import_both`): the same verdict and message, and for an accepted
    file the same vertices, cycles and areas within 1e-14."""

    @pytest.mark.parametrize("name", [
        *LIBRARY, *(f"{n}+turned" for n in LIBRARY), *CONSTRUCTED])
    def test_library_meshes_are_certified(self, name):
        mesh, certified = import_both(export_off(library_mesh(name)))
        assert certified
        assert mesh.face_count == library_mesh(name).face_count

    @pytest.mark.parametrize("name", sorted(SAME_OUTPUTS.malformed_offs()))
    def test_malformed_file(self, name):
        with pytest.raises((NonConvexInput, DegenerateBody, ParseError)):
            import_both(SAME_OUTPUTS.malformed_offs()[name])

    @pytest.mark.parametrize("how", [
        *(f"{side}{d:.0e}" for d in PUSHES for side in ("out", "in")),
        "flip", "twice"])
    @pytest.mark.parametrize("name", ["cube", "icosphere-2", "cube+turned"])
    def test_perturbed_file(self, name, how):
        try:
            import_both(perturbed(name, how))
        except NonConvexInput:
            assert how not in ("out1e-12", "in1e-12")

    def test_a_surface_winding_twice_is_refused(self):
        verts, faces = double_octahedron()
        with pytest.raises(NonConvexInput, match="face 0 plane cuts"):
            import_both(off_text(verts, faces))

    @pytest.mark.parametrize("w", [1e-6, 1e-7])
    def test_faces_at_the_merge_rule_with_a_thin_fan_triangle(self, w):
        # the top faces' planes lie from 0.98e-9 to 1.02e-9 apart: the
        # hull merges them below 1e-9, and above it the certified path
        # builds the two faces, each from its area vector's plane
        certified = [import_both(bent_slab(r * 1e-9, w))[1]
                     for r in np.linspace(0.98, 1.02, 41)]
        assert any(certified) and not all(certified)


class TestPolygonFormat:
    def test_roundtrip(self):
        poly = parse_polygon_file("1 0 0\n0 1 0\n0 0 1\n")
        assert poly.n == 3

    def test_normalizes_near_unit(self):
        poly = parse_polygon_file("1.0000004 0 0\n0 1 0\n0 0 1\n")
        assert np.allclose(np.linalg.norm(poly.vertices, axis=1), 1.0)

    def test_rejects_far_from_unit(self):
        with pytest.raises(ParseError, match="1e-6"):
            parse_polygon_file("1.1 0 0\n0 1 0\n0 0 1\n")

    def test_rejects_a_line_without_three_reals(self):
        with pytest.raises(ParseError) as err:
            parse_polygon_file("1 0\n0 1 0\n0 0 1\n")
        assert str(err.value) == "line 1: expected three reals"

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_non_finite_vertex(self, x):
        with pytest.raises(ParseError, match="^line 2: number not finite$"):
            parse_polygon_file(f"1 0 0\n{x} 0 1\n0 0 1\n")

    def test_empty_file_is_whole_sphere(self):
        assert parse_polygon_file("# nothing\n").n == 0

"""`scripts/same_outputs.py`: its outputs match the committed reference
`tests/outputs` and keep their own bounds, and its `--compare` measures
reals and fails on anything else."""
import importlib.util
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from blaschke3d.bodies import rotated_tetrahedron_pair
from blaschke3d.fileio import import_off, parse_herisson_file
from blaschke3d.geometry import integral_mean_curvature, volume
from blaschke3d.solver import continuation_solve
from blaschke3d.sums import blaschke_sum_bodies, minkowski_sum

TESTS = Path(__file__).resolve().parent
SCRIPT = TESTS.parent / "scripts" / "same_outputs.py"
DATA = TESTS.parent / "data"
REFERENCE = TESTS / "outputs"
REPORT = {"verdict": "holds", "volume": 1.2345678901234, "faces": 6,
          "residual": 3e-16}
# a tetrahedron with a vertex 8.2e-17 off the plane y = 0, and the same
# with vertices 1 and 2 swapped and its faces in another order
OFF = ["OFF", "4 4 6", "0 0 0", "1 8.2e-17 0", "0 1 0", "0 0 1",
       "3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]
RENUMBERED = OFF[:3] + [OFF[4], OFF[3], OFF[5], "3 2 1 3", "3 0 2 3",
                        "3 0 3 1", "3 0 1 2"]
SPEC = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
SAME_OUTPUTS = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(SAME_OUTPUTS)
HER = SAME_OUTPUTS.HER


def write_tree(root, report, off):
    root.mkdir()
    (root / "in").mkdir()
    (root / "in" / "cube.her").write_text("6\n1 0 0 1\n-1 0 0 1\n")
    (root / "check.out").write_text(json.dumps(report, indent=2) + "\n")
    (root / "check.code").write_text("0\n")
    (root / "body.off").write_text("\n".join(off) + "\n")


def edited(lines, n, line):
    return lines[:n] + [line] + lines[n + 1:]


@pytest.mark.parametrize("changed, off, other, differs, worst, shown", [
    ({}, OFF, 0, [], None, ()),
    ({"volume": REPORT["volume"] * (1 + 1e-13)}, OFF, 0, ["check.out"],
     ("check.out", 1e-13), ()),
    ({"verdict": "fails"}, OFF, 1, ["check.out"], None,
     ('"holds"', '"fails"')),
    ({}, edited(OFF, 7, "3 1 3 0"), 0, ["body.off"], None, ()),
    ({}, edited(OFF, 7, "3 1 0 3"), 1, ["body.off"], None,
     ("a face of the first, as the second numbers it: (0, 1, 3)",)),
    ({}, edited(OFF, 3, "1 -3.3e-16 0"), 0, ["body.off"],
     ("body.off", 4.12e-16), ()),
    ({}, RENUMBERED, 0, ["body.off"], None, ()),
    # measured against the volume, the largest real of its file
    ({"residual": -1.1e-16}, OFF, 0, ["check.out"], ("check.out", 3.3e-16),
     ())],
    ids=["identical", "real-by-1e-13", "word", "cycle-from-another-vertex",
         "cycle-reversed", "zero-up-to-rounding", "renumbered",
         "residual-at-rounding"])
def test_compare(tmp_path, capsys, changed, off, other, differs, worst,
                 shown):
    write_tree(tmp_path / "a", REPORT, OFF)
    write_tree(tmp_path / "b", {**REPORT, **changed}, off)
    rel, count = SAME_OUTPUTS.compare(tmp_path / "a", tmp_path / "b")
    out = capsys.readouterr().out
    assert count == other, out
    assert re.findall(r"^differs: (.*)$", out, re.M) == differs
    if worst is None:
        assert rel == 0.0 and "no real differs" in out
    else:
        assert rel == pytest.approx(worst[1], rel=1e-2)
        assert f" in {worst[0]}\n" in out
    assert all(text in out for text in shown)


@pytest.mark.parametrize("changed, code", [
    ({}, 0), ({"volume": REPORT["volume"] * (1 + 1e-13)}, 0),
    ({"verdict": "fails"}, 1)], ids=["identical", "real-by-1e-13", "word"])
def test_compare_exits_one_on_a_difference_other_than_in_reals(
        tmp_path, changed, code):
    write_tree(tmp_path / "a", REPORT, OFF)
    write_tree(tmp_path / "b", {**REPORT, **changed}, OFF)
    with pytest.raises(SystemExit) as exit_:
        SAME_OUTPUTS.main(["same_outputs.py", "--compare",
                           str(tmp_path / "a"), str(tmp_path / "b")])
    assert exit_.value.code == code


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The script's tree from this checkout; any warning is an error."""
    out = tmp_path_factory.mktemp("outputs")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SAME_OUTPUTS.write_outputs(out)
    return out


def report(outputs, case):
    return json.loads((outputs / f"{case}.out").read_text())


def test_outputs_match_the_reference(outputs):
    # compare prints the largest real difference and the file it is in
    worst, other = SAME_OUTPUTS.compare(REFERENCE, outputs)
    assert other == 0 and worst <= 1e-12


# The bounds below are each case's own; they read no reference.

@pytest.mark.parametrize("name", HER)
def test_shipped_inputs_solve_to_rounding_level(outputs, name):
    trace = report(outputs, f"construct-{name}")
    runs, hulls = trace["intersections"], trace["hulls"]
    assert trace["final_residual"] <= 1e-12
    # only grunbaum.her changes its face adjacency on the way
    if name == "grunbaum":
        assert trace["combinatorial_changes"] >= 1 and runs <= 8
    else:
        assert trace["combinatorial_changes"] == 0
    # a cut that keeps the type of the last body runs no Qhull; the cube
    # and the dodecahedron are their tangent bodies up to scale
    assert hulls <= runs
    if name in ("cube", "dodecahedron"):
        assert runs <= 1 and hulls == 1
    # one Jacobian per step taken, and at most one for a last, failed step
    assert trace["jacobians"] <= trace["steps_taken"] + 1


@pytest.mark.parametrize("case, line", [
    ("construct-bad-zero-normal", "error: line 2: zero normal"),
    ("report-bad-clockwise",
     "error: face 2 is wound clockwise seen from outside"),
    ("report-bad-short-face", "error: face 4 has fewer than 3 vertices"),
    ("sphere-check-bad-flat-1", "error: line 1: expected three reals")])
def test_malformed_inputs_fail_with_one_error_line(outputs, case, line):
    assert (outputs / f"{case}.code").read_text() == "1\n"
    assert (outputs / f"{case}.err").read_text() == line + "\n"


@pytest.mark.parametrize("case, start", [
    ("construct-box-1e-200", "error: closure residual"),
    # the 1e307 body spans 1.2e154, past the extents a hull takes, and its
    # 5e306 copy does not dominate it
    ("report-construct-unit-1e307", "error: point extent"),
    ("check-monotone-unit-1e307-unit-5e306", "error: dominating herisson"),
    # volumes past either end of the float range are named
    ("check-ks-unit-1e-300-unit-1e-300", "error: volume"),
    ("check-ks-unit-1e307-unit-5e306", "error: volume"),
    ("report-ico-1e-140", "error: volume")])
def test_extreme_units_are_refused_with_one_error_line(outputs, case, start):
    err = (outputs / f"{case}.err").read_text().splitlines()
    assert (outputs / f"{case}.code").read_text() == "1\n"
    assert len(err) == 1 and err[0].startswith(start)


def test_face_data_and_meshes_at_extreme_units(outputs):
    for unit in ("1e180", "1e-200", "1e307"):
        trace = report(outputs, f"construct-unit-{unit}")
        assert trace["final_residual"] <= 1e-12, unit
    for case in ("construct-unit-1e180", "construct-unit-1e-200",
                 "ico-1e-100", "ico-1e90"):
        assert report(outputs, f"report-{case}")["euler"]["ok"], case


def test_written_bodies_read_back_as_they_were_measured(outputs):
    her = {n: parse_herisson_file((DATA / f"{n}.her").read_text())
           for n in HER}
    bodies = {f"construct-{n}": continuation_solve(h)[1]
              for n, h in her.items()}
    for a, b in (("dodecahedron", "icosahedron"), ("cube", "icosahedron")):
        bodies[f"bsum-{a}-{b}"] = blaschke_sum_bodies(her[a], her[b])
    bodies["msum-tetrahedra"] = minkowski_sum(*rotated_tetrahedron_pair(1.0))
    for case, mesh in bodies.items():
        rep = report(outputs, f"report-{case}")
        assert rep["euler"]["ok"] and rep["euler"]["faces"] == mesh.face_count
        assert rep["vector_area_residual_norm"] <= 1e-9 * rep["total_area"]
        assert rep["volume"] == pytest.approx(volume(mesh), rel=1e-9)
        assert rep["integral_mean_curvature"] == pytest.approx(
            integral_mean_curvature(mesh), rel=1e-9)


@pytest.mark.parametrize("far", ["1e7", "1e12"])
def test_a_body_far_from_the_origin_measures_as_one_at_it(outputs, far):
    # the volume takes its face heights about the vertex centroid, and
    # check bm finds equality of the body with itself
    mesh = import_off((outputs / "in" / f"far-{far}.off").read_text())
    rep = report(outputs, f"report-far-{far}")
    assert rep["euler"]["ok"]
    assert rep["volume"] == pytest.approx(
        volume(mesh.translate(-mesh.centroid)), rel=1e-12)
    assert report(outputs, f"check-bm-far-{far}")["verdict"] == "equality"


@pytest.mark.parametrize("b", ["dodecahedron", "icosahedron"])
def test_vol_p_plus_q_is_the_volume_of_the_hulled_sum(outputs, b):
    # check bm reads Vol(P+Q) from mixed volumes; the icosahedron's sum has
    # hull points off its faces' planes by rounding
    hulled = report(outputs, f"report-msum-grunbaum-{b}")["volume"]
    mixed = report(outputs, f"check-bm-grunbaum-{b}")["lhs"] ** 3
    assert mixed == pytest.approx(hulled, rel=1e-9)


@pytest.mark.parametrize("a, b", [("dodecahedron", "icosahedron"),
                                  ("grunbaum", "cube"),
                                  ("grunbaum", "icosahedron")])
def test_bsum_and_check_ks_read_one_body(outputs, a, b):
    # check ks and check sumcmp read Vol(P#Q) off the last cut of the solve
    # that bsum builds its mesh from
    summed = report(outputs, f"report-bsum-{a}-{b}")["volume"]
    checked = report(outputs, f"check-ks-{a}-{b}")["lhs"] ** 1.5
    compared = report(outputs, f"check-sumcmp-{a}-{b}")["rhs"]
    assert np.allclose([checked, compared], summed, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", HER)
def test_each_body_fits_in_itself_and_in_its_blaschke_double(outputs, name):
    # check monotone's translate-inside test: margin 0 up to rounding in
    # itself, and positive in P#P
    own = report(outputs, f"check-monotone-{name}-{name}")["diagnosis"]
    double = report(outputs, f"check-monotone-double-{name}")["diagnosis"]
    assert own["contains_by_translation"] is True
    assert abs(own["containment_margin"]) <= 1e-9
    assert double["containment_margin"] > 0

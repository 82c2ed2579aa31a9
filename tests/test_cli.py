import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blaschke3d.cli import main
from blaschke3d.fileio import import_off

DATA = Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cube_off(path, edge=1.0):
    from blaschke3d.bodies import cube_mesh
    from blaschke3d.fileio import export_off
    path.write_text(export_off(cube_mesh(edge)))


class TestConstruct:
    def test_grunbaum_with_trace(self, tmp_path, capsys):
        out = tmp_path / "g.off"
        code, stdout, _ = run(capsys, "construct", DATA / "grunbaum.her",
                              "-o", out, "--trace")
        assert code == 0
        trace = json.loads(stdout)
        assert trace["combinatorial_changes"] >= 1
        mesh = import_off(out.read_text())
        assert mesh.face_count == 10

    def test_trace_reports_solve_counters(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "construct", DATA / "cube.her",
                              "-o", tmp_path / "c.off", "--trace")
        assert code == 0
        trace = json.loads(stdout)
        assert trace["intersections"] >= 1 + trace["steps_taken"]
        assert trace["jacobians"] >= trace["steps_taken"]
        assert trace["rejections"] == {"collapse": 0, "degenerate": 0,
                                       "diverged": 0, "stalled": 0}

    def test_custom_step_and_tolerance(self, tmp_path, capsys):
        out = tmp_path / "ico.off"
        code, _, _ = run(capsys, "construct", DATA / "icosahedron.her",
                         "-o", out, "--dt", "0.25", "--tol", "1e-10")
        assert code == 0
        assert import_off(out.read_text()).face_count == 20

    def test_failure_prints_trace_before_error(self, tmp_path, capsys):
        out = tmp_path / "x.off"
        code, stdout, err = run(capsys, "construct", DATA / "grunbaum.her",
                                "-o", out, "--tol", "1e-30", "--trace")
        assert code == 1
        assert json.loads(stdout)["steps_taken"] == 0
        assert err.startswith("error:")
        assert not out.exists()

    def test_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.her"
        bad.write_text("2\n1 0 0 1\n-1 0 0 1\n")
        code, _, err = run(capsys, "construct", bad, "-o", tmp_path / "x.off")
        assert code == 1
        assert "error" in err


class TestSums:
    def test_bsum_football_and_report(self, tmp_path, capsys):
        ball = tmp_path / "ball.off"
        code, _, _ = run(capsys, "bsum", DATA / "dodecahedron.her",
                         DATA / "icosahedron.her", "-o", ball)
        assert code == 0
        code, stdout, _ = run(capsys, "report", ball)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["euler"]["faces"] == 32
        assert rep["euler"]["ok"]
        assert rep["vector_area_residual_norm"] <= 1e-9 * rep["total_area"]

    def test_bsum_accepts_off_inputs(self, tmp_path, capsys):
        a = tmp_path / "a.off"
        write_cube_off(a)
        out = tmp_path / "s.off"
        code, _, _ = run(capsys, "bsum", a, a, "-o", out)
        assert code == 0
        mesh = import_off(out.read_text())
        assert mesh.face_count == 6

    def test_msum_cubes(self, tmp_path, capsys):
        a = tmp_path / "a.off"
        write_cube_off(a)
        out = tmp_path / "m.off"
        code, _, _ = run(capsys, "msum", a, a, "-o", out)
        assert code == 0
        rep_code, stdout, _ = run(capsys, "report", out)
        assert json.loads(stdout)["volume"] == pytest.approx(8.0, rel=1e-9)


class TestCheck:
    def test_bm_holds_exit_zero(self, tmp_path, capsys):
        a = tmp_path / "a.off"
        b = tmp_path / "b.off"
        write_cube_off(a, 1.0)
        write_cube_off(b, 2.0)
        code, stdout, _ = run(capsys, "check", "bm", a, b)
        assert code == 0
        assert json.loads(stdout)["verdict"] == "equality"

    def test_expected_exponent_failure_exits_zero(self, tmp_path, capsys):
        a = tmp_path / "cube.off"
        write_cube_off(a)
        code, stdout, _ = run(capsys, "check", "exponent", "--a", "0.5", a, a)
        assert code == 0
        out = json.loads(stdout)
        assert out["failure_expected"]
        assert out["power_minkowski"]["verdict"] == "fails"
        assert out["power_minkowski"]["lhs"] == \
            pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_exponent_above_one_exit_zero(self, tmp_path, capsys):
        a = tmp_path / "cube.off"
        write_cube_off(a)
        code, stdout, _ = run(capsys, "check", "exponent", "--a", "2", a, a)
        assert code == 0
        assert not json.loads(stdout)["failure_expected"]

    def test_ks_reads_the_face_data_of_her_inputs(self, capsys, tmp_path):
        # the homothety ratio comes from the files, not from reconstructions
        from blaschke3d.fileio import format_herisson
        from blaschke3d.herisson import blaschke_scale, random_herisson
        h = random_herisson(8, 3)
        small, big = tmp_path / "small.her", tmp_path / "big.her"
        small.write_text(format_herisson(h))
        big.write_text(format_herisson(blaschke_scale(h, 4.0)))
        code, stdout, _ = run(capsys, "check", "ks", small, big)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["verdict"] == "equality"
        assert rep["diagnosis"]["area_ratio"] == 4.0

    def test_monotone_accepts_her_inputs(self, capsys, tmp_path):
        box = tmp_path / "box.her"
        box.write_text("6\n1 0 0 50\n-1 0 0 50\n0 1 0 50\n0 -1 0 50\n"
                       "0 0 1 1\n0 0 -1 1\n")
        cube = tmp_path / "cube.her"
        cube.write_text("6\n1 0 0 100\n-1 0 0 100\n0 1 0 100\n0 -1 0 100\n"
                        "0 0 1 100\n0 0 -1 100\n")
        code, stdout, _ = run(capsys, "check", "monotone", box, cube)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["verdict"] == "holds"
        assert rep["diagnosis"]["contains_by_translation"] is False

    def test_monotone_accepts_off_inputs(self, capsys, tmp_path):
        small, big = tmp_path / "small.off", tmp_path / "big.off"
        write_cube_off(small, 1.0)
        write_cube_off(big, 2.0)
        code, stdout, _ = run(capsys, "check", "monotone", small, big)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["lhs"] == pytest.approx(8.0, rel=1e-12)
        assert rep["diagnosis"]["contains_by_translation"] is True

    def test_monotone_premise_violation_exits_one(self, capsys, tmp_path):
        big = tmp_path / "big.her"
        big.write_text("6\n1 0 0 4\n-1 0 0 4\n0 1 0 4\n0 -1 0 4\n"
                       "0 0 1 4\n0 0 -1 4\n")
        small = tmp_path / "small.her"
        small.write_text("6\n1 0 0 1\n-1 0 0 1\n0 1 0 1\n0 -1 0 1\n"
                         "0 0 1 1\n0 0 -1 1\n")
        code, _, err = run(capsys, "check", "monotone", big, small)
        assert code == 1
        assert "direction" in err


class TestFuzz:
    def test_clean_run_exit_zero_and_stable(self, capsys):
        args = ["fuzz", "--trials", "3", "--faces-min", "6",
                "--faces-max", "8", "--seed", "5"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_up_to_48_faces(self, capsys):
        code, stdout, _ = run(capsys, "fuzz", "--trials", "10",
                              "--faces-max", "48", "--seed", "0")
        assert code == 0
        assert json.loads(stdout)["unexpected_failures"] == []

    @pytest.mark.parametrize("a", ["0", "-1", "nan"])
    def test_invalid_exponent_exits_one(self, capsys, a):
        code, stdout, err = run(capsys, "fuzz", "--trials", "2",
                                "--checks", "bm", "--a", a)
        assert code == 1
        assert stdout == ""
        assert "exponent factor" in err

    def test_expected_failures_exit_zero(self, capsys):
        code, stdout, _ = run(capsys, "fuzz", "--trials", "2", "--seed", "3",
                              "--checks", "thm81", "--a", "0.5",
                              "--homothetic")
        assert code == 0
        assert json.loads(stdout)["checks"]["thm81"]["fails"] == 2


class TestSphereCheck:
    def test_octant(self, tmp_path, capsys):
        poly = tmp_path / "octant.txt"
        poly.write_text("1 0 0\n0 1 0\n0 0 1\n")
        code, stdout, _ = run(capsys, "sphere-check", poly, "--refine", "6")
        assert code == 0
        out = json.loads(stdout)
        assert out["norm"] <= 1e-6

    def test_bad_vertex_exits_one(self, tmp_path, capsys):
        poly = tmp_path / "bad.txt"
        poly.write_text("1.2 0 0\n0 1 0\n0 0 1\n")
        code, _, err = run(capsys, "sphere-check", poly)
        assert code == 1
        assert "error" in err


class TestReportDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        out = tmp_path / "ico.off"
        run(capsys, "construct", DATA / "icosahedron.her", "-o", out)
        code1, rep1, _ = run(capsys, "report", out)
        code2, rep2, _ = run(capsys, "report", out)
        assert code1 == code2 == 0
        assert rep1 == rep2


def test_import_leaves_scipy_optimize_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, blaschke3d; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert done.stdout.strip() == "False"

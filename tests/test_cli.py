import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blaschke3d import inequalities, solver, sums
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
        assert trace["hulls"] == 1  # the tangent body's cut
        assert trace["jacobians"] >= trace["steps_taken"]
        assert trace["rejections"] == {"collapse": 0, "degenerate": 0,
                                       "diverged": 0, "stalled": 0}

    def test_custom_step_and_tolerance(self, tmp_path, capsys):
        out = tmp_path / "ico.off"
        code, _, _ = run(capsys, "construct", DATA / "icosahedron.her",
                         "-o", out, "--tol", "1e-10")
        assert code == 0
        assert import_off(out.read_text()).face_count == 20

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_one(self, tmp_path, capsys, tol):
        code, _, err = run(capsys, "construct", DATA / "cube.her",
                           "-o", tmp_path / "x.off", "--tol", tol)
        assert code == 1
        assert "newton_tol must be positive and finite" in err

    def test_failure_prints_trace_before_error(self, tmp_path, capsys):
        out = tmp_path / "x.off"
        code, stdout, err = run(capsys, "construct", DATA / "grunbaum.her",
                                "-o", out, "--tol", "1e-30", "--trace")
        assert code == 1
        assert json.loads(stdout)["rejections"]["stalled"] >= 1
        assert err.startswith("error:")
        assert not out.exists()

    def test_failed_trace_is_strict_json(self, tmp_path, capsys):
        from blaschke3d.bodies import elongated_herisson
        from blaschke3d.fileio import format_herisson
        her = tmp_path / "needle.her"
        her.write_text(format_herisson(elongated_herisson(1e5, 0)))
        code, stdout, err = run(capsys, "construct", her,
                                "-o", tmp_path / "x.off", "--trace")
        assert code == 1 and err.startswith("error:")

        def reject(name):
            raise AssertionError(f"{name} in the trace")
        trace = json.loads(stdout, parse_constant=reject)
        assert f"residual {trace['final_residual']:.2e} " in err

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
        # in increasing order, as the rebuilt mesh's face order is Qhull's
        assert rep["face_areas"] == sorted(rep["face_areas"])
        assert rep["vector_area_residual_norm"] <= 1e-9 * rep["total_area"]

    def test_bsum_of_her_inputs_solves_once(self, tmp_path, capsys,
                                            monkeypatch):
        # the face data of the two files are added, not read back off
        # their reconstructions
        calls = []
        real = solver._newton_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        # every solve runs the Newton loop: `_Body`'s directly, and
        # `continuation_solve`'s through the solver module
        for module in (inequalities, solver):
            monkeypatch.setattr(module, "_newton_solve", counted)
        code, _, _ = run(capsys, "bsum", DATA / "dodecahedron.her",
                         DATA / "icosahedron.her", "-o", tmp_path / "s.off")
        assert code == 0 and len(calls) == 1

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


def her_pair(tmp_path):
    """P and a body P#Q whose face data dominate P's, as .her files."""
    from blaschke3d.fileio import format_herisson, parse_herisson_file
    from blaschke3d.herisson import blaschke_add
    p = DATA / "dodecahedron.her"
    both = [parse_herisson_file(f.read_text())
            for f in (p, DATA / "icosahedron.her")]
    q = tmp_path / "sum.her"
    q.write_text(format_herisson(blaschke_add(*both)))
    return p, q


def off_pair(tmp_path):
    """An icosphere and a larger one, as OFF files."""
    from blaschke3d.bodies import icosphere_mesh
    from blaschke3d.fileio import export_off
    p, q = tmp_path / "small.off", tmp_path / "big.off"
    p.write_text(export_off(icosphere_mesh(1)))
    q.write_text(export_off(icosphere_mesh(1, radius=1.5)))
    return p, q


def load(path):
    from blaschke3d.fileio import parse_herisson_file
    text = Path(path).read_text()
    if str(path).endswith(".her"):
        return parse_herisson_file(text)
    return import_off(text)


def dumped(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestReportsVerbatim:
    """`check` prints the library's report as it is, and exits by its
    verdict."""

    @pytest.mark.parametrize("pair", [her_pair, off_pair], ids=["her", "off"])
    @pytest.mark.parametrize("kind, check", [
        ("bm", inequalities.brunn_minkowski_check),
        ("ks", inequalities.kneser_suss_check),
        ("monotone", inequalities.monotonicity_check),
        ("sumcmp", inequalities.sum_comparison_check)])
    def test_one_report(self, tmp_path, capsys, pair, kind, check):
        a, b = pair(tmp_path)
        report = check(load(a), load(b))
        code, stdout, _ = run(capsys, "check", kind, a, b)
        assert stdout == dumped(report.to_dict())
        assert code == (0 if report.ok else 2)

    @pytest.mark.parametrize("pair", [her_pair, off_pair], ids=["her", "off"])
    @pytest.mark.parametrize("a_exp", [0.5, 1.5])
    def test_exponent(self, tmp_path, capsys, pair, a_exp):
        a, b = pair(tmp_path)
        rep4, rep5 = inequalities.exponent_check(load(a), load(b), a_exp)
        failed = not (rep4.ok and rep5.ok)
        code, stdout, _ = run(capsys, "check", "exponent", "--a", a_exp, a, b)
        assert stdout == dumped({"power_minkowski": rep4.to_dict(),
                                 "power_blaschke": rep5.to_dict(),
                                 "failure_expected": failed and a_exp < 1.0})
        assert code == (2 if failed and a_exp >= 1.0 else 0)

    def test_msum_reconstructs_a_her_operand(self, tmp_path, capsys):
        from blaschke3d.fileio import export_off
        _, b = off_pair(tmp_path)
        a, out = DATA / "grunbaum.her", tmp_path / "m.off"
        code, _, _ = run(capsys, "msum", a, b, "-o", out)
        want = sums.minkowski_sum(solver.continuation_solve(load(a))[1],
                                  load(b))
        assert code == 0 and out.read_text() == export_off(want)


class TestMeshBuilds:
    """A body given by face data is read off its solve's last cut: its mesh
    is built only for a command that reads one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = solver._hull_mesh

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(solver, "_hull_mesh", counted)
        return calls

    def test_fuzz_trial_builds_none(self, builds):
        inequalities.fuzz_campaign(inequalities.FuzzConfig(trials=1, seed=4))
        assert len(builds) == 0

    def test_check_ks_builds_none(self, capsys, builds):
        code, _, _ = run(capsys, "check", "ks", DATA / "dodecahedron.her",
                         DATA / "icosahedron.her")
        assert code == 0 and len(builds) == 0

    def test_bsum_builds_the_sum(self, tmp_path, capsys, builds):
        code, _, _ = run(capsys, "bsum", DATA / "dodecahedron.her",
                         DATA / "icosahedron.her", "-o", tmp_path / "s.off")
        assert code == 0 and len(builds) == 1

    def test_check_monotone_builds_both_for_containment(self, tmp_path,
                                                        capsys, builds):
        code, _, _ = run(capsys, "check", "monotone", *her_pair(tmp_path))
        assert code == 0 and len(builds) == 2


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
        assert out["area"] == pytest.approx(np.pi / 2, rel=1e-15)

    def test_bad_vertex_exits_one(self, tmp_path, capsys):
        poly = tmp_path / "bad.txt"
        poly.write_text("1.2 0 0\n0 1 0\n0 0 1\n")
        code, _, err = run(capsys, "sphere-check", poly)
        assert code == 1
        assert "error" in err


class TestNonFiniteInput:
    """A `nan` in an input file is a parse error naming its line."""

    def test_construct(self, tmp_path, capsys):
        her = tmp_path / "cube.her"
        her.write_text((DATA / "cube.her").read_text().replace(
            "1 0 0 2", "1 0 0 nan"))
        code, _, err = run(capsys, "construct", her, "-o", tmp_path / "x.off")
        assert (code, err) == (1, "error: line 2: number not finite\n")

    def test_report(self, tmp_path, capsys):
        off = tmp_path / "cube.off"
        write_cube_off(off)
        lines = off.read_text().splitlines()
        lines[2] = "0 0 nan"
        off.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "report", off)
        assert (code, err) == (1, "error: line 3: number not finite\n")

    def test_sphere_check(self, tmp_path, capsys):
        poly = tmp_path / "octant.txt"
        poly.write_text("nan 0 1\n0 1 0\n0 0 1\n")
        code, stdout, err = run(capsys, "sphere-check", poly)
        assert (code, stdout) == (1, "")
        assert err == "error: line 1: number not finite\n"


class TestReportDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        out = tmp_path / "ico.off"
        run(capsys, "construct", DATA / "icosahedron.her", "-o", out)
        code1, rep1, _ = run(capsys, "report", out)
        code2, rep2, _ = run(capsys, "report", out)
        assert code1 == code2 == 0
        assert rep1 == rep2

    def test_body_far_from_the_origin(self, tmp_path, capsys):
        from blaschke3d.bodies import icosphere_mesh
        from blaschke3d.fileio import export_off
        off = tmp_path / "far.off"
        far = icosphere_mesh(2).translate(1e5 * np.array([1.0, -0.7, 0.3]))
        off.write_text(export_off(far))
        code, stdout, _ = run(capsys, "report", off)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["euler"]["ok"] and rep["euler"]["faces"] == 320


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_141(tmp_path, unbuffered):
    # the pipe's reader is gone before the command starts: no error
    # message, and the exit code of a process killed by SIGPIPE, whether
    # stdout is block-buffered (a pipe's default) or unbuffered
    off = tmp_path / "cube.off"
    write_cube_off(off)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "blaschke3d.cli", "report", str(off)],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


def test_import_leaves_scipy_optimize_unloaded():
    # only the oracle's L-BFGS-B needs scipy.optimize: the import, the
    # translate-inside test both ways, a monotonicity check, a short fuzz
    # campaign and a Chebyshev-centre interior point all leave it unloaded
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = """if True:
        import sys
        import numpy as np
        import blaschke3d as b3
        from blaschke3d.bodies import box_mesh, cube_herisson, cube_mesh
        from blaschke3d.geometry import _interior_point
        loaded = ["scipy.optimize" in sys.modules]
        b3.contains_by_translation(cube_mesh(2.0), cube_mesh(1.0))
        b3.contains_by_translation(cube_mesh(10.0), box_mesh((1, 1, 50)))
        b3.monotonicity_check(cube_herisson(1.0), cube_herisson(2.0))
        loaded.append("scipy.optimize" in sys.modules)
        b3.fuzz_campaign(b3.FuzzConfig(trials=3))
        loaded.append("scipy.optimize" in sys.modules)
        axes = np.vstack([np.eye(3), -np.eye(3)])[[0, 3, 1, 4, 2, 5]]
        dirs = np.vstack([axes[:3], [np.ones(3) / np.sqrt(3.0)], axes[3:]])
        offsets = np.array([1, 1, 1, 10, 1, 1, 1.0])
        _interior_point(dirs, offsets + dirs @ np.array([30.0, -20.0, 10.0]))
        loaded.append("scipy.optimize" in sys.modules)
        print(loaded)
    """
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert done.stdout.strip() == "[False, False, False, False]"


def test_cold_paths_leave_scipy_spatial_unloaded(tmp_path):
    # SciPy loads scipy.spatial on the first hull or k-d tree: the import,
    # a spherical check as a call and as a command, and a .her file that
    # fails to parse build neither; a construct that solves builds both
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    poly, bad = tmp_path / "poly.txt", tmp_path / "zero.her"
    poly.write_text("1 0 0\n0 1 0\n0 0 1\n")
    bad.write_text("4\n0 0 0 1\n1 -1 -1 1\n-1 1 -1 1\n-1 -1 1 1\n")
    code = """if True:
        import sys
        import blaschke3d
        from blaschke3d import cli
        from blaschke3d.fileio import parse_polygon_file
        from blaschke3d.spherical import spherical_identity_residual
        poly, bad, cube, out = sys.argv[1:]
        loaded = ["scipy.spatial" in sys.modules]
        with open(poly) as fh:
            spherical_identity_residual(parse_polygon_file(fh.read()), 1)
        loaded.append("scipy.spatial" in sys.modules)
        for argv in (["sphere-check", poly, "--refine", "1"],
                     ["construct", bad, "-o", out],
                     ["construct", cube, "-o", out]):
            loaded.append((cli.main(argv), "scipy.spatial" in sys.modules))
        print(loaded, file=sys.stderr)
    """
    done = subprocess.run(
        [sys.executable, "-c", code, str(poly), str(bad),
         str(DATA / "cube.her"), str(tmp_path / "cube.off")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *errors, loaded = done.stderr.strip().splitlines()
    assert errors == ["error: line 2: zero normal"]
    assert loaded == "[False, False, (0, False), (1, False), (0, True)]"


def test_report_of_a_convex_off_leaves_scipy_spatial_unloaded(tmp_path):
    # a file whose faces certify their convexity builds no hull, so a cold
    # `report` imports no scipy.spatial module
    from blaschke3d.bodies import icosphere_mesh
    from blaschke3d.fileio import export_off
    src = Path(__file__).resolve().parent.parent / "src"
    off = tmp_path / "body.off"
    off.write_text(export_off(icosphere_mesh(3).translate([0.3, -0.2, 0.1])))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "blaschke3d.cli",
         "report", str(off)], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["euler"]["faces"] == 1280
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "blaschke3d.fileio" in imported
    assert not [m for m in imported if m.split(".")[:2] == ["scipy",
                                                            "spatial"]]


def test_import_leaves_process_pools_unloaded():
    # a campaign forks its workers with os.fork, so neither import nor a
    # campaign over 3 slices pays for multiprocessing
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = """if True:
        import sys
        import blaschke3d
        from blaschke3d import inequalities
        pools = ("multiprocessing", "concurrent.futures.process")
        loaded = [[name for name in pools if name in sys.modules]]
        inequalities._cpu_count = lambda: 3
        inequalities.fuzz_campaign(inequalities.FuzzConfig(trials=3))
        loaded.append([name for name in pools if name in sys.modules])
        print(loaded)
    """
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert done.stdout.strip() == "[[], []]"

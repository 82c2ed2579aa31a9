"""`scripts/same_outputs.py --compare`: reals are measured, anything else
fails."""
import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
REPORT = {"verdict": "holds", "volume": 1.2345678901234, "faces": 6}
# a tetrahedron with a vertex 8.2e-17 off the plane y = 0
OFF = ["OFF", "4 4 6", "0 0 0", "1 8.2e-17 0", "0 1 0", "0 0 1",
       "3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, report, off):
    root.mkdir()
    (root / "in").mkdir()
    (root / "in" / "cube.her").write_text("6\n1 0 0 1\n-1 0 0 1\n")
    (root / "check.out").write_text(json.dumps(report, indent=2) + "\n")
    (root / "check.code").write_text("0\n")
    (root / "body.off").write_text("\n".join(off) + "\n")


def edited(lines, n, line):
    return lines[:n] + [line] + lines[n + 1:]


@pytest.mark.parametrize("changed, off, code, differs, worst, shown", [
    ({}, OFF, 0, [], None, ()),
    ({"volume": REPORT["volume"] * (1 + 1e-13)}, OFF, 0, ["check.out"],
     ("check.out", 1e-13), ()),
    ({"verdict": "fails"}, OFF, 1, ["check.out"], None,
     ('"holds"', '"fails"')),
    ({}, edited(OFF, 7, "3 1 3 0"), 0, ["body.off"], None, ()),
    ({}, edited(OFF, 7, "3 1 0 3"), 1, ["body.off"], None,
     ("line 8: '0' != '1'",)),
    ({}, edited(OFF, 3, "1 -3.3e-16 0"), 0, ["body.off"],
     ("body.off", 4.12e-16), ())],
    ids=["identical", "real-by-1e-13", "word", "cycle-from-another-vertex",
         "cycle-reversed", "zero-up-to-rounding"])
def test_compare(tmp_path, capsys, changed, off, code, differs, worst,
                 shown):
    write_tree(tmp_path / "a", REPORT, OFF)
    write_tree(tmp_path / "b", {**REPORT, **changed}, off)
    with pytest.raises(SystemExit) as done:
        load_script().main(["same_outputs.py", "--compare",
                            str(tmp_path / "a"), str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert done.value.code == code, out
    assert re.findall(r"^differs: (.*)$", out, re.M) == differs
    found = re.search(r"^largest relative difference between reals: (\S+) "
                      r"in (\S+) ", out, re.M)
    if worst is None:
        assert found is None
    else:
        assert found.group(2) == worst[0]
        assert float(found.group(1)) == pytest.approx(worst[1], rel=1e-2)
    assert all(text in out for text in shown)

"""`scripts/same_outputs.py --compare`: reals are measured, anything else
fails."""
import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
REPORT = {"verdict": "holds", "volume": 1.2345678901234, "faces": 6}


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, report):
    root.mkdir()
    (root / "in").mkdir()
    (root / "in" / "cube.her").write_text("6\n1 0 0 1\n-1 0 0 1\n")
    (root / "check.out").write_text(json.dumps(report, indent=2) + "\n")
    (root / "check.code").write_text("0\n")


@pytest.mark.parametrize("changed, code, differs, worst", [
    ({}, 0, [], None),
    ({"volume": REPORT["volume"] * (1 + 1e-13)}, 0, ["check.out"], 1e-13),
    ({"verdict": "fails"}, 1, ["check.out"], None)],
    ids=["identical", "real-by-1e-13", "word"])
def test_compare(tmp_path, capsys, changed, code, differs, worst):
    write_tree(tmp_path / "a", REPORT)
    write_tree(tmp_path / "b", {**REPORT, **changed})
    with pytest.raises(SystemExit) as done:
        load_script().main(["same_outputs.py", "--compare",
                            str(tmp_path / "a"), str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert done.value.code == code, out
    assert re.findall(r"^differs: (.*)$", out, re.M) == differs
    found = re.search(r"^largest relative difference between reals: (\S+) "
                      r"in check\.out ", out, re.M)
    if worst is None:
        assert found is None
    else:
        assert float(found.group(1)) == pytest.approx(worst, rel=1e-2)
    if code:
        assert '"holds"' in out and '"fails"' in out

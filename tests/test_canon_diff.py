import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "canon_diff.py"
_SPEC = importlib.util.spec_from_file_location("canon_diff", _PATH)
canon_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(canon_diff)


def _row(sid, point, residual_rel, scale, status="pass"):
    return {"identity_id": sid, "manifold": "s4-round", "point": point,
            "status": status, "jet_order_used": 6,
            "residual_rel": residual_rel, "scale": scale}


def _report(rows, ok=True):
    return {"config": {"tolerance_overrides": {}}, "results": rows,
            "summary": {"ok": ok}}


PARENT = _report([_row("bianchi1.weyl", [0.1, 0.2, 0.3, 0.4], 1e-16, 2.0),
                  _row("bianchi1.weyl", [0.5, 0.6, 0.7, 0.8], 0.0, 3.0),
                  _row("key2.full", [0.1, 0.2, 0.3, 0.4], 0.0, 0.0,
                       "not_applicable")])


def test_identical_reports():
    res = canon_diff.compare(PARENT, json.loads(json.dumps(PARENT)))
    assert res["rows_identical"] and res["ok_identical"]
    assert res["applicable"] == 2 and res["bit_identical"] == 2
    assert res["max_scale_ratio"] == {"bianchi1.weyl": 1.0}
    assert res["looser"] == [] and res["over_bar"] == []


def test_differing_rows():
    change = json.loads(json.dumps(PARENT))
    change["results"][1]["status"] = "fail"
    change["summary"]["ok"] = False
    res = canon_diff.compare(PARENT, change)
    assert not res["rows_identical"] and not res["ok_identical"]


def test_raised_scale_is_flagged():
    change = json.loads(json.dumps(PARENT))
    change["results"][0]["residual_rel"] = 2e-16
    change["results"][1]["scale"] = 3.0 * (1.0 + 1e-9)
    res = canon_diff.compare(PARENT, change)
    assert res["rows_identical"] and res["bit_identical"] == 1
    assert res["max_delta_over_tol"]["bianchi1.weyl"] == pytest.approx(1e-4)
    assert res["max_scale_ratio"]["bianchi1.weyl"] == pytest.approx(1 + 1e-9)
    assert res["looser"] == ["bianchi1.weyl"]
    # a scale raised by round-off only is not a looser check
    change["results"][1]["scale"] = 3.0 * (1.0 + 1e-15)
    assert canon_diff.compare(PARENT, change)["looser"] == []


def test_residual_moved_past_the_bar_fails(tmp_path, capsys):
    """|delta residual_rel| above 0.05 tol names the identity and exits 1;
    at the bar it passes."""
    tol = canon_diff.REGISTRY["bianchi1.weyl"].tol
    change = json.loads(json.dumps(PARENT))
    change["results"][1]["residual_rel"] = 0.05 * tol
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, doc in zip(paths, (PARENT, change)):
        path.write_text(json.dumps(doc))
    assert canon_diff.compare(PARENT, change)["over_bar"] == []
    assert canon_diff.main([str(p) for p in paths]) == 0
    change["results"][1]["residual_rel"] = 0.06 * tol
    paths[1].write_text(json.dumps(change))
    assert canon_diff.compare(PARENT, change)["over_bar"] == \
        ["bianchi1.weyl"]
    capsys.readouterr()
    assert canon_diff.main([str(p) for p in paths]) == 1
    assert "bianchi1.weyl  OVER BAR" in capsys.readouterr().out


def _run(paths, stdout):
    """canon_diff.py as a script on `paths`, its stdout the file descriptor
    `stdout`: (exit code, stderr)."""
    proc = subprocess.run([sys.executable, str(_PATH), *map(str, paths)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("verdict", [0, 1])
def test_closed_pipe_ends_quietly(tmp_path, verdict):
    """Read in full, the script exits with its verdict.  When the reader
    has closed the pipe (`| head`), it exits with the same verdict and
    writes nothing to stderr, where a BrokenPipeError traceback went."""
    change = json.loads(json.dumps(PARENT))
    if verdict:
        change["summary"]["ok"] = False
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, doc in zip(paths, (PARENT, change)):
        path.write_text(json.dumps(doc))
    assert _run(paths, subprocess.PIPE) == (verdict, "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert _run(paths, write_end) == (verdict, "")
    finally:
        os.close(write_end)

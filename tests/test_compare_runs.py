"""tools/compare_runs.py finds no difference between a checkout and itself,
names the output file that a changed plot format alters: tick labels with
five decimals ("1.00000" for "1"), and reports by how much the numbers of a
differing .json, .csv or saved field (.bin) file moved."""

import importlib.util
import json
import pathlib
import shutil
import struct
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_runs.py"


def compare_runs(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True)


def test_same_checkout_reports_no_difference():
    out = compare_runs(ROOT, ROOT, "spectrum")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "spectrum: 0 difference(s)" in out.stdout


def test_changed_plot_format_is_named(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    svgplot = tmp_path / "src" / "relaxlab" / "svgplot.py"
    source = svgplot.read_text()
    assert 'return f"{v:.6g}"' in source
    svgplot.write_text(source.replace('return f"{v:.6g}"', 'return f"{v:.5f}"'))
    out = compare_runs(ROOT, tmp_path, "spectrum")
    assert out.returncode == 1, out.stdout + out.stderr
    assert "curves.svg differs" in out.stdout and "fits.json" not in out.stdout


def test_numeric_difference_is_reported():
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parent = json.dumps({"fits": {"slope": 0.5, "rows": [1.0, 4.0]}, "hash": "0123e456", "ok": True})
    change = json.dumps({"fits": {"slope": 0.5, "rows": [1.0, 5.0]}, "hash": "0123e457",
                         "ok": False, "extra": 3})
    line = tool._describe("fits.json", parent.encode(), change.encode())
    assert line == "fits.json differs (largest relative difference 0.2 over 3 numbers; 1 numbers in one file only)"
    line = tool._describe("norms.csv", b"t,name,value\n0.0,u,4.0\n1.0,u,nan\n", b"t,name,value\n0.0,u,6.0\n1.0,u,nan\n")
    assert line == "norms.csv differs (largest relative difference 0.333 over 4 numbers)"
    assert tool._describe("curves.svg", b"<svg/>", b"<svg />") == "curves.svg differs"
    assert tool._describe("fits.json", b"{", b"{}") == "fits.json differs"


def test_saved_field_difference_is_reported():
    # a saved field compares as its float64 values: a zero that changed its
    # sign moves nothing, a changed value moves by its relative difference
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def field(*values):
        header = json.dumps({"n": 1}).encode()
        return b"RLXF" + struct.pack("<I", len(header)) + header + struct.pack(f"<{len(values)}d", *values)

    line = tool._describe("fields/u_final.bin", field(1.0, -0.0, 2.0, 0.0), field(1.0, 0.0, 2.0, 0.0))
    assert line == "fields/u_final.bin differs (largest relative difference 0 over 4 numbers)"
    line = tool._describe("fields/u_final.bin", field(1.0, 4.0), field(1.0, 5.0, 0.0, 0.0))
    assert line == "fields/u_final.bin differs (largest relative difference 0.2 over 2 numbers; 2 numbers in one file only)"
    assert tool._describe("fields/u_final.bin", b"RLXF", b"RLXF") == "fields/u_final.bin differs"

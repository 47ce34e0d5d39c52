"""tools/compare_runs.py finds no difference between a checkout and itself,
and names the output file that a changed plot format alters: tick labels
with five decimals ("1.00000" for "1")."""

import pathlib
import shutil
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

"""Run the same configs on two checkouts of relaxlab and compare what they write.

    python tools/compare_runs.py PARENT CHANGE [NAME ...]

PARENT and CHANGE are repository roots. Each NAME is a preset, a benchmark
workload of perfbench/workloads.py (run at seed 0) or the path of a JSON
config; without names, every preset except thm3-decay-2d, the three
workloads and the configs under tools/compare_configs/ run. Those configs
take seconds each and cover what no preset does: exact_linear in the
overdamping scan, int-valued data and stepper sections, a simulate run with
p = 4 and Z trackers, a 2D simulate run with trackers at p = 3, inf, 1 and 6
(simulate-2d-odd-p.json, the one config whose block norms take odd p and
p = inf), an eps sweep over three v_kind variants, a 2D eps sweep over
two variants at p = 4 (sweep-2d-members.json, the one config that marches
2D members together), a simulate run that sets every data and stepper
field away from its default (so each passes through the config schema into
the run unchanged), and a simulate run of a polynomial flux of two
components with mixed terms (polynomial-n2.json, the one config that builds
its flux from model.terms), and a 1D decay study on N = 64 with
with_difference and compare_half_eps on (decay-1d-half-eps.json, which runs
the half-eps comparison in under a second, where thm3-decay-2d takes
minutes), and a 2D eps-convergence sweep at p = 4 (epsilon-2d-p4.json, the
one config whose du and dv trackers take p != 2). Each name runs once per root through `python
-m relaxlab.cli run --jobs 1` with PYTHONPATH=<root>/src, into a fresh
output directory. Every output file is compared byte for byte, except the
wall_time entry of trajectory.json, and so are the exit status and the
printed lines (with the roots and output directories masked). Each
difference is printed, and for a .json or .csv file also the largest
relative difference between the numbers that stand at the same place in
both, for a saved field (.bin) between its float64 values; the exit
status is 1 on any difference, else 0.

Standard library only: the runs import relaxlab and numpy, this script
does not.
"""

from __future__ import annotations

import argparse
import array
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent.parent
# the longest preset (minutes on a desk machine); name it to run it
SKIPPED_BY_DEFAULT = ("thm3-decay-2d",)
CONFIGS = sorted(str(p) for p in (HERE / "tools" / "compare_configs").glob("*.json"))
_WALL_TIME = re.compile(rb'"wall_time": [^,\n]*')


def _workloads() -> dict:
    """name -> config at seed 0 of every benchmark workload."""
    spec = importlib.util.spec_from_file_location("workloads", HERE / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {name: make(0) for name, (make, _) in mod.WORKLOADS.items()}


def _env(root: pathlib.Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _presets(root: pathlib.Path) -> list:
    out = subprocess.run([sys.executable, "-c", "from relaxlab.cli import PRESETS; print(*PRESETS)"],
                         env=_env(root), capture_output=True, text=True, check=True)
    return out.stdout.split()


def _run(root: pathlib.Path, args: list, out: pathlib.Path) -> tuple:
    """(exit status, stdout and stderr with the paths masked) of one CLI run."""
    proc = subprocess.run([sys.executable, "-m", "relaxlab.cli", "run", "--jobs", "1", *args, "--out", str(out)],
                          env=_env(root), cwd=out.parent, capture_output=True)
    text = (proc.stdout + proc.stderr).replace(bytes(out), b"<out>").replace(bytes(root), b"<root>")
    return proc.returncode, text


def _files(top: pathlib.Path) -> dict:
    """relative path -> bytes of every file under top, wall_time masked."""
    found = {}
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "trajectory.json":
            data = _WALL_TIME.sub(b'"wall_time": null', data)
        found[str(path.relative_to(top))] = data
    return found


def _numbers(rel: str, data: bytes) -> dict:
    """place -> value of every number in a .json or .csv file or of every
    float64 a saved field (.bin: magic, header length, JSON header, values)
    holds; {} for other files."""
    found = {}
    if rel.endswith(".json"):
        def walk(place, x):
            if isinstance(x, dict):
                for k, v in x.items():
                    walk(place + (k,), v)
            elif isinstance(x, list):
                for i, v in enumerate(x):
                    walk(place + (i,), v)
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                found[place] = float(x)
        walk((), json.loads(data))
    elif rel.endswith(".csv"):
        for i, row in enumerate(csv.reader(io.StringIO(data.decode()))):
            for k, cell in enumerate(row):
                try:
                    found[(i, k)] = float(cell)
                except ValueError:
                    pass
    elif rel.endswith(".bin"):
        (size,) = struct.unpack_from("<I", data, 4)
        values = array.array("d", data[8 + size:])
        if sys.byteorder == "big":
            values.byteswap()
        found = dict(enumerate(values))
    return found


def _rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _describe(rel: str, data_p: bytes, data_c: bytes) -> str:
    """The line that reports one output file whose bytes differ."""
    try:
        nums_p, nums_c = _numbers(rel, data_p), _numbers(rel, data_c)
    except (ValueError, csv.Error, struct.error):
        return f"{rel} differs"
    shared = nums_p.keys() & nums_c.keys()
    if not shared:
        return f"{rel} differs"
    worst = max(_rel_diff(nums_p[k], nums_c[k]) for k in shared)
    alone = len(nums_p.keys() ^ nums_c.keys())
    return (f"{rel} differs (largest relative difference {worst:.3g} over {len(shared)} numbers"
            + (f"; {alone} numbers in one file only)" if alone else ")"))


def compare(parent: pathlib.Path, change: pathlib.Path, name: str, args: list, scratch: pathlib.Path) -> list:
    """The differences between the two roots' runs of one config; scratch is a new directory."""
    runs, trees = [], []
    for side, root in (("parent", parent), ("change", change)):
        out = scratch / side / "runs"
        out.parent.mkdir(parents=True)
        runs.append(_run(root, args, out))
        trees.append(_files(out) if out.exists() else {})
    (code_p, text_p), (code_c, text_c) = runs
    diffs = []
    if code_p != code_c:
        diffs.append(f"exit status {code_p} -> {code_c}")
    if text_p != text_c:
        diffs.append(f"printed output differs:\n  {text_p.decode(errors='replace').strip()}\n"
                     f"  {text_c.decode(errors='replace').strip()}")
    tree_p, tree_c = trees
    for rel in sorted(set(tree_p) | set(tree_c)):
        if rel not in tree_c:
            diffs.append(f"{rel} only in PARENT")
        elif rel not in tree_p:
            diffs.append(f"{rel} only in CHANGE")
        elif tree_p[rel] != tree_c[rel]:
            diffs.append(_describe(rel, tree_p[rel], tree_c[rel]))
    print(f"{name}: {len(diffs)} difference(s) over {len(tree_p)} files, exit {code_p}")
    for d in diffs:
        print(f"  {d}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="root of the reference checkout")
    parser.add_argument("change", type=pathlib.Path, help="root of the checkout under test")
    parser.add_argument("names", nargs="*", help="presets, workloads or JSON config paths")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()

    presets = _presets(change)
    workloads = _workloads()
    names = args.names or [p for p in presets if p not in SKIPPED_BY_DEFAULT] + list(workloads) + CONFIGS
    failed = 0
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        scratch = pathlib.Path(tmp)
        for i, name in enumerate(names):
            if name in presets:
                cli_args = ["--preset", name]
            elif name in workloads:
                config = scratch / f"{name}.json"
                config.write_text(json.dumps(workloads[name]))
                cli_args = ["--config", str(config)]
            elif os.path.isfile(name):
                cli_args = ["--config", os.path.abspath(name)]
            else:
                parser.error(f"{name!r} is no preset, workload or config file")
            failed += bool(compare(parent, change, name, cli_args, scratch / str(i)))
    print(f"{len(names) - failed} of {len(names)} configs wrote the same files")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

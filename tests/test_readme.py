"""The README's library example runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README} (Library use)", "exec"), namespace)
    traj = namespace["traj"]
    # the du tracker started the limit companion next to the relaxation run
    assert [run["scheme"] for run in traj.runs] == ["imex_ssp2", "if_rk2"]
    assert traj.steps == sum(run["steps"] for run in traj.runs)
    printed = capsys.readouterr().out
    assert printed.count("[") == 2
    du = traj.get("du", 2).besov_curve(s=0.0, r=1)
    u = traj.get("u", 2).besov_curve(s=0.0, r=1)
    assert du[0] == 0.0 and np.all(du[1:] > 0) and np.all(du < u)

"""Every function the benchmark's span tracer times still exists in relaxlab.

perfbench/tracer.py names its targets as "module:qualname" literals (SPANS,
FIELD_CLASS, JINXIN_STEP, DT_BOUND); a target that no longer resolves reads
0 in the per-layer metrics without failing the run. The file is parsed here,
not imported, and each target is looked up the way the tracer looks it up.
Only the targets listed in ABSENT, whose code was folded away earlier, may
be missing: deleting or renaming another traced function fails this test.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
NAMES = ("SPANS", "FIELD_CLASS", "JINXIN_STEP", "DT_BOUND")
ABSENT = {
    "relaxlab.integrators:_JinXinStepper.step",
    "relaxlab.integrators:_LimitStepper.step",
    "relaxlab.integrators:co_evolve",
    "relaxlab.harness:_overdamping_one",
}


def tracer_targets() -> set:
    """Every "module:qualname" that tracer.py assigns to one of NAMES."""
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in NAMES:
                    values[target.id] = ast.literal_eval(node.value)
    assert sorted(values) == sorted(NAMES)
    spans = values.pop("SPANS")
    return {target for _, target in spans} | set(values.values())


def resolves(target: str) -> bool:
    """Whether the module attribute or class member `target` names is defined."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return attr in vars(owner)


def test_every_traced_target_resolves():
    targets = tracer_targets()
    assert ABSENT <= targets and len(targets) > 30
    assert {t for t in targets if not resolves(t)} == ABSENT


def test_resolves_tells_a_missing_member():
    assert resolves("relaxlab.integrators:evolve")
    assert resolves("relaxlab.spectral_core:SpectralField.to_physical")
    assert not resolves("relaxlab.integrators:_JinXinStepper.no_such_method")
    assert not resolves("relaxlab.integrators:NoSuchClass.step")

"""In-memory span tracer that wraps relaxlab functions where they are looked up.

A module-level function is rebound in every ``relaxlab.*`` module whose
globals refer to it, so ``relaxlab.integrators.flux_fields`` and
``relaxlab.models.flux_fields`` both go through the wrapper; a method is
replaced on its class. Spans are aggregated per (name, parent) instead of
per call, because a single run can make millions of calls. A target that no
longer exists is listed in ``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, "module:qualname") for every boundary the traced run times.
SPANS = [
    ("integrators.step", "relaxlab.integrators:_JinXinStepper.step"),
    ("integrators.step", "relaxlab.integrators:_LimitStepper.step"),
    ("integrators.driver", "relaxlab.integrators:evolve"),
    ("integrators.driver", "relaxlab.integrators:co_evolve"),
    ("models.flux_fields", "relaxlab.models:flux_fields"),
    ("models.closure", "relaxlab.models:darcy_velocity"),
    ("models.closure", "relaxlab.models:effective_Z"),
    ("models.closure", "relaxlab.models:effective_z"),
    ("spectral_core.transform", "relaxlab.spectral_core:SpectralField.to_physical"),
    ("spectral_core.transform", "relaxlab.spectral_core:SpectralField.from_physical"),
    ("spectral_core.block_norms", "relaxlab.spectral_core:block_lp_norms"),
    ("spectral_analysis", "relaxlab.spectral_analysis:eigenvalues"),
    ("spectral_analysis", "relaxlab.spectral_analysis:decay_rate_omega"),
    ("spectral_analysis", "relaxlab.spectral_analysis:threshold_J"),
    ("spectral_analysis", "relaxlab.spectral_analysis:classify_regime"),
    ("spectral_analysis", "relaxlab.spectral_analysis:generator_matrix"),
    ("spectral_analysis", "relaxlab.spectral_analysis:exact_linear_propagator"),
    ("harness.experiment", "relaxlab.harness:run_overdamping_scan"),
    ("harness.experiment", "relaxlab.harness:_overdamping_one"),
    ("harness.experiment", "relaxlab.harness:run_epsilon_convergence"),
    ("harness.experiment", "relaxlab.harness:_convergence_one"),
    ("harness.experiment", "relaxlab.harness:run_simulate"),
    ("harness.init", "relaxlab.harness:make_initial_data"),
    ("harness.functional", "relaxlab.harness:functional_X"),
    ("harness.functional", "relaxlab.harness:functional_X0"),
    ("harness.functional", "relaxlab.harness:functional_X_at"),
    ("harness.fit", "relaxlab.harness:fit_rate"),
    ("harness.fit", "relaxlab.spectral_core:NormSeries.besov_curve"),
    ("harness.write", "relaxlab.harness:write_results"),
    ("harness.write", "relaxlab.spectral_core:save_field"),
    ("svgplot.render", "relaxlab.svgplot:render_curves"),
]
FIELD_CLASS = "relaxlab.spectral_core:SpectralField.__init__"
JINXIN_STEP = "relaxlab.integrators:_JinXinStepper.step"
DT_BOUND = "relaxlab.integrators:jinxin_dt_bound"
ROOT_SPAN = "cli.dispatch"

# Counts that must repeat exactly between runs of one workload and seed.
EXACT_COUNTS = (
    "integrators.steps",
    "spectral_core.fields.created",
    "spectral_core.transform.calls",
    "spectral_core.transform.bytes",
    "spectral_core.block_norms.p2.calls",
    "spectral_core.block_norms.pq.calls",
    "models.flux_fields.calls",
    "spectral_analysis.calls",
)


def _resolve(target: str):
    """(owner, attribute, raw object) for "module:qualname"; KeyError etc. if gone."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.spans: dict = {}      # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict = {"spectral_core.fields.created": 0,
                             "spectral_core.transform.bytes": 0,
                             "dt_over_bound.sum": 0.0, "dt_over_bound.n": 0}
        self.absent: list = []
        self._stack = [["<process>", 0.0]]    # open frames: [name, child_s]

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name, fn, after=None):
        """fn timed as span `name` (a str, or a function of (args, kwargs))."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            span = name if fixed else name(args, kwargs)
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = spans.get((span, parent[0]))
                if rec is None:
                    rec = spans[(span, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, target: str, make):
        """Replace target by make(raw function) where it is looked up."""
        try:
            owner, attr, raw = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(target)
            return
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            return
        wrapped = make(raw)
        for modname, mod in list(sys.modules.items()):
            if modname == "relaxlab" or modname.startswith("relaxlab."):
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, wrapped)

    def install(self):
        """Wrap every target in SPANS and the SpectralField constructor."""
        counts = self.counts
        hooks = {
            "relaxlab.spectral_core:SpectralField.to_physical": self._to_physical_bytes,
            "relaxlab.spectral_core:SpectralField.from_physical": self._from_physical_bytes,
            JINXIN_STEP: self._dt_ratio_hook(),
        }
        for span, target in SPANS:
            if target.endswith(":block_lp_norms"):
                span = _block_norm_span
            self._patch(target, lambda raw, s=span, t=target: self.wrap(s, raw, hooks.get(t)))

        def counted(raw):
            def init(*args, **kwargs):
                counts["spectral_core.fields.created"] += 1
                return raw(*args, **kwargs)
            return init

        self._patch(FIELD_CLASS, counted)

    def _to_physical_bytes(self, args, kwargs, out):
        self.counts["spectral_core.transform.bytes"] += args[0].coeffs.nbytes + out.nbytes

    def _from_physical_bytes(self, args, kwargs, out):
        # real input of the same element count as the complex output
        self.counts["spectral_core.transform.bytes"] += out.coeffs.nbytes + out.coeffs.size * 8

    def _dt_ratio_hook(self):
        """dt / (hyperbolic CFL bound) of each relaxation-system step."""
        try:
            bound_fn = _resolve(DT_BOUND)[2]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(DT_BOUND)
            return None
        counts, bounds, absent = self.counts, {}, self.absent
        missing = f"{JINXIN_STEP} (self.model, self.grid, dt)"

        def hook(args, kwargs, out):
            try:
                stepper = args[0]
                entry = bounds.get(id(stepper))
                if entry is None:  # keep the stepper so its id is not reused
                    entry = bounds[id(stepper)] = (stepper, bound_fn(stepper.model, stepper.grid))
                dt = args[2] if len(args) > 2 else kwargs["dt"]
            except (AttributeError, IndexError, KeyError):
                if missing not in absent:
                    absent.append(missing)
                return
            counts["dt_over_bound.sum"] += dt / entry[1]
            counts["dt_over_bound.n"] += 1

        return hook

    # -- results -----------------------------------------------------------
    def layer_metrics(self, wall: float) -> dict:
        """Per-layer metrics of one traced run whose root span took `wall` s."""
        def calls(name):
            return sum(r[0] for (n, _), r in self.spans.items() if n == name)

        def incl(name):  # inclusive time, not counting recursion into the same span
            return sum(r[1] for (n, p), r in self.spans.items() if n == name and p != name)

        def self_s(name):
            return sum(r[2] for (n, _), r in self.spans.items() if n == name)

        steps = calls("integrators.step")
        c = self.counts
        all_self = sum(r[2] for r in self.spans.values())
        return {
            "integrators.steps": steps,
            "integrators.dt_over_bound": c["dt_over_bound.sum"] / c["dt_over_bound.n"]
            if c["dt_over_bound.n"] else 0.0,
            "integrators.step.self_s": self_s("integrators.step"),
            "integrators.step.us_per_call": 1e6 * incl("integrators.step") / steps if steps else 0.0,
            "integrators.driver.self_s": self_s("integrators.driver"),
            "spectral_core.fields.created": c["spectral_core.fields.created"],
            "spectral_core.transform.calls": calls("spectral_core.transform"),
            "spectral_core.transform.s": incl("spectral_core.transform"),
            "spectral_core.transform.bytes": c["spectral_core.transform.bytes"],
            "spectral_core.block_norms.p2.calls": calls("spectral_core.block_norms.p2"),
            "spectral_core.block_norms.p2.s": incl("spectral_core.block_norms.p2"),
            "spectral_core.block_norms.pq.calls": calls("spectral_core.block_norms.pq"),
            "spectral_core.block_norms.pq.s": incl("spectral_core.block_norms.pq"),
            "models.flux_fields.calls": calls("models.flux_fields"),
            "models.flux_fields.self_s": self_s("models.flux_fields"),
            "models.closure.s": incl("models.closure"),
            "spectral_analysis.calls": calls("spectral_analysis"),
            "spectral_analysis.s": incl("spectral_analysis"),
            "harness.experiment.self_s": self_s("harness.experiment"),
            "harness.init.s": incl("harness.init"),
            "harness.functional.s": incl("harness.functional"),
            "harness.fit.s": incl("harness.fit"),
            "harness.write.s": incl("harness.write"),
            "svgplot.render.s": incl("svgplot.render"),
            "trace.wall_s": wall,
            "trace.self_sum_frac": all_self / wall,
            "trace.unattributed_frac": self_s(ROOT_SPAN) / wall,
        }

    def span_table(self) -> list:
        """[name, parent, calls, total_s, self_s] rows, largest self time first."""
        rows = [[n, p, r[0], r[1], r[2]] for (n, p), r in self.spans.items()]
        return sorted(rows, key=lambda row: -row[4])


def _block_norm_span(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    return "spectral_core.block_norms.p2" if p == 2 else "spectral_core.block_norms.pq"

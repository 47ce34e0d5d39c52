"""Per-call kernel timings on the 1D grids that no workload runs.

N=1024 (L=32*pi) is the thm1-uniform grid and N=4096 (L=200*pi) the
thm3-decay-1d grid. Each kernel is timed on Burgers data at eps=0.1 with a
step at 0.45 of the CFL bound, after one untimed call that builds the lazy
tables. If relaxlab no longer has a function the table calls, the worker
fails and the benchmark reports the whole table as absent.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

GRIDS = ((1024, 32 * math.pi), (4096, 200 * math.pi))
KERNELS = ("flux_fields", "ssp2_step", "block_norms_p2", "block_norms_p4")
BATCH_S = 0.004
BATCHES = 9


def metric_names() -> list:
    return [f"kernel.n{N}.{k}.us" for N, _ in GRIDS for k in KERNELS]


def per_call_us(fn) -> float:
    """Median over BATCHES batches of the per-call time, in microseconds."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    reps = max(1, int(BATCH_S / max(once, 1e-7)))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(samples)


def kernel_table(seed: int) -> dict:
    """Per-call medians in microseconds for every grid and kernel."""
    from relaxlab import integrators, models, spectral_core

    rng = np.random.default_rng(seed)
    out = {}
    for N, L in GRIDS:
        grid = spectral_core.Grid(1, N, L)
        x = grid.coords()[0]
        modes = rng.integers(1, 16, size=4)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
        wave = sum(np.cos(grid.kappa_min * m * x + ph) for m, ph in zip(modes, phases))
        u = spectral_core.SpectralField.from_physical(grid, 0.05 * wave)
        v = spectral_core.SpectralField.from_physical(grid, 0.01 * wave)
        flux = models.make_flux("burgers1d")
        model = models.JinXinModel(flux, (1.0,), 0.1)
        state = models.JinXinState(u, [v])
        dt = 0.45 * integrators.jinxin_dt_bound(model, grid)
        calls = {
            "flux_fields": lambda: models.flux_fields(flux, u),
            "ssp2_step": lambda: integrators.step_jinxin(model, state, dt, "imex_ssp2"),
            "block_norms_p2": lambda: spectral_core.block_lp_norms(u, 2),
            "block_norms_p4": lambda: spectral_core.block_lp_norms(u, 4),
        }
        for name in KERNELS:
            out[f"kernel.n{N}.{name}.us"] = per_call_us(calls[name])
    return out

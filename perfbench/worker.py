"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py --root . --config cfg.json --out dir --result res.json \
        --mode {setup,run,trace,kernels} [--seed N]

Every mode imports relaxlab from <root>/src and validates the config with
relaxlab.cli.parse_config_dict, timing both (the set-up a CLI run pays).
"run" then calls relaxlab.cli.dispatch once with jobs=1; "trace" does the
same with the tracer installed; "kernels" times the 1D kernel table. The
sample is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _tree_bytes(rundir: str) -> dict:
    """Size in bytes of every file under rundir, by relative path."""
    sizes = {}
    for base, _, files in os.walk(rundir):
        for name in files:
            path = os.path.join(base, name)
            sizes[os.path.relpath(path, rundir)] = os.path.getsize(path)
    return sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "kernels"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    with open(args.config) as fh:
        tree = json.load(fh)

    t0 = time.perf_counter()
    import relaxlab.cli as cli
    t1 = time.perf_counter()
    cfg, cfg_hash = cli.parse_config_dict(tree)
    t2 = time.perf_counter()

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: relaxlab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    import numpy as np

    pocketfft = [m for m in ("_pocketfft_umath", "_pocketfft") if hasattr(np.fft, m)]
    res = {"import_s": t1 - t0, "parse_s": t2 - t1, "setup_s": t2 - t0, "numpy": np.__version__,
           "fft_backend": f"{np.fft.fftn.__module__}.fftn, numpy.fft."
                          f"{pocketfft[0] if pocketfft else '(no pocketfft module)'}"}

    if args.mode in ("run", "trace"):
        dispatch = cli.dispatch
        tracer = None
        if args.mode == "trace":
            from tracer import ROOT_SPAN, Tracer
            tracer = Tracer()
            tracer.install()
            dispatch = tracer.wrap(ROOT_SPAN, cli.dispatch)
        t3 = time.perf_counter()
        rc = dispatch(cfg, cfg_hash, out_dir=args.out, jobs=1)
        wall = time.perf_counter() - t3
        rundir = os.path.join(args.out, cfg_hash)
        res.update(rc=rc, wall_s=wall, rundir=rundir, files=_tree_bytes(rundir),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            res["layers"] = tracer.layer_metrics(wall)
            res["spans"] = tracer.span_table()
            res["absent"] = tracer.absent
    elif args.mode == "kernels":
        from kernels import kernel_table
        res["kernels"] = kernel_table(args.seed)

    with open(args.result, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks samples against.

Usage: python3 perfbench/record_reference.py SEED [SEED ...]

For every workload and seed this runs each input case once at full size,
checks the output against the generating truth, and writes its summary to
perfbench/reference/<workload>-seed<SEED>.json.gz.  Seed 0 is the default;
record it first, because the filter-sweep check of every other seed reads
its drive-independent columns.  Re-record only when a workload's
definition changes, never to make a failing check pass.
"""

from __future__ import annotations

import gzip
import json
import math
import sys

import run as bench
import workloads as wl


def _round(x):
    """12 significant digits: far inside every tolerance, a third of the size."""
    if isinstance(x, float):
        return float(f"{x:.12g}") if math.isfinite(x) else x
    if isinstance(x, list):
        return [_round(v) for v in x]
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    return x


def record(name: str, seed: int) -> None:
    work = bench.BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    run = bench.Run(wl.WORKLOADS[name], "full", seed, work)
    run.refs = {}
    if seed == 0:
        run.base_ref = None
    cases = {}
    for k, case in enumerate(run.cases):
        sample = run.sample(k, traced=False)
        if sample["problems"]:
            raise SystemExit(f"{name} seed {seed} case {case.seed}: {sample['problems']}")
        cases[str(case.seed)] = _round(run.refs[case.seed])
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    path = bench.REFERENCE_DIR / f"{name}-seed{seed}.json.gz"
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "size": "full",
                             "cases": cases}, sort_keys=True).encode())
    print(f"wrote {path.relative_to(bench.ROOT)}")


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for seed in (int(s) for s in argv):
        for name in wl.WORKLOADS:
            record(name, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

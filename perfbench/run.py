#!/usr/bin/env python3
"""Benchmark of the fluxline CLI: end-to-end timings and per-layer traces.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  NAME is one of fit-temp, generate,
filter-sweep, fit-reset (see BENCHMARK.json for why each was chosen).

The seed makes the inputs (with ``fluxline generate``, cached under
.bench_build/perfbench/inputs by generator config and seed).  Then, one at
a time from this single process (a closed loop with one client), each
sample starts a fresh interpreter (perfbench/worker.py) that imports
fluxline.cli and calls ``cli.main(argv)``, as a user's shell would.  BLAS
runs on one thread.  Counted from the first import-only setup probe,
samples repeat until the next one would end after S seconds (but at
least a minimum count of them).  Every sample's output is checked
against the recorded reference for the seed (perfbench/reference) or,
for a seed without one, against the generating truth and then against
the run's first output.  A sample fails when the CLI exits non-zero or
its check fails.

--trace 0 prints the end-to-end metrics: setup_s (process start until
fluxline.cli is imported), run_rel (time in cli.main as a multiple of
ref_s, the time of ``yardstick``, a fixed computation that this process
times on the samples' CPU just before and just after each sample, so
that the host's changing speed cancels), items_per_rel (units of work
over run_rel) and peak_rss_mb.  The measured run_s and ref_s are printed
and kept in the report for every sample.  A workload with several input
cases reports the mean over cases of each case's median.

--trace 1 alternates untraced and traced samples of the first case and
prints the per-layer metrics from the traced ones (perfbench/tracer.py),
with trace.overhead_s, the traced minus the untraced median run_s.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; failed/attempted is
the failed fraction.  A full report, and the spans of the last traced
sample, go to .bench_build/perfbench/reports.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE_DIR = HERE / "reference"

BLAS_THREADS = "1"
MIN_SAMPLES = 3          # untraced samples per run, at least one per case
MIN_TRACE_PAIRS = 2      # so that traced counts can be seen to repeat
SAMPLE_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0     # no sample starts if it could end after this
CACHE_LIMIT_BYTES = 400 << 20
SETUP_PROBES = 2         # import-only processes; the first warms caches

END_TO_END = {"setup_s": "s", "run_rel": "x", "items_per_rel": "1/x", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run: (name, unit, kind, key).  "time" is
# the inclusive time of a wrapped function, "calls" its call count, "count"
# a counter from tracer.py, "self" a layer's self time.
PER_LAYER = [
    ("io.read_shots_csv_s", "s", "time", "io.read_shots_csv"),
    ("io.rows_read", "count", "count", "io.rows_read"),
    ("io.bytes_read", "B", "count", "io.bytes_read"),
    ("io.write_shots_csv_s", "s", "time", "io.write_shots_csv"),
    ("io.bytes_written", "B", "count", "io.bytes_written"),
    ("io.write_flux_sweep_csv_s", "s", "time", "io.write_flux_sweep_csv"),
    ("io.read_reset_csv_s", "s", "time", "io.read_reset_csv"),
    ("io.dump_json_s", "s", "time", "io.dump_json"),
    ("classify.classify_batch_s", "s", "time", "classify.classify_batch"),
    ("classify.shots_classified", "count", "count", "classify.shots_classified"),
    ("classify.exclude_overflow_and_renormalize_s", "s", "time",
     "classify.exclude_overflow_and_renormalize"),
    ("thermometry.fit_temperature_s", "s", "time", "thermometry.fit_temperature"),
    ("thermometry.fit_temperature_calls", "count", "calls", "thermometry.fit_temperature"),
    ("thermometry.window_statistics_s", "s", "time", "thermometry.window_statistics"),
    ("thermometry.windows_at_bound", "count", "count", "thermometry.windows_at_bound"),
    ("network.flux_sweep_s", "s", "time", "network.flux_sweep"),
    ("network.filter_frequency_exact_s", "s", "time", "network.filter_frequency_exact"),
    ("network.filter_frequency_exact_calls", "count", "calls", "network.filter_frequency_exact"),
    ("network.qubit_admittance_calls", "count", "calls", "network.qubit_admittance"),
    ("network.error_rows", "count", "count", "network.error_rows"),
    ("network.no_root_found", "count", "count", "network.no_root_found"),
    ("network.rejected_as_poles", "count", "count", "network.rejected_as_poles"),
    ("dynamics.fit_decay_rates_s", "s", "time", "dynamics.fit_decay_rates"),
    ("dynamics.populations_closed_form_s", "s", "time", "dynamics.populations_closed_form"),
    ("dynamics.populations_closed_form_calls", "count", "calls",
     "dynamics.populations_closed_form"),
    ("dynamics.time_points_evaluated", "count", "count", "dynamics.time_points_evaluated"),
    ("synth.gen_window_series_s", "s", "time", "synth.gen_window_series"),
    ("synth.gen_thermal_shots_s", "s", "time", "synth.gen_thermal_shots"),
    ("synth.shots_generated", "count", "count", "synth.shots_generated"),
] + [(f"{layer}.self_s", "s", "self", layer)
     for layer in ("io", "classify", "thermometry", "network", "dynamics", "synth", "cli")] + [
    ("trace.coverage", "fraction", "coverage", None),
    ("trace.spans", "count", "spans", None),
    ("trace.overhead_s", "s", "overhead", None),
]


def yardstick() -> float:
    """Wall time of a fixed mix of interpreter, allocation and numpy work.

    On a shared host the speed of a core changes by up to 2x for seconds
    to minutes at a time, and a sample's run_s changes with it.  This
    computation shares no code with fluxline, so a change to the program
    leaves it alone while a slower host slows it too; it runs in this
    process, on the same CPU, just before and just after every sample, and
    run_s over its time follows the program rather than the host.
    """
    t0 = time.perf_counter()
    x = np.random.default_rng(7).standard_normal(1 << 20)
    text = ",".join(map(repr, x[:80000].tolist()))
    y = np.sort(np.exp(np.sin(x)))
    total = sum(i * i % 7 for i in range(400000))
    if not (text and y.size == x.size and total > 0):
        raise AssertionError("yardstick computed nothing")
    return time.perf_counter() - t0


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(spec: dict, work: Path) -> dict:
    """Start one worker process, wait for it, and return its result."""
    spec_path, result_path = work / "spec.json", work / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(dict(spec, result=str(result_path))))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=ROOT, env=worker_env(), capture_output=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "error": f"no result within {SAMPLE_TIMEOUT_S} s",
                "wall_s": time.monotonic() - t_spawn}
    wall_s = time.monotonic() - t_spawn
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return {"rc": proc.returncode, "error": " ".join(tail), "wall_s": wall_s}
    res = json.loads(result_path.read_text())
    res["setup_s"] = res.pop("t_ready") - t_spawn
    res["wall_s"] = wall_s
    return res


# --- inputs -------------------------------------------------------------------

def _cache_key(gen_cfg: dict, seed: int) -> str:
    blob = json.dumps({"config": gen_cfg, "seed": seed}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def prepare_inputs(cases, work: Path) -> list[dict]:
    """Paths of every case's input files, generating the missing ones."""
    cache = BUILD / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    files, todo = [], {}
    for case in cases:
        paths = {}
        for name, gen_cfg in case.inputs.items():
            key = _cache_key(gen_cfg, case.seed)
            paths[name] = cache / key / name
            if not paths[name].exists():
                todo[key] = (name, gen_cfg, case.seed)
        files.append(paths)
    if todo:
        staging = cache / "staging"
        shutil.rmtree(staging, ignore_errors=True)
        argvs = []
        for key, (name, gen_cfg, seed) in todo.items():
            (staging / key).mkdir(parents=True)
            cfg = staging / key / "generator.json"
            cfg.write_text(json.dumps(gen_cfg))
            argvs.append(["generate", "--config", str(cfg),
                          "--out", str(staging / key / name), "--seed", str(seed)])
        res = run_worker({"prepare": argvs}, work)
        if res.get("rc", 0) != 0:
            raise RuntimeError(f"input generation failed: {res.get('error')}")
        for key in todo:
            shutil.rmtree(cache / key, ignore_errors=True)
            (staging / key).rename(cache / key)
        staging.rmdir()
    in_use = {p.parent for paths in files for p in paths.values()}
    for d in in_use:
        os.utime(d)
    _evict(cache, in_use)
    return files


def _evict(cache: Path, keep: set) -> None:
    """Drop the least recently used inputs beyond CACHE_LIMIT_BYTES."""
    entries = sorted((d for d in cache.iterdir() if d.is_dir()),
                     key=lambda d: d.stat().st_mtime, reverse=True)
    total = 0
    for d in entries:
        total += sum(f.stat().st_size for f in d.iterdir())
        if total > CACHE_LIMIT_BYTES and d not in keep:
            shutil.rmtree(d)


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}-seed{seed}.json.gz"
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return {int(k): v for k, v in json.load(fh)["cases"].items()}


# --- environment --------------------------------------------------------------

def _git(*args) -> str | None:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """Machine, toolchain, revision and source size the numbers belong to."""
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if revision else None
    dirty = None if status is None else bool(status)
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "git_revision": revision, "git_dirty": dirty, "src_lines": src_lines}


# --- measurement --------------------------------------------------------------

class Run:
    """The samples of one benchmark run and their checks."""

    def __init__(self, workload, size_name: str, seed: int, work: Path):
        self.wl = workload
        self.size = wl.SIZES[size_name]
        self.cases = workload.cases(seed, self.size)
        self.work = work
        recorded = load_reference(workload.name, seed) if size_name == "full" else None
        self.refs = dict(recorded or {})
        self.recorded = recorded is not None
        base = load_reference(workload.name, 0) if size_name == "full" else None
        self.base_ref = None if base is None else base[workload.cases(0, self.size)[0].seed]
        files = prepare_inputs(self.cases, work)
        self.calls = [case.build(f, work) for case, f in zip(self.cases, files)]
        self.samples: list[dict] = []
        self.last_trace = None

    def sample(self, k: int, traced: bool) -> dict:
        argv, out = self.calls[k]
        out.unlink(missing_ok=True)
        res = run_worker({"argv": argv, "trace": traced}, self.work)
        res.update(case=k, traced=traced)
        res["problems"] = self._check(k, res, out)
        if "trace" in res:
            self.last_trace = res["trace"]
            res["trace"] = {key: v for key, v in res["trace"].items() if key != "spans"}
        self.samples.append(res)
        return res

    def _check(self, k: int, res: dict, out: Path) -> list[str]:
        if res.get("rc") != 0:
            return [f"exit {res.get('rc')}: {res.get('error', '')}"]
        if not out.exists():
            return ["no output file"]
        try:
            got = self.wl.summarize(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        res["sha256"] = wl.sha256_file(out)
        problems = self.wl.plausible(got, self.size, self.base_ref)
        seed = self.cases[k].seed
        if seed in self.refs:
            problems += self.wl.compare(got, self.refs[seed])
        elif not problems:
            self.refs[seed] = got  # later samples of this case must agree
        if res["traced"]:
            problems += self._check_trace(k, res)
        return problems

    def _check_trace(self, k: int, res: dict) -> list[str]:
        problems = []
        plain = [s for s in self.samples if s["case"] == k and not s["traced"] and "sha256" in s]
        if plain and plain[-1]["sha256"] != res["sha256"]:
            problems.append("traced output differs from untraced output")
        first = next((s for s in self.samples if s["traced"] and "trace" in s), None)
        if first is not None:
            for part in ("calls", "counts"):
                if first["trace"][part] != res["trace"][part]:
                    problems.append(f"traced {part} differ between runs of one seed")
        return problems

    def measure(self, seconds: float, trace: bool, t_start: float, t0: float) -> None:
        """Sample from t0 on until the next sample would end after t0 + seconds."""
        if trace:
            plan = itertools.cycle([(0, False), (0, True)])
            minimum = 2 * MIN_TRACE_PAIRS
        else:
            plan = itertools.cycle([(k, False) for k in range(len(self.cases))])
            minimum = max(MIN_SAMPLES, len(self.cases))
        steps = []  # wall time of each sample with its check
        yard = [yardstick()]
        for k, traced in plan:
            n = len(self.samples)
            now = time.monotonic()
            if n >= minimum and now - t0 + statistics.median(steps) > seconds:
                break
            if n and now - t_start + 2.0 * max(steps) > RUN_BUDGET_S:
                break
            res = self.sample(k, traced)
            yard.append(yardstick())
            res["ref_s"] = (yard[-2] + yard[-1]) / 2
            steps.append(time.monotonic() - now)


def per_case(samples, key: str) -> float:
    """Mean over cases of the median of each case's samples."""
    by_case: dict[int, list[float]] = {}
    for s in samples:
        by_case.setdefault(s["case"], []).append(s[key])
    return statistics.fmean(statistics.median(v) for v in by_case.values())


def end_to_end(run: Run, setup: list[float]) -> dict:
    timed = [s for s in run.samples if not s["traced"] and "run_s" in s]
    good = [s for s in timed if not s["problems"]] or timed
    items = run.wl.items(run.size)
    for s in good:
        s["run_rel"] = s["run_s"] / s["ref_s"]
        s["items_per_rel"] = items / s["run_rel"]
    return {"setup_s": statistics.median(setup),
            "run_rel": per_case(good, "run_rel"),
            "items_per_rel": per_case(good, "items_per_rel"),
            "peak_rss_mb": per_case(good, "peak_rss_mb")}


def per_layer(run: Run) -> dict:
    traced = [s for s in run.samples if s["traced"] and "trace" in s]
    plain = [s for s in run.samples if not s["traced"] and "run_s" in s]
    tr = [s["trace"] for s in traced]
    out = {}
    for name, _unit, kind, key in PER_LAYER:
        if kind == "time":
            out[name] = statistics.median(t["inclusive_s"].get(key, 0.0) for t in tr)
        elif kind == "self":
            out[name] = statistics.median(t["self_s"].get(key, 0.0) for t in tr)
        elif kind == "calls":
            out[name] = tr[0]["calls"].get(key, 0)
        elif kind == "count":
            out[name] = tr[0]["counts"].get(key, 0)
        elif kind == "coverage":
            out[name] = statistics.median(t["coverage"] for t in tr)
        elif kind == "spans":
            out[name] = tr[0]["n_spans"]
        else:
            out[name] = (statistics.median(s["run_s"] for s in traced)
                         - statistics.median(s["run_s"] for s in plain))
    return out


def _describe(values) -> str:
    v = sorted(values)
    return f"median {statistics.median(v):.6g} min {v[0]:.6g} max {v[-1]:.6g} n={len(v)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fluxline" / "cli.py").is_file():
        print(f"error: no fluxline sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    size_name = "tiny" if args.tiny else "full"
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[args.workload]
    try:
        run = Run(workload, size_name, args.seed, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment()
    # Samples and yardstick share one CPU, so that the yardstick sees the
    # speed the samples see.
    env["sample_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["sample_cpu"]})

    t_measure = time.monotonic()
    probes = [run_worker({"argv": None}, work) for _ in range(SETUP_PROBES)]
    run.measure(args.seconds, bool(args.trace), t_start, t_measure)

    samples = run.samples
    setup = [p["setup_s"] for p in probes[1:] if "setup_s" in p]
    setup += [s["setup_s"] for s in samples if "setup_s" in s]
    if not setup or not any(not s["traced"] and "run_s" in s for s in samples):
        print("error: no sample produced a measurement", file=sys.stderr)
        for s in samples[:3]:
            print(f"  {s.get('error')}", file=sys.stderr)
        return 1
    failed = sum(1 for s in samples if s["problems"])
    if args.trace:
        if not any(s["traced"] and "trace" in s for s in samples):
            print("error: no traced sample produced a trace", file=sys.stderr)
            return 1
        values, units = per_layer(run), {n: u for n, u, _, _ in PER_LAYER}
    else:
        values, units = end_to_end(run, setup), END_TO_END

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "size": size_name,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "reference": "recorded" if run.recorded else "first sample",
              "items": workload.items(run.size), "unit_of_work": workload.unit_of_work,
              "cases": [c.seed for c in run.cases], "setup_s": setup,
              "samples": samples, "metrics": values}
    (reports / f"{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace} ({size_name}): "
          f"{len(samples)} samples over {len(run.cases)} case(s), one client, closed loop")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"reference: {report['reference']}; failed {failed}/{len(samples)} "
          f"(failed_frac {failed / len(samples):.3g})")
    for s in samples:
        if s["problems"]:
            print(f"  case {s['case']} traced={s['traced']}: {'; '.join(s['problems'])}")
    print(f"  setup_s {_describe(setup)}")
    plain = [s for s in samples if not s["traced"] and "run_s" in s]
    print(f"  run_s (untraced samples) {_describe([s['run_s'] for s in plain])}")
    print(f"  ref_s (yardstick, same samples) {_describe([s['ref_s'] for s in plain])}")
    if args.trace:
        spans_path = reports / f"{tag}-spans.json"
        spans_path.write_text(json.dumps(run.last_trace))
        last = run.last_trace
        print(f"  spans: {last['n_spans']} in {spans_path.relative_to(ROOT)}, "
              f"covering {last['coverage']:.1%} of run_s")
        print("  self time by layer: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in sorted(last["self_s"].items(), key=lambda kv: -kv[1])))
        print(f"  wrapped: {len(last['covered']['wrapped'])} functions; aliases: "
              f"{', '.join(last['covered']['aliases']) or 'none'}; "
              f"not wrapped: {', '.join(last['covered']['not_wrapped'])}")
    print(f"report: {(reports / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

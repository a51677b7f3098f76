"""One benchmark sample: a fresh interpreter that imports fluxline.cli and
makes one CLI call, as a user's shell would.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``argv`` (the CLI arguments, or null to stop after the import),
``trace`` (wrap the layers with perfbench/tracer.py) and ``result`` (where
to write the result JSON).  With ``prepare`` instead of ``argv`` it runs a
list of CLI calls untimed, to make benchmark inputs.

The result holds ``t_ready`` (time.monotonic() when the import finished;
on Linux this clock is shared by all processes, so the parent subtracts
its own spawn time from it to get setup_s), ``run_s`` (wall time of
cli.main), ``rc``, ``peak_rss_mb`` and, when traced, the trace summary.
"""

import time

import fluxline.cli as cli

T_READY = time.monotonic()

import json  # noqa: E402  (imported after the setup timestamp on purpose)
import resource  # noqa: E402
import sys  # noqa: E402


def _call(argv) -> tuple[int, str]:
    try:
        return cli.main(argv), ""
    except SystemExit as exc:  # argparse rejects the arguments
        return (exc.code if isinstance(exc.code, int) else 1), "SystemExit"
    except Exception as exc:  # a traceback from the tool is a failed run
        return 1, f"{type(exc).__name__}: {exc}"


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    if "prepare" in spec:
        for argv in spec["prepare"]:
            rc, err = _call(argv)
            if rc != 0:
                print(f"error: {argv[0]} exited {rc} {err}", file=sys.stderr)
                return 1
        return 0

    result = {"t_ready": T_READY}
    if spec.get("argv") is not None:
        tracer = covered = None
        if spec.get("trace"):
            import tracer as tr
            tracer = tr.Tracer()
            covered = tr.install(tracer)
        t0 = time.perf_counter()
        rc, err = _call(spec["argv"])
        run_s = time.perf_counter() - t0
        result.update(rc=rc, error=err, run_s=run_s)
        if tracer is not None:
            result["trace"] = dict(tracer.summary(t0, run_s), covered=covered)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

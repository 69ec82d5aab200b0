"""One cold CLI process: a fresh interpreter that imports conclab, builds
the CLI parser, then runs a job list through ``conclab.cli.main``.

    python3 perfbench/child.py SRC_DIR --setup-only
    python3 perfbench/child.py SRC_DIR JOBS_JSON TRACE

Protocol on stdout, one JSON object per line: ``{"ready": t}`` once set
up (``t`` is ``time.monotonic()``, which the parent compares with the
moment it started this process); ``{"ref": [s, ...]}``, a bracket of
speed-kernel times (``calib.py``); one ``{"job": ...}`` line per job
with its wall time (kernel runs taken out), the kernel times sampled
inside it and in the bracket after it, its exit code and captured
stdout; and a final ``{"end": ...}`` line
with peak RSS and, when traced, the spans, counters and cache
statistics.
"""

import time  # first: set-up time starts as early as possible

import contextlib
import io
import json
import os
import resource
import sys
import traceback


def _emit(out, obj) -> None:
    out.write(json.dumps(obj) + "\n")
    out.flush()


def main() -> int:
    src = sys.argv[1]
    sys.path.insert(0, os.path.abspath(src))
    from conclab import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        print(f"conclab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    build = getattr(cli, "_build_parser", None)
    if build is not None:
        build()
    out = sys.stdout
    _emit(out, {"ready": time.monotonic()})
    import calib
    _emit(out, {"ref": calib.bracket()})
    if sys.argv[2] == "--setup-only":
        return 0

    with open(sys.argv[2]) as fh:
        jobs = json.load(fh)
    recorder = None
    if sys.argv[3] == "1":
        import hooks
        recorder = hooks.Recorder()
        recorder.install()

    sampler = calib.Sampler()
    clock = time.perf_counter
    for i, argv in enumerate(jobs):
        if recorder is not None:
            recorder.job = i
        buf, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with sampler, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:           # argparse rejects the command line
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:                 # a crash fails the job, not the list
            rc = "exception"
            err.write(traceback.format_exc())
        dt = clock() - t0 - sum(sampler.samples)
        _emit(out, {"job": i, "t": dt, "inside": sampler.samples, "post": calib.bracket(), "rc": rc,
                    "out": buf.getvalue(), "err": err.getvalue()[-2000:]})

    end = {"end": True, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        end.update(spans=recorder.spans, counts=recorder.counts,
                   caches=recorder.cache_infos(), missing=recorder.missing)
    _emit(out, end)
    return 0


if __name__ == "__main__":
    sys.exit(main())

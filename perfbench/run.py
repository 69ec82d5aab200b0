"""conclab benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload top-torus --seed 1 --seconds 25 --trace 0

One caller sends one job at a time.  Each job list runs in a fresh
Python interpreter (``child.py``), so caches start cold as they do for a
CLI user; job lists repeat until ``--seconds`` is used up and the
figures are medians over them.  Every output is checked (``oracles.py``
and the recorded stdout digests); any wrong output makes the exit code 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` job lists alternate between untraced and traced, and
it holds the per-layer metrics, each stage's self time taken from spans
recorded around its functions (``hooks.py``).

``--record-digests SEED...`` runs each workload once per seed and
stores the digest of every job's stdout in ``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import hooks
import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = 5          # extra set-up-only interpreters per run
HARD_LIMIT_S = 150        # a run never goes past this, whatever --seconds says

END_TO_END = {"setup_s": "s", "run_s": "s", "job_s_p50": "s", "job_s_p90": "s",
              "peak_rss_mb": "MB"}

LAYER_TIMES = list(hooks.SPAN_HOOKS)
LAYER_COUNTS = {"seifert.cyclotomic_trials": "cyclotomic_trials",
                "poly.sturm_chains": "sturm_chains",
                "seifert.gap_signatures": "gap_signatures",
                "intervals.invert_calls": "invert_calls",
                "polyalg.homology_order_calls": "homology_order_calls",
                "abgroup.closures": "closures"}
# the function each counter depends on, so a missing hook nulls it
COUNT_SOURCES = dict(hooks.COUNT_HOOKS, candidates="abgroup:square_root_subgroups",
                     cyclotomic_factors="_poly:divides")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {f"{layer}_s" if layer != "obstruct" else "obstruct.self_s": "s"
             for layer in LAYER_TIMES}
    names.update({name: "count" for name in LAYER_COUNTS})
    names.update({"seifert.cyclotomic_yield": "ratio", "seifert.circle_cache_hit_ratio": "ratio",
                  "intervals.max_bits": "bits", "dinv.lens_cache_entries": "count",
                  "dinv.lens_cache_hit_ratio": "ratio", "abgroup.closure_yield": "ratio",
                  "trace.overhead_s": "s"})
    return names


# ---------------------------------------------------------------------------
# one run


class ChildResult:
    def __init__(self):
        self.setup_raw_s: float | None = None
        self.setup_s: float | None = None     # at nominal speed
        self.ref0: list[float] = []            # speed samples before the first job
        self.jobs: dict[int, dict] = {}
        self.end: dict | None = None
        self.error = ""

    def job_times(self, n: int) -> tuple[list[float], list[float]]:
        """Per-job times at nominal speed, and raw wall times."""
        jobs = [self.jobs[i] for i in range(n)]
        before = [self.ref0] + [j["post"] for j in jobs]
        raw = [j["t"] for j in jobs]
        return [j["t"] * calib.speed(before[i] + j["inside"] + j["post"])
                for i, j in enumerate(jobs)], raw


def run_child(args: list[str], timeout: float) -> ChildResult:
    """Start a fresh interpreter, wait for it, and parse its protocol
    lines.  A child past ``timeout`` is killed; the jobs it did not
    report count as failed.  Set-up time is scaled by the speed sampled
    here just before the start and by the child just after set-up."""
    res = ChildResult()
    ref_before = calib.bracket()
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(SRC)] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        res.error = f"killed after {timeout:.0f} s"
    if proc.returncode != 0 and not res.error:
        res.error = f"child exited {proc.returncode}: {err.strip()[-500:]}"
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "ready" in msg:
            res.setup_raw_s = msg["ready"] - t_spawn
        elif "ref" in msg and "job" not in msg:
            res.ref0 = msg["ref"]
            res.setup_s = res.setup_raw_s * calib.speed(ref_before + msg["ref"])
        elif "job" in msg:
            res.jobs[msg["job"]] = msg
        elif "end" in msg:
            res.end = msg
    return res


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


class Checker:
    """Checks each job's output once with the oracles, then requires
    every later output of that job to be byte-identical, and compares
    with the recorded digest when there is one."""

    def __init__(self, jobs: list[workloads.Job], recorded: dict[str, str]):
        self.jobs = jobs
        self.recorded = recorded
        self.first: dict[int, str] = {}
        self.errors: list[str] = []
        self.skipped = 0
        self.digests_matched = 0

    def check(self, i: int, msg: dict | None) -> bool:
        if msg is None:
            return self._fail(i, "no result (time limit or crash)")
        if msg["rc"] != 0:
            return self._fail(i, f"exit {msg['rc']}: {msg['err'].strip()[-300:]}")
        d = digest(msg["out"])
        if i in self.first:
            return d == self.first[i] or self._fail(i, "stdout differs between job lists")
        self.first[i] = d
        job = self.jobs[i]
        want = self.recorded.get(job.key)
        if want is not None:
            if d != want:
                return self._fail(i, f"stdout digest {d} differs from the recorded {want}")
            self.digests_matched += 1
        res = oracles.check_job(job.check, msg["out"])
        self.skipped += res.skipped
        if res.errors:
            return self._fail(i, "; ".join(res.errors[:3]))
        return True

    def _fail(self, i: int, why: str) -> bool:
        self.errors.append(f"job {i} ({' '.join(self.jobs[i].argv[:1])}): {why}")
        return False


def load_digests(workload: str) -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        recorded: dict[str, str] | None = None) -> dict:
    """Measure one workload; returns the report (see ``main``).  Outputs
    are compared with ``recorded`` digests (default: digests.json)."""
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    jobs = workloads.make_jobs(workload, seed, size)
    checker = Checker(jobs, load_digests(workload) if recorded is None else recorded)
    rundir = WORK / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        for job in jobs:
            for name, text in job.files.items():
                (rundir / name).write_text(text)
        rel = rundir.relative_to(ROOT)
        jobs_file = rundir / "jobs.json"
        jobs_file.write_text(json.dumps([job.concrete_argv(str(rel)) for job in jobs]))

        setups, raw_setups = [], []
        for _ in range(SETUP_PROBES):
            probe = run_child(["--setup-only"], hard_deadline - time.monotonic())
            if probe.setup_s is None:
                raise SystemExit(f"set-up failed: {probe.error}")
            setups.append(probe.setup_s)
            raw_setups.append(probe.setup_raw_s)

        deadline = time.monotonic() + seconds
        lists = {False: [], True: []}       # traced? -> child results
        attempted = failed = 0
        walls = []
        while True:
            traced = trace and len(lists[False]) > len(lists[True])
            t0 = time.monotonic()
            child = run_child([str(jobs_file), "1" if traced else "0"],
                              hard_deadline - t0)
            walls.append(time.monotonic() - t0)
            if child.setup_s is not None:
                setups.append(child.setup_s)
                raw_setups.append(child.setup_raw_s)
            for i in range(len(jobs)):
                attempted += 1
                failed += not checker.check(i, child.jobs.get(i))
            if child.end is None:
                checker.errors.append(f"job list incomplete: {child.error}")
                break
            lists[traced].append(child)
            enough = len(lists[False]) >= 1 and (not trace or len(lists[True]) >= 1)
            if enough and time.monotonic() + statistics.median(walls) > deadline:
                break
            if time.monotonic() > hard_deadline - 2 * max(walls):
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    plain = lists[False]
    report = {"workload": workload, "seed": seed, "trace": trace,
              "attempted": attempted, "failed": failed, "errors": checker.errors,
              "skipped_points": checker.skipped, "digests_matched": checker.digests_matched,
              "jobs_per_list": len(jobs), "lists": len(plain), "traced_lists": len(lists[True]),
              "setup_samples": len(setups), "elapsed_s": time.monotonic() - started,
              "keys": [job.key for job in jobs],
              "first_digests": [checker.first.get(i) for i in range(len(jobs))]}
    if plain:
        n = len(jobs)
        times = [c.job_times(n) for c in plain]
        job_times = [t for norm, _ in times for t in norm]
        raw_times = [t for _, raw in times for t in raw]
        report["job_samples"] = len(job_times)
        report["e2e"] = {"setup_s": statistics.median(setups),
                         "run_s": statistics.median(sum(norm) for norm, _ in times),
                         "job_s_p50": statistics.median(job_times),
                         "job_s_p90": p90(job_times),
                         "peak_rss_mb": statistics.median(c.end["rss_mb"] for c in plain)}
        report["raw"] = {"setup_s": statistics.median(raw_setups),
                         "run_s": statistics.median(sum(raw) for _, raw in times),
                         "job_s_p50": statistics.median(raw_times),
                         "job_s_p90": p90(raw_times)}
        report["outputs"] = [plain[0].jobs[i]["out"] for i in range(n)]
        report["numeric_jobs"] = sum('"exactness":"numeric' in o for o in report["outputs"])
    if lists[True]:
        report["layers"], report["missing_hooks"] = layer_metrics(lists[True], plain)
        report["trace_spans"] = lists[True][-1].end["spans"]
    return report


def layer_metrics(traced: list[ChildResult], plain: list[ChildResult]):
    """Per-layer metrics from the traced job lists: medians of per-list
    self times and counts; ratios over the summed counts."""
    missing = sorted({m for c in traced for m in c.end["missing"]})
    gone = hooks.missing_layers(missing)
    out: dict[str, float | None] = {}
    per_list = [hooks.layer_self_times(c.end["spans"]) for c in traced]
    for layer in LAYER_TIMES:
        name = "obstruct.self_s" if layer == "obstruct" else f"{layer}_s"
        out[name] = None if layer in gone else statistics.median(t[layer] for t in per_list)

    def counts(key):
        return [c.end["counts"][key] for c in traced]

    def ok(*keys):
        return not any(COUNT_SOURCES.get(k) in missing for k in keys)

    for name, key in LAYER_COUNTS.items():
        out[name] = statistics.median(counts(key)) if ok(key) else None
    out["seifert.cyclotomic_yield"] = (ratio(sum(counts("cyclotomic_factors")),
                                             sum(counts("cyclotomic_trials")))
                                       if ok("cyclotomic_trials") else None)
    out["abgroup.closure_yield"] = (ratio(sum(counts("candidates")), sum(counts("closures")))
                                    if ok("candidates", "closures") else None)
    out["intervals.max_bits"] = max(counts("max_bits"))
    for key, prefix in (("circle", "seifert.circle_cache"), ("lens", "dinv.lens_cache")):
        infos = [c.end["caches"][key] for c in traced]
        if any(info is None for info in infos):
            out[f"{prefix}_hit_ratio"] = None
            if key == "lens":
                out["dinv.lens_cache_entries"] = None
            continue
        hits = sum(i["hits"] for i in infos)
        out[f"{prefix}_hit_ratio"] = ratio(hits, hits + sum(i["misses"] for i in infos))
        if key == "lens":
            out["dinv.lens_cache_entries"] = statistics.median(i["size"] for i in infos)
    n = len(traced[0].jobs)

    def run_s(lists):
        return statistics.median(sum(c.job_times(n)[0]) for c in lists)
    out["trace.overhead_s"] = run_s(traced) - run_s(plain)
    return out, missing


# ---------------------------------------------------------------------------
# output


def print_report(rep: dict) -> None:
    mode = "traced" if rep["trace"] else "untraced"
    print(f"workload {rep['workload']}  seed {rep['seed']}  {mode}  "
          f"{rep['lists']} untraced + {rep['traced_lists']} traced job lists of "
          f"{rep['jobs_per_list']} jobs, {rep['setup_samples']} set-ups, "
          f"{rep['elapsed_s']:.1f} s")
    if "e2e" in rep:
        print("  (times in seconds at nominal host speed; raw wall time in brackets)")
        for name, unit in END_TO_END.items():
            raw = f"  [{rep['raw'][name]:.6f}]" if name in rep["raw"] else ""
            extra = f"  ({rep['job_samples']} samples)" if name.startswith("job_s") else ""
            print(f"  {name:<34} {rep['e2e'][name]:12.6f} {unit}{raw}{extra}")
    print(f"  {'fail_ratio':<34} {rep['failed']}/{rep['attempted']}")
    print(f"  numeric (interval-position) jobs per list: {rep.get('numeric_jobs', 0)}")
    print(f"  oracle: {rep['digests_matched']} recorded digests matched, "
          f"{rep['skipped_points']} sample points skipped (margin {oracles.MARGIN:g})")
    for err in rep["errors"][:20]:
        print(f"  WRONG: {err}")
    if "layers" in rep:
        units = per_layer_names()
        for name, value in rep["layers"].items():
            shown = "null" if value is None else f"{value:.6f}"
            print(f"  {name:<34} {shown:>12} {units[name]}")
        for hook in rep["missing_hooks"]:
            print(f"  missing hook: {hook} (its metrics are null)")
        times = {k: v for k, v in rep["layers"].items()
                 if units[k] == "s" and k != "trace.overhead_s" and v is not None}
        if times:
            hot = max(times, key=times.get)
            print(f"  hot layer: {hot} ({times[hot]:.3f} s of self time per job list)")


def result_line(rep: dict) -> dict:
    if rep["trace"]:
        units = per_layer_names()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in rep.get("layers", {}).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in rep.get("e2e", {}).items()}
    return {"correct": not rep["errors"], "attempted": max(rep["attempted"], 1),
            "failed": rep["failed"], "metrics": metrics}


def write_trace(rep: dict) -> None:
    """Spans of the last traced job list, for reading where time went."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{rep['workload']}-seed{rep['seed']}.json"
    fields = ["layer", "start", "end", "parent", "job"]
    path.write_text(json.dumps({"fields": fields, "spans": rep["trace_spans"],
                                "missing_hooks": rep["missing_hooks"]}))
    print(f"  spans written to {path.relative_to(ROOT)}")


def record_digests(seeds: list[int]) -> int:
    table: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            rep = run(workload, seed, 0.0, False, recorded={})
            if rep["errors"]:
                print(f"{workload} seed {seed}: wrong output, not recorded", file=sys.stderr)
                for err in rep["errors"]:
                    print(f"  {err}", file=sys.stderr)
                return 1
            entry = table.setdefault(workload, {})
            entry.update(zip(rep["keys"], rep["first_digests"]))
            print(f"{workload} seed {seed}: {len(rep['keys'])} digests")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-digests", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args(argv)
    if not (SRC / "conclab" / "cli.py").is_file():
        print(f"no conclab sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args.record_digests)
    if args.workload is None:
        ap.error("--workload is required")
    rep = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_report(rep)
    if args.trace and "trace_spans" in rep:
        write_trace(rep)
    print(json.dumps(result_line(rep)))
    return 0 if not rep["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())

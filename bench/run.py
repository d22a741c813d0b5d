#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end metrics, a per-layer ladder.

    python3 bench/run.py --seed 1                  all workloads, end-to-end
    python3 bench/run.py --seed 1 --traced         the per-layer ladder instead
    python3 bench/run.py --seed 1 --quick          smoke sizes (not comparable)
    python3 bench/run.py --compare BASE.json       run, then compare to BASE
    python3 bench/run.py --compare BASE.json --result NEW.json   compare only

The driver's form runs one workload in this process and prints one JSON
object as the last line of stdout:

    python3 bench/run.py --workload ooc-mesh --seed 1 --seconds 10 --trace 0

See bench/README.md for the workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One thread per numeric library: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _pin_allocator() -> None:
    """Keep freed memory in the heap instead of unmapping it after every op.

    Each op allocates its output afresh (72 MB on ooc-graph); by default
    glibc maps and unmaps those arrays every time, and in this sandbox the
    ~23k page faults per op cost 0.05 s usually and 0.4 s now and then, a
    bimodal term that would swamp every bound.  The environment variables
    reach the server and shard-worker subprocesses; `mallopt` does the same
    for this process, which is already running."""
    settings = {"MALLOC_TRIM_THRESHOLD_": 2**31 - 1, "MALLOC_TOP_PAD_": 256 << 20,
                "MALLOC_MMAP_THRESHOLD_": 32 << 20}
    for key, value in settings.items():
        os.environ[key] = str(value)
    try:
        import ctypes

        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return  # not glibc: run with the default allocator
    for param, key in ((-1, "MALLOC_TRIM_THRESHOLD_"), (-2, "MALLOC_TOP_PAD_"),
                       (-3, "MALLOC_MMAP_THRESHOLD_")):
        mallopt(param, settings[key])


_pin_allocator()
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (OUT, ROOT, ResidueCheck, Spans, adopt_orphans,  # noqa: E402
                     fingerprint, git_sha, nproc, reap_descendants, summarize,
                     write_chrome_trace)

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no program to measure - {ROOT}/src/repro is missing")

# Everything the program caches lands under bench/out/, inside the checkout.
os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native")
os.environ["REPRO_CACHE_DIR"] = str(OUT)
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: end-to-end metrics every run prints and records, but that neither the
#: driver nor `--compare` gates: this host's speed moves by half for minutes at
#: a time, so seconds taken an hour apart differ by more than any allowed bound
#: while their ratios to the scipy anchor hold (bench/README.md, "What is not
#: gated").  The bounds are issue 12's and only word the `--compare` rows.
UNGATED = {
    "op_latency_s_p50": {"unit": "s", "better": "lower", "bound": 0.10},
    "op_latency_s_p90": {"unit": "s", "better": "lower", "bound": 0.20},
    "ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10},
}
#: the rows `--compare` prints without judging: two sets of runs of one commit,
#: taken hours apart, differ in seconds by more than any bound (`setup_s` by
#: 19-32 % with the anchor 12-41 % slower), and only the driver, which takes
#: both sides in one session, can hold `setup_s` to its bound
IN_SECONDS = {*UNGATED, "setup_s"}
#: a set of runs over which the scipy anchor's interquartile range exceeds
#: this share of its median was taken on a drifting host: the largest bound,
#: so the anchor itself would not pass as a metric
ANCHOR_DRIFT_MAX = 0.25
#: overhead ladder printed per workload: (rung, the rung it sits on)
RUNG_TABLE = [
    ("anchor.scipy_s", None),
    ("spgemm.twophase_s", "anchor.scipy_s"),
    ("core.grid_serial_s", "spgemm.twophase_s"),
    ("core.ooc_s", "core.grid_serial_s"),
    ("serve.job_client_s", "core.grid_serial_s"),
    ("distributed.shard_socket_s", "core.grid_serial_s"),
]


# ----------------------------------------------------------------------
# one workload, in this process (the driver's form)
# ----------------------------------------------------------------------
def run_traced(name: str, seed: int, seconds: float, quick: bool, tmp: Path,
               native_build_s: float) -> dict:
    """One set-up, a few paired plain/spanned ops (the tracing overhead),
    then the ladder on the same operands."""
    from ladder import run_ladder
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    spans = Spans(name)
    plain, spanned = [], []
    attempted = failed = 0
    with spans.span(f"workload:{name}"):
        with spans.span("setup"):
            st = workload.setup(seed, tmp)
        try:
            with spans.span("ops"):
                for i in range(1 if quick else 5):
                    dt, ok = workload.single_op(st)
                    plain.append(dt)
                    with spans.span(f"op#{i}"):
                        dt2, ok2 = workload.single_op(st)
                    spanned.append(dt2)
                    attempted += 2
                    failed += (not ok) + (not ok2)
        finally:
            workload.teardown(st)
        failed += not st.warm_ok
        metrics, samples = run_ladder(workload, st, spans, seconds=seconds,
                                      quick=quick, native_build_s=native_build_s)
    trace_path = OUT / f"trace-{git_sha()['sha'][:12]}.json"
    _merge_trace(trace_path, spans.chrome_events(WORKLOAD_NAMES.index(name) + 1))
    detail = {
        "op_latency_s_p50_plain": statistics.median(plain),
        "op_latency_s_p50_traced": statistics.median(spanned),
        "tracing_overhead_s": statistics.median(spanned) - statistics.median(plain),
        "rung_samples": {k: len(v) for k, v in samples.items()},
        # the part of the traced run that no rung's span covers
        "unattributed_s": spans.self_time(0),
        "grid_process_unresolved": nproc() < 2,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return {"metrics": {k: {"value": float(v), "unit": PER_LAYER[k]["unit"]}
                        for k, v in metrics.items()},
            "attempted": attempted + 1, "failed": failed, "detail": detail}


def _merge_trace(path: Path, events: list) -> None:
    """One trace file per commit, one Chrome process per workload: replace
    this workload's events, keep the others'."""
    pid = events[0]["pid"]
    kept = []
    if path.exists():
        try:
            kept = [e for e in json.loads(path.read_text())["traceEvents"]
                    if e.get("pid") != pid]
        except (ValueError, KeyError):
            pass  # an unreadable trace is overwritten
    write_chrome_trace(path, kept + events)


def child_main(args) -> int:
    """Run one workload here; the last stdout line is the result object."""
    os.chdir(ROOT)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)

    # every module a workload touches, so no set-up sample pays an import
    import repro.core.api  # noqa: F401
    import repro.core.spill  # noqa: F401
    import repro.distributed.shard  # noqa: F401
    import repro.serve.client  # noqa: F401
    from repro.spgemm.native import native_available

    # force the native-kernel compile before any clock starts
    t0 = time.perf_counter()
    native_available()
    native_build_s = time.perf_counter() - t0

    residue = ResidueCheck(tmp)
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds,
                                args.quick, tmp, native_build_s)
        else:
            from workloads import run_plain

            result = run_plain(args.workload, args.seed, args.seconds,
                               args.quick, tmp)
        leftovers = residue.problems()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for item in leftovers:
        print(f"  residue: {item}")
    result["failed"] += len(leftovers)
    result["attempted"] += len(leftovers)
    result["detail"]["residue"] = leftovers
    result["detail"]["native_build_s"] = native_build_s

    wanted = PER_LAYER if args.trace else {**END_TO_END, **UNGATED}
    emitted = result["metrics"]
    if set(emitted) != set(wanted):
        print(f"metric names differ from BENCHMARK.json: "
              f"missing {sorted(set(wanted) - set(emitted))}, "
              f"extra {sorted(set(emitted) - set(wanted))}", file=sys.stderr)
        return 1

    failed_fraction = result["failed"] / result["attempted"]
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={int(args.trace)}{'  QUICK (not comparable)' if args.quick else ''}")
    for phase, c in result["detail"].get("phases", {}).items():
        print(f"  phase {phase}: sent {c['sent']}  succeeded {c['succeeded']}  "
              f"failed {c['failed']}")
    for key, m in emitted.items():
        extra = f"  n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        if key in UNGATED:
            extra += "  (reported, not in BENCHMARK.json)"
        print(f"  {key:<38} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  {'failed_fraction':<38} {failed_fraction:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']})")
    if args.trace:
        print_rung_table(emitted, result["detail"])
    if args.detail_out:
        Path(args.detail_out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": int(args.trace),
            "quick": args.quick, "fingerprint": fingerprint(),
            "failed_fraction": failed_fraction, **result}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in emitted.items() if k not in UNGATED},
    }))
    return 0


def print_rung_table(metrics: dict, detail: dict) -> None:
    anchor = metrics["anchor.scipy_s"]["value"]
    print(f"  {'rung':<30} {'seconds':>10} {'x anchor':>9}  over the rung below")
    for name, below in RUNG_TABLE:
        v = metrics[name]["value"]
        rel = ""
        if below is not None:
            b = metrics[below]["value"]
            rel = f"{v - b:+.4f} s = {v / b:.2f}x {below}"
        print(f"  {name:<30} {v:>10.4f} {v / anchor:>9.2f}  {rel}")
    print(f"  tracing overhead on op_latency_s_p50: "
          f"{detail['tracing_overhead_s']:+.6f} s "
          f"(spanned {detail['op_latency_s_p50_traced']:.6f} s, "
          f"plain {detail['op_latency_s_p50_plain']:.6f} s)")


# ----------------------------------------------------------------------
# all workloads, one child process each
# ----------------------------------------------------------------------
def _merge_runs(runs: list) -> dict:
    """Fold repeated runs of one workload into one record.  Each metric's
    `value` is the median over runs and `run_q1`/`run_q3` are the quartiles
    over runs (the value itself when there is one run): the spread that
    `--compare` judges by.  `n`, `q1`, `q3` stay the last run's own samples;
    `percentile_supported` is the least any run supported."""
    merged = dict(runs[-1])
    merged["metrics"] = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        rec = dict(runs[-1]["metrics"][key])
        rec["value"] = statistics.median(values)
        across = summarize(values)
        rec.update(runs=values, run_q1=across["q1"], run_q3=across["q3"])
        if "n" in rec:
            rec["samples_per_run"] = [r["metrics"][key]["n"] for r in runs]
            rec["percentile_supported"] = min(
                r["metrics"][key]["percentile_supported"] for r in runs)
        merged["metrics"][key] = rec
    merged["attempted"] = sum(r["attempted"] for r in runs)
    merged["failed"] = sum(r["failed"] for r in runs)
    merged["failed_fraction"] = merged["failed"] / merged["attempted"]
    return merged


def _anchor_of(run: dict) -> float:
    """The run's median scipy time: the host's speed while it ran."""
    if run["trace"]:
        return run["metrics"]["anchor.scipy_s"]["value"]
    return run["detail"]["anchor_scipy_s"]


def suite_main(args) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    base = json.loads(Path(args.compare).read_text()) if args.compare else None
    # both sides of a comparison take the same number of runs
    n_runs = args.runs or (base["runs"] if base else 1)
    runs = {name: [] for name in WORKLOAD_NAMES}
    # round-robin, so one workload's runs are spread over the whole session
    # and a slow stretch of the host falls on all workloads alike
    for _ in range(n_runs):
        for name in WORKLOAD_NAMES:
            detail_path = OUT / f"detail-{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", "1" if args.traced else "0",
                   "--detail-out", str(detail_path)]
            if args.quick:
                cmd.append("--quick")
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1] if done.returncode == 0 else lines))
            if done.returncode != 0 or not detail_path.exists():
                print(done.stderr, file=sys.stderr)
                print(f"{name}: run failed (exit {done.returncode})")
                return 1
            runs[name].append(json.loads(detail_path.read_text()))
            detail_path.unlink()
    records = {name: _merge_runs(rs) for name, rs in runs.items()}
    for name, rs in runs.items():
        anchors = summarize(_anchor_of(r) for r in rs)
        records[name]["anchor_scipy_s"] = anchors
        records[name]["anchor_drift"] = (
            (anchors["q3"] - anchors["q1"]) / anchors["median"])

    sha = git_sha()
    result = {
        "schema": "repro-bench/1",
        "fingerprint": fingerprint(),
        "seed": args.seed, "seconds": args.seconds, "runs": n_runs,
        "traced": bool(args.traced), "quick": bool(args.quick),
        "bounds": {k: {"bound": m["bound"], "better": m["better"]}
                   for k, m in {**END_TO_END, **UNGATED}.items()},
        "workloads": records,
    }
    kind = "traced" if args.traced else "result"
    out_path = Path(args.out) if args.out else OUT / f"{kind}-{sha['sha'][:12]}.json"
    out_path.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {out_path}")
    print_summary(result)
    status = 0
    if any(r["failed"] for r in records.values()):
        status = 1
    drifted = [n for n, r in records.items() if r["anchor_drift"] > ANCHOR_DRIFT_MAX]
    if drifted:
        print(f"HOST DRIFT: the scipy anchor's interquartile range over the runs "
              f"of {', '.join(drifted)} exceeds {ANCHOR_DRIFT_MAX:.0%} of its "
              f"median; measure again before keeping this as a baseline")
        status = 1
    if base is not None:
        status = max(status, compare(base, result))
    return status


def print_summary(result: dict) -> None:
    if result["traced"]:
        return  # each child already printed its rung table
    names = list(result["workloads"])
    keys = list(result["workloads"][names[0]]["metrics"])
    print(f"\n{'metric':<26}" + "".join(f"{n:>14}" for n in names))
    for key in keys:
        row = "".join(f"{result['workloads'][n]['metrics'][key]['value']:>14.5g}"
                      for n in names)
        unit = result["workloads"][names[0]]["metrics"][key]["unit"]
        print(f"{key + ' [' + unit + ']':<26}{row}")
    row = "".join(f"{result['workloads'][n]['failed_fraction']:>14.5g}" for n in names)
    print(f"{'failed_fraction [ratio]':<26}{row}")
    row = "".join(f"{result['workloads'][n]['anchor_drift']:>14.5g}" for n in names)
    print(f"{'anchor_drift [ratio]':<26}{row}")
    if result["quick"]:
        print("QUICK run: numbers are not comparable with any baseline")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """`better / same / worse` by the median's move against the bound;
    `unresolved` when the two sides' interquartile ranges over runs overlap
    by more than the bound (as a share of the base median)."""
    b, n = base["value"], new["value"]
    overlap = min(base["run_q3"], new["run_q3"]) - max(base["run_q1"], new["run_q1"])
    worse_by = (n - b) / b if better == "lower" else (b - n) / b
    if overlap / abs(b) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(base: dict, new: dict) -> int:
    """One row per (workload, end-to-end metric); non-zero when a ratio or
    the peak RSS is `worse` or failed_fraction is higher; 2 when the sides
    cannot be compared.  The rows in seconds are reported, not judged."""
    fb, fn = base["fingerprint"], new["fingerprint"]
    reasons = [f"{k}: base {fb.get(k)} vs new {fn.get(k)}"
               for k in ("native_available", "nproc") if fb.get(k) != fn.get(k)]
    reasons += [f"{side} is a --quick run" for side, r in
                (("base", base), ("new", new)) if r.get("quick")]
    if base["runs"] != new["runs"]:
        reasons.append(f"runs: base {base['runs']} vs new {new['runs']}")
    print(f"\ncompare: base {fb['git']['sha'][:12]} seed {base['seed']}  vs  "
          f"new {fn['git']['sha'][:12]} seed {new['seed']}  ({new['runs']} runs each)")
    if reasons:
        print("NOT COMPARABLE: " + "; ".join(reasons))
        return 2
    status = 0
    print(f"{'workload':<14}{'metric':<20}{'base':>12}{'new':>12}"
          f"{'new/base':>10}{'bound':>7}  verdict")
    for name, brec in base["workloads"].items():
        nrec = new["workloads"][name]
        for key, spec in new["bounds"].items():
            bm, nm = brec["metrics"][key], nrec["metrics"][key]
            v = verdict(bm, nm, spec["bound"], spec["better"])
            if key in IN_SECONDS:
                v += " (reported, not judged)"
            else:
                status |= v == "worse"
            print(f"{name:<14}{key:<20}{bm['value']:>12.5g}{nm['value']:>12.5g}"
                  f"{nm['value'] / bm['value']:>9.3f}x{spec['bound']:>7.2f}  {v}")
        ba, na = brec["anchor_scipy_s"]["median"], nrec["anchor_scipy_s"]["median"]
        print(f"{name:<14}{'anchor_scipy_s':<20}{ba:>12.5g}{na:>12.5g}"
              f"{na / ba:>9.3f}x{'':>7}  the host's speed on each side (not judged)")
        bf, nf = brec["failed_fraction"], nrec["failed_fraction"]
        v = "worse" if nf > bf else "same"
        status |= v == "worse"
        print(f"{name:<14}{'failed_fraction':<20}{bf:>12.5g}{nf:>12.5g}"
              f"{'':>10}{0:>7.2f}  {v}")
    return int(status)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run this one workload in-process (the driver's form)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per workload (default: "
                        "BENCHMARK.json run_seconds; 60 with --traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 prints the per-layer metrics")
    p.add_argument("--traced", action="store_true",
                   help="all workloads: the per-layer ladder, Chrome trace written")
    p.add_argument("--quick", action="store_true",
                   help="<=3 ops / one short serve round, ladder 1 repetition; "
                        "flagged not comparable")
    p.add_argument("--runs", type=int, default=0,
                   help="take this many runs of every workload, round-robin, "
                        "and report medians and quartiles over the runs "
                        "(default 1; with --compare, as many as BASE has)")
    p.add_argument("--out", default="", help="result file (default bench/out/)")
    p.add_argument("--compare", default="", metavar="BASE.json")
    p.add_argument("--result", default="", metavar="NEW.json",
                   help="with --compare: compare this result, run nothing")
    p.add_argument("--detail-out", default="", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 60.0 if args.traced and not args.workload else float(
            SPEC["run_seconds"])
    if args.compare and args.result:
        return compare(json.loads(Path(args.compare).read_text()),
                       json.loads(Path(args.result).read_text()))
    adopt_orphans()
    # a driver's time-out arrives as SIGTERM: leave through the same
    # `finally` blocks (server, worker pool, spinners) as any other error
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child_main(args) if args.workload else suite_main(args)
    finally:
        # on every path out: no process this run started is left, not even
        # as a zombie of pid 1
        reap_descendants()


if __name__ == "__main__":
    sys.exit(main())

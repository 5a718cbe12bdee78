"""streammem benchmark: one workload per process.

    python3 perfbench/run.py --workload replay-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Prints every end-to-end metric of the workload with its unit and sample
count, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones in BENCHMARK.json; with `--trace 1` the per-layer ones, from
traced repetitions alternated with untraced ones.  Full results (and, when
traced, every span) go to perfbench/out/.

Exit codes: 0 correct, 1 an output check failed, 2 no streammem sources next
to this directory, 3 the program failed or stalled.  See perfbench/README.md.
"""

import os

# pinned before numpy is imported: OpenBLAS otherwise starts one thread per CPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("replay-long", "live-ingest", "dialogue-growth", "remote-replay")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_ticks() -> list[int]:
    """Whole-machine CPU tick counters from /proc/stat (user, nice, system,
    idle, iowait, irq, softirq, steal), or [] where unreadable."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took from this machine in between:
    time a virtual CPU wanted to run but was not given."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def rate(pairs) -> float:
    """Items over seconds, summed over repetitions."""
    return sum(n for n, _ in pairs) / sum(s for _, s in pairs)


def end_to_end(name, tally):
    """Every end-to-end metric that applies to the workload, as
    (metric, value or None, unit, samples, note).

    Rates are totals over the run's repetitions and query_p50_ms is the mean
    of each repetition's median.  Slow spells of the host stretch single
    repetitions by up to a half; totals and means follow the share of slow
    time in the run smoothly, where the median of a few repetitions, or of
    queries drawn from a fast and a slow spell, jumps (see README.md, Noise)."""
    from statistics import mean, median

    from benchstats import TooFewSamples, percentile

    reps = [r for r in tally.latency_ms if r]
    lat = [x for r in reps for x in r]
    rows = [("setup_s", median(tally.setup_s), "s", len(tally.setup_s), "median")]
    ingest = "warm-up ingests" if name == "dialogue-growth" else "repetitions"
    rows.append(("frames_per_s", rate(tally.frames), "frames/s", len(tally.frames),
                 f"total over {len(tally.frames)} {ingest}"))
    if name == "dialogue-growth":
        rows.append(("queries_per_s", rate(tally.queries), "queries/s", len(tally.queries),
                     f"total over {len(tally.queries)} sessions"))
    rows.append(("query_p50_ms", mean(map(median, reps)), "ms", len(lat),
                 f"mean of {len(reps)} repetitions' medians"))
    tails = {"live-ingest": ("query_p90_ms", 90), "dialogue-growth": ("query_p99_ms", 99)}
    if name in tails:
        metric, p = tails[name]
        try:
            rows.append((metric, percentile(lat, p), "ms", len(lat), f"p{p}"))
        except TooFewSamples as exc:
            rows.append((metric, None, "ms", len(lat), str(exc)))
    if name == "live-ingest":
        rows.append(("snapshot_lag_ms", median(tally.lag_ms), "ms", len(tally.lag_ms),
                     "median"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows.append(("peak_rss_mb", peak, "MiB", 1, "ru_maxrss of this process"))
    if name != "dialogue-growth":
        hits, asked = tally.recall
        rows.append(("tag_recall", hits / asked if asked else 0.0, "ratio", asked,
                     f"{hits}/{asked} SM/LM queries whose best caption holds the tag"))
    if name in ("replay-long", "remote-replay"):
        hits, asked = tally.ci_attach
        rows.append(("ci_attach", hits / asked if asked else 0.0, "ratio", asked,
                     f"{hits}/{asked} CI queries given the asked-about turn"))
    rows.append(("failed_ops", tally.failed / tally.attempted if tally.attempted else 0.0,
                 "ratio", tally.attempted, f"{tally.failed}/{tally.attempted}"))
    return rows


def per_layer(tally) -> tuple[dict, list[str]]:
    """Mean of each per-layer metric over the traced repetitions, plus the
    names reported missing."""
    from statistics import median

    values: dict = {}
    missing: list[str] = []
    for metric in tally.layers[0]:
        column = [layers[metric] for layers in tally.layers]
        if None in column:
            missing.append(metric)
        else:
            values[metric] = sum(column) / len(column)
    values["trace.overhead_ratio"] = median(tally.traced_walls) / median(tally.walls) - 1.0
    return values, missing


def write_spans(path: Path, tally) -> None:
    with open(path, "w") as fh:
        for rep, tracer in enumerate(tally.tracers):
            for s in tracer.spans:
                fh.write(json.dumps({
                    "rep": rep, "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": tracer.thread_names.get(s.thread, s.thread),
                    "value": s.value, "ok": s.ok,
                }) + "\n")


def run_one(args) -> int:
    if not (SRC / "streammem" / "__init__.py").is_file():
        print(f"perfbench: no streammem sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import streammem

    if Path(streammem.__file__).resolve().parent != SRC / "streammem":
        print(f"perfbench: streammem imported from {streammem.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spantrace
    import workloads

    env = environment(args)
    ticks = cpu_ticks()
    tally = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    env["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    correct = not tally.problems
    rows = end_to_end(args.workload, tally)
    env["threads_at_end"] = threading.active_count()

    print(f"# {args.workload}: {workloads.WORKLOADS[args.workload].why}")
    print("# env " + json.dumps(env, sort_keys=True))
    for metric, value, unit, samples, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:<16} {metric:<16} {shown:>12} {unit:<10} n={samples:<6} {note}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")

    doc = {"env": env, "correct": correct, "problems": tally.problems,
           "end_to_end": {m: {"value": v, "unit": u, "samples": n, "note": note}
                          for m, v, u, n, note in rows},
           "walls_s": tally.walls}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, missing = per_layer(tally)
        coverage = values.get("trace.span_coverage")
        if args.workload == "replay-long" and (coverage is None or coverage < 0.9):
            correct = False
            print(f"CHECK FAILED: spans cover {coverage} of run_sim wall time, below 0.9")
        for metric in sorted(values):
            print(f"{args.workload:<16} {metric:<44} {values[metric]:>14.6g} "
                  f"{spantrace.metric_unit(metric)}")
        if missing:
            print("MISSING (wrapped name not found): " + ", ".join(missing))
        metrics = {m: {"value": v, "unit": spantrace.metric_unit(m)} for m, v in values.items()}
        doc.update(per_layer=values, missing=missing, traced_walls_s=tally.traced_walls)
        write_spans(OUT / f"{stem}-spans.jsonl", tally)
    else:
        gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        keep = {m["name"] for m in gated}
        metrics = {m: {"value": v, "unit": u} for m, v, u, _, _ in rows if m in keep}
    doc["correct"] = correct
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        print("perfbench: the program failed or stalled", file=sys.stderr)
        sys.stdout.flush()
        sys.stderr.flush()
        # a stalled engine leaves threads that can never be joined
        os._exit(3)


if __name__ == "__main__":
    sys.exit(main())

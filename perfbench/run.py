"""Census benchmark for piclass.

    python3 perfbench/run.py --workload hall|quotient --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures whole census campaigns for
about ``--seconds`` seconds (at least one; another only while it is expected
to end inside the budget), checks every report against
``perfbench/expected/<workload>.json`` and prints the end-to-end metrics,
with every timing scaled to the nominal host speed (``hostspeed.py``).
With ``--trace 1`` it runs one untraced and one traced campaign and prints
the per-layer metrics; spans go to ``.bench_out/trace-<workload>-<seed>.jsonl``.
The last line of standard output is the JSON result; the line before it
records the environment.  See ``perfbench/NOTES.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import reference_round, rounds_around, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("hall", "quotient")
SETUP_PROBES = 6
PROBE_ROUNDS = 5

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "group_p50_ms": "ms",
    "group_p90_ms": "ms",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def git_commit(root: str):
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
    }


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall seconds, host-scaled seconds) of fresh processes that import the
    program and build the workload's groups (``--probe``).

    Each probe runs ``PROBE_ROUNDS`` reference rounds when it is done and
    reports them; their time is taken off its wall time, and their mean
    scales the rest.  No timeout is passed: with one, ``subprocess`` polls the
    child every 50 ms and the samples come out in 50 ms steps.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload,
           "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        rounds = json.loads(done.stdout)
        setup = wall - sum(rounds)
        samples.append((setup, scaled(setup, sum(rounds) / len(rounds))))
    return samples


def timed_binding(module, name: str, sink: list):
    """Time every call through ``module.name`` between reference rounds,
    appending (seconds, mean round time, time spent in rounds); returns a
    restore function."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        before = reference_round()
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            round_s = rounds_around(t1 - t0, before)
            sink.append((t1 - t0, round_s, before + time.perf_counter() - t1))

    setattr(module, name, wrapper)
    return lambda: setattr(module, name, original)


def measure(workload: str, seed: int, seconds: float) -> dict:
    import gc

    import workloads as wl
    from piclass import suite

    expected = wl.load_expected(workload)
    setup = setup_seconds(workload, seed)
    raw_campaigns, campaigns, groups = [], [], []
    attempted = failed = 0
    restore = timed_binding(suite, "run_group_suite", groups)
    try:
        start = time.perf_counter()
        while True:
            entries = wl.make_groups(workload, seed)
            gc.collect()
            first = len(groups)
            t0 = time.perf_counter()
            report = wl.run_campaign(workload, entries)
            wall = time.perf_counter() - t0
            del entries
            mine = groups[first:]
            raw_campaigns.append(wall - sum(spent for _, _, spent in mine))
            rest = raw_campaigns[-1] - sum(t for t, _, _ in mine)
            round_s = statistics.median(r for _, r, _ in mine)
            campaigns.append(sum(scaled(t, r) for t, r, _ in mine) + scaled(rest, round_s))
            a, f = wl.check_report(report, expected, seed)
            attempted, failed = attempted + a, failed + f
            del report
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(raw_campaigns) > seconds:
                break
    finally:
        restore()
    verdicts = expected["verdict_count"]
    group_ms = [1000 * scaled(t, r) for t, r, _ in groups]
    raw_group_ms = [1000 * t for t, _, _ in groups]
    metrics = {
        "verdicts_per_s": statistics.median(verdicts / t for t in campaigns),
        "group_p50_ms": statistics.median(group_ms),
        "group_p90_ms": percentile(group_ms, 90),
        "setup_s": statistics.median(t for _, t in setup),
    }
    info = {
        "campaign_s": campaigns, "raw_campaign_s": raw_campaigns,
        "raw_verdicts_per_s": statistics.median(verdicts / t for t in raw_campaigns),
        "raw_group_p50_ms": statistics.median(raw_group_ms),
        "raw_group_p90_ms": percentile(raw_group_ms, 90),
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "setup_samples_s": [t for t, _ in setup],
        "group_samples": len(groups), "verdicts_per_campaign": verdicts,
        "reference_round_s": statistics.median(r for _, r, _ in groups),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def measure_traced(workload: str, seed: int) -> dict:
    import gc

    import workloads as wl
    from tracer import Tracer, aggregate

    expected = wl.load_expected(workload)
    entries = wl.make_groups(workload, seed)
    t0 = time.perf_counter()
    report = wl.run_campaign(workload, entries)
    plain_s = time.perf_counter() - t0
    attempted, failed = wl.check_report(report, expected, seed)
    del entries, report
    gc.collect()

    tracer = Tracer(workload=workload)
    with tracer:
        entries = wl.make_groups(workload, seed)
        root = tracer.open("campaign", "suite")
        report = wl.run_campaign(workload, entries)
        tracer.close(root)
    a, f = wl.check_report(report, expected, seed)
    metrics = aggregate(tracer, root)
    metrics["trace.overhead_ratio"] = metrics["trace.campaign_s"] / plain_s
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    tracer.write_jsonl(path)
    info = {"untraced_campaign_s": plain_s, "spans_jsonl": os.path.relpath(path, ROOT)}
    return {"attempted": attempted + a, "failed": failed + f, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "piclass")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'piclass')} is missing",
              file=sys.stderr)
        return 2
    if args.probe:
        import workloads as wl

        wl.make_groups(args.workload, args.seed)
        print(json.dumps([reference_round() for _ in range(PROBE_ROUNDS)]))
        return 0

    if args.trace:
        result = measure_traced(args.workload, args.seed)
        units = {name: per_layer_unit(name) for name in result["metrics"]}
    else:
        result = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(), "failed_frac": result["failed"] / result["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **result["info"],
    }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**record, "result": line}, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected verdicts and the seed-0 report digest of each workload.

    python3 perfbench/record_expected.py [workload ...]

For every workload this runs ``piclass verify --census --format json`` on the
workload's config in a subprocess, checks that the report the benchmark
renders through the library is byte-identical to it, and writes
``perfbench/expected/<workload>.json``.  Re-run it only when a change is meant
to alter the census verdicts.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads as wl


def cli_report(workload: str) -> str:
    overrides, suites = wl.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(overrides, fh)
        cmd = [sys.executable, "-m", "piclass.cli", "verify", "--census", "--config", cfg,
               "--format", "json", "--bundle-dir", os.path.join(tmp, "bundles")]
        for name in suites:
            cmd += ["--suite", name]
        env = {**os.environ, "PYTHONPATH": wl.SRC}
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: piclass verify exited {done.returncode}\n{done.stderr}")
    return done.stdout


def record(workload: str):
    from_cli = cli_report(workload)
    from_library = wl.run_campaign(workload, wl.make_groups(workload, 0))
    if from_cli != from_library:
        raise SystemExit(f"{workload}: library report differs from the CLI report")
    rows = wl.invariant_rows(from_cli)
    overrides, suites = wl.WORKLOADS[workload]
    doc = {
        "workload": workload,
        "config": overrides,
        "suites": suites,
        "groups": len(wl.make_groups(workload, 0)),
        "verdict_count": len(rows),
        "seed0_sha256": wl.sha256(from_cli),
        "verdicts": rows,
    }
    os.makedirs(wl.EXPECTED_DIR, exist_ok=True)
    with open(wl.expected_path(workload), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {doc['groups']} groups, {len(rows)} verdicts, sha256 {doc['seed0_sha256']}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(wl.WORKLOADS):
        record(name)

"""Workload definitions, seeded inputs and the correctness gate.

A workload is a census config plus a suite selection, run with ``Limits()``
defaults and one worker, exactly as ``piclass verify --census`` runs it.  The
benchmark seed only relabels points: every group's generators are conjugated
by a seeded random permutation of its points (seed 0 is the identity), so the
program receives isomorphic groups whose verdicts must not change.
"""

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED_DIR = os.path.join(HERE, "expected")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

from piclass import catalog, reporting, suite  # noqa: E402
from piclass.config import Config  # noqa: E402
from piclass.group import PermGroup  # noqa: E402
from piclass.perm import Permutation  # noqa: E402

# name -> (Config overrides, suite selection)
WORKLOADS = {
    "hall": ({"max_order": 72}, ["main", "complement", "structure"]),
    "quotient": ({"cyclic_max": 6, "dihedral_max_order": 10, "include_quaternion": False},
                 ["quotient"]),
}

# Witness fields that relabelling the points cannot change.
INVARIANT_WITNESS_KEYS = ("d_pi", "d_3", "d", "normal_subgroups", "checked", "hall_order")


def config_for(workload: str) -> Config:
    overrides, _ = WORKLOADS[workload]
    return Config(**overrides)


def suites_for(workload: str) -> list[str]:
    return list(WORKLOADS[workload][1])


def relabelling(degree: int, seed: int, name: str) -> list[int]:
    """The point permutation applied to group ``name``; identity for seed 0."""
    points = list(range(degree))
    if seed != 0:
        random.Random(f"{seed}/{name}").shuffle(points)
    return points


def relabel(group: PermGroup, sigma: list[int]) -> PermGroup:
    """The group with every generator g replaced by sigma g sigma^-1."""
    if sigma == list(range(group.degree)):
        return group
    inv = [0] * len(sigma)
    for i, j in enumerate(sigma):
        inv[j] = i
    gens = [Permutation([sigma[g.images[inv[q]]] for q in range(len(sigma))])
            for g in group.generators]
    return PermGroup(gens, degree=group.degree)


def make_groups(workload: str, seed: int) -> list[tuple[str, PermGroup]]:
    """Fresh (name, group) census entries for one workload and seed.

    Every call returns new group objects, so no chain or class table built by
    an earlier campaign is reused.
    """
    config = config_for(workload)
    entries = []
    for spec in catalog.census_specs(config.census_ranges()):
        group = catalog.build(spec, config.max_degree)
        entries.append((spec.name, relabel(group, relabelling(group.degree, seed, spec.name))))
    return entries


def run_campaign(workload: str, entries) -> str:
    """The workload's campaign and its rendered JSON report, as the CLI prints it."""
    config = config_for(workload)
    result = suite.run_census_campaign(entries, suites_for(workload), suite.Limits(),
                                       workers=1)
    body = {"results": [r.as_dict() for r in result.reports], "summary": result.summary}
    return reporting.render_json(reporting.document("verify", config, body))


def invariant_rows(report_text: str) -> list[dict]:
    """The per-verdict fields that relabelling cannot change."""
    rows = []
    for r in json.loads(report_text)["results"]:
        row = {k: r[k] for k in ("result_id", "group", "pi", "status")}
        row.update({k: r["witness"][k] for k in INVARIANT_WITNESS_KEYS if k in r["witness"]})
        rows.append(row)
    return rows


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def load_expected(workload: str) -> dict:
    with open(expected_path(workload)) as fh:
        return json.load(fh)


def check_report(report_text: str, expected: dict, seed: int) -> tuple[int, int]:
    """(verdicts attempted, verdicts failed) for one campaign report.

    A verdict fails when it is ``fail`` or when its invariant fields differ
    from the recorded ones; a missing or extra verdict fails too.  At seed 0
    the report must also hash to the recorded digest, or every verdict fails.
    """
    rows = invariant_rows(report_text)
    want = expected["verdicts"]
    failed = abs(len(rows) - len(want))
    for got, exp in zip(rows, want):
        if got != exp or got["status"] == suite.FAIL:
            failed += 1
    if seed == 0 and sha256(report_text) != expected["seed0_sha256"]:
        failed = max(len(rows), len(want))
    return max(len(rows), len(want)), failed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()

"""Golden digests of census reports: refactors must keep the bytes identical.

Each slice is small enough for tier-1.  The ``quotient``+``structure`` slice
covers a deep lattice (D8 x D8), quotients of every index, and a ``case2``
structure verdict whose witness carries the generators of normal subgroups
(A5 x C3); its digest was recorded with the pairwise-join lattice and
coset-action quotients.  The ``main``+``complement``+``cap`` slice prints
``hall_generators``, which depend on the order of the conjugation-orbit walks
behind ``normalizer`` and Sylow growth; its digest was recorded with one
hand-written orbit loop per caller.  The ``complement``+``structure`` slice
is the whole default census: normal pi-complements, O_3' and the ``case2``
direct decompositions; its digest was recorded when those were computed from
element sets and Schreier-Sims closures.  The ``all`` slice is the report of
``piclass verify --census --suite all --format json``; its digest was
recorded while some subgroup handles still fell back to Schreier-Sims chains
for their orders and memberships.

The fifth digest pins the reports of four group files past the census,
SL(2,3), GL(2,3), AGL(1,11) and AGL(1,13) in ``tests/data``: each as
``piclass verify <file> --suite all --format json`` prints it, joined in
that order.  It was recorded with the code that added the files, before
the sweep stopped its closures at the first element outside pi.

Each slice's campaign runs once per module (the ``campaigns`` fixture); its
document is also rendered by ``json.dumps``, which ``render_json`` must
match byte for byte.  The ``all`` campaign is read against the ledger
``tests/data/census_ledger.tsv``: one line per census group, its order and
a short sha256 of its rows for each default suite, recorded with the code
whose ``all`` digest is the one below.  When that digest moves, the ledger
test names the first group and the suites that moved.  The ledger is
generated, never edited by hand: ``PYTHONPATH=src python
tests/test_golden.py`` rewrites it from the current code.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cli_runner import invoke
from piclass.catalog import census
from piclass.config import Config
from piclass.reporting import document, render_json
from piclass.suite import DEFAULT_SUITES, SUITES, run_census_campaign

LEDGER = Path(__file__).parent / "data" / "census_ledger.tsv"
GROUP_FILES = (["sl23.grp", "gl23.grp", "agl1_11.grp", "agl1_13.grp"],
               "5ec1d46765e150feb8abe66531ea9d8f9b1882813c5866f480279f38ca51e725")

SLICES = {
    "quotient-structure": (
        Config(cyclic_max=4, dihedral_max_order=8, symmetric_max=4, alternating_max=5,
               include_quaternion=False, max_order=192),
        ["quotient", "structure"],
        ["A5 x C3", "D8 x D8"],
        '"case2_witness"',
        "dca4c0c26de283a3a6756e35ee91334f9fbbd6cfdb919bcfed56efad4dda77b4",
    ),
    "main-complement-cap": (
        Config(max_order=48),
        ["main", "complement", "cap"],
        ["S4", "D8 x C3"],
        '"hall_generators"',
        "4b28fa1f49bf432aeced6b48af438818fa3597ee5fc654b52538c6d173d9ab48",
    ),
    "complement-structure": (
        Config(),
        ["complement", "structure"],
        ["S5 x C9", "A5 x C3"],
        '"o_3_prime_order"',
        "ada2484aff74687fc2f778a86dc6081a2be37aa237f642f16201d44a2b5bfc16",
    ),
    "all": (
        Config(),
        DEFAULT_SUITES,
        ["C12 x C12", "S5 x C9", "D8 x D8"],
        '"hall_generators"',
        "ac9814b8f9d72caad5c725699304ee4468d16dfa39df5056780a8bba7556d21d",
    ),
}


def campaign(slice_name: str):
    """The campaign of one slice, its JSON document, as ``piclass verify``
    prints it, and the order of each of its groups."""
    config, suites, groups, _, _ = SLICES[slice_name]
    entries = list(census(config))
    assert set(groups) <= set(dict(entries))
    result = run_census_campaign(entries, suites, config)
    body = {"results": [r.as_dict() for r in result.reports], "summary": result.summary}
    return result, document("verify", config, body), {name: g.order for name, g in entries}


def render(slice_name: str) -> str:
    """The JSON report of one slice, as ``piclass verify`` prints it."""
    return render_json(campaign(slice_name)[1])


@pytest.fixture(scope="module")
def campaigns():
    """``campaign``, run at most once per slice in this module."""
    runs = {}

    def run(slice_name):
        if slice_name not in runs:
            runs[slice_name] = campaign(slice_name)
        return runs[slice_name]

    return run


@pytest.mark.parametrize("slice_name", list(SLICES))
def test_report_digest(slice_name, campaigns):
    text = render_json(campaigns(slice_name)[1])
    assert SLICES[slice_name][3] in text
    assert hashlib.sha256(text.encode()).hexdigest() == SLICES[slice_name][4]


@pytest.mark.parametrize("slice_name", list(SLICES))
def test_render_json_matches_json_dumps(slice_name, campaigns):
    doc = campaigns(slice_name)[1]
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_group_file_report_digest():
    files, digest = GROUP_FILES
    reports = []
    for name in files:
        path = LEDGER.parent / name
        result = invoke(["verify", str(path), "--suite", "all", "--format", "json"])
        assert result.exit_code == 0, (name, result.output)
        reports.append(result.stdout)
    assert hashlib.sha256("".join(reports).encode()).hexdigest() == digest


def _suite_rows(reports) -> dict[str, dict[str, list[str]]]:
    """Group name -> default suite -> its report rows, one compact JSON line
    each, in report order; groups in census order."""
    suite_of = {entry[2]: name for name, entry in SUITES.items()}
    rows: dict[str, dict[str, list[str]]] = {}
    for r in reports:
        per_suite = rows.setdefault(r.group, {name: [] for name in DEFAULT_SUITES})
        per_suite[suite_of[r.result_id]].append(json.dumps(r.as_dict(), sort_keys=True))
    return rows


def _short_sha(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:12]


def ledger_lines(result, orders: dict[str, int]) -> list[str]:
    """The ledger of a full-census campaign: name, order and one short
    sha256 per default suite, tab-separated, under a header line."""
    lines = ["\t".join(["group", "order", *DEFAULT_SUITES])]
    for name, per_suite in _suite_rows(result.reports).items():
        lines.append("\t".join([name, str(orders[name]),
                                *(_short_sha(per_suite[s]) for s in DEFAULT_SUITES)]))
    return lines


def test_census_ledger(campaigns):
    """Every census group's rows hash to its ledger line, suite by suite."""
    result, _, orders = campaigns("all")
    want = LEDGER.read_text().splitlines()
    got = ledger_lines(result, orders)
    assert got[0] == want[0], "the ledger's header changed"
    for line, recorded in zip(got[1:], want[1:]):
        if line == recorded:
            continue
        name, *fields = line.split("\t")
        old_name, *old_fields = recorded.split("\t")
        assert name == old_name, f"census order moved: {name!r} where the ledger has {old_name!r}"
        moved = [s for s, a, b in zip(["order", *DEFAULT_SUITES], fields, old_fields) if a != b]
        rows = [_suite_rows(result.reports)[name][s] for s in moved if s != "order"]
        first = rows[0][0] if rows and rows[0] else "(no row)"
        pytest.fail(f"first group that moved: {name!r}; moved: {moved}; "
                    f"the first row of its first moved suite now reads {first}")
    assert len(got) == len(want), (
        f"the ledger has {len(want) - 1} groups, the census {len(got) - 1}")


if __name__ == "__main__":
    result, _, orders = campaign("all")
    lines = ledger_lines(result, orders)
    LEDGER.write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {len(lines) - 1} groups to {LEDGER}\n")

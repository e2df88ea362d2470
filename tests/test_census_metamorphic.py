"""The whole census under relabelling and factor swap.

The shipped campaign runs once as a module fixture.  Two changed campaigns
must give every verdict the same status and witness:

- every census group with its points relabelled by a seeded permutation,
  one generator duplicated, the generators shuffled and a seeded base hint;
- every census product ``A x B`` rebuilt as ``B x A``.

Only the generator strings of a witness may differ, since they name
elements in the chosen labelling; the swap also renames the group.

A third relation runs on a census slice: padding every generator with fixed
points to degree 300 moves the images from bytes to int tuples, and renames
no point, so every row must be the same, generator strings included.
"""

import random
import time

import pytest

from piclass.catalog import build, census, census_specs, product
from piclass.config import Config
from piclass.group import PermGroup
from piclass.perm import Permutation, conjugate
from piclass.suite import DEFAULT_SUITES, run_census_campaign

SEED = 7
GENERATOR_KEYS = ("hall_generators", "offender_generators")
RUNTIME_BOUND_S = 60.0

_timings: dict[str, float] = {}


def _timed(label: str, entries) -> list:
    t0 = time.perf_counter()
    reports = run_census_campaign(entries, DEFAULT_SUITES, Config()).reports
    _timings[label] = time.perf_counter() - t0
    return reports


def _comparable(report, with_group: bool = True) -> tuple:
    witness = {k: v for k, v in report.witness.items() if k not in GENERATOR_KEYS}
    if witness.get("case2_witness"):
        witness["case2_witness"] = {k: v for k, v in witness["case2_witness"].items()
                                    if not k.endswith("_generators")}
    group = report.group if with_group else None
    return report.result_id, group, report.pi, report.status, witness


def _assert_runtime():
    total = sum(_timings.values())
    print(" + ".join(f"{k} {v:.1f}s" for k, v in _timings.items()) + f" = {total:.1f}s")
    assert total < RUNTIME_BOUND_S, f"runtime {total:.1f}s exceeds {RUNTIME_BOUND_S:.0f}s"


def _disguised(group: PermGroup, rng: random.Random) -> PermGroup:
    """The group with relabelled points, a duplicated generator, shuffled
    generators and a random base hint."""
    degree = group.degree
    points = list(range(degree))
    rng.shuffle(points)
    sigma = Permutation(points)
    gens = [conjugate(sigma, g) for g in group.generators]
    gens.append(rng.choice(gens))
    rng.shuffle(gens)
    return PermGroup(gens, degree=degree, base_hint=rng.sample(range(degree), degree))


@pytest.fixture(scope="module")
def shipped():
    specs = census_specs()
    reports = _timed("shipped", [(s.name, build(s)) for s in specs])
    return specs, reports


def test_census_verdicts_survive_relabelling(shipped):
    specs, reports = shipped
    entries = [(s.name, _disguised(build(s), random.Random(f"{SEED}/{s.name}")))
               for s in specs]
    changed = _timed("relabelled", entries)
    assert len(changed) == len(reports) == 4647
    diffs = [(a.group, a.result_id, a.pi) for a, b in zip(reports, changed)
             if _comparable(a) != _comparable(b)]
    assert diffs == []
    _assert_runtime()


def test_census_product_verdicts_survive_factor_swap(shipped):
    specs, reports = shipped
    products = {s.name: s for s in specs if s.kind == "product"}
    want = [r for r in reports if r.group in products]
    swapped = [product(*reversed(products[name].factors)) for name in products]
    changed = _timed("swapped", [(s.name, build(s)) for s in swapped])
    assert len(changed) == len(want) == 4410
    diffs = [(a.group, a.result_id, a.pi) for a, b in zip(want, changed)
             if _comparable(a, with_group=False) != _comparable(b, with_group=False)]
    assert diffs == []
    _assert_runtime()


PADDED_DEGREE = 300
PADDED_SLICE_MAX_ORDER = 48


def _padded(group: PermGroup) -> PermGroup:
    """The group with every generator extended by the fixed points
    degree..299."""
    tail = list(range(group.degree, PADDED_DEGREE))
    return PermGroup([Permutation(list(g.images) + tail) for g in group.generators],
                     degree=PADDED_DEGREE)


def test_census_slice_rows_survive_padding_to_degree_300():
    """The census groups of order <= 48 and D8 x D8 (a deep normal-subgroup
    lattice), every default suite, at their own degree (bytes) and padded
    to degree 300 (int tuples): the rows are identical.  The slice holds
    ``main`` verdicts above 5/8, such as S3 at pi {3}."""
    entries = [(name, g) for name, g in census(Config())
               if g.order <= PADDED_SLICE_MAX_ORDER or name == "D8 x D8"]
    padded = [(name, _padded(g)) for name, g in entries]
    assert "D8 x D8" in dict(entries)
    assert all(type(g.generators[0].images) is tuple for _, g in padded)
    own = [r.as_dict() for r in run_census_campaign(entries, DEFAULT_SUITES, Config()).reports]
    rows = [r.as_dict() for r in run_census_campaign(padded, DEFAULT_SUITES, Config()).reports]
    assert rows == own
    # a main row passes only above 5/8; at or below it is vacuous
    above = {(r["group"], tuple(r["pi"])) for r in own
             if r["result_id"] == "hall-dichotomy" and r["status"] == "pass"}
    assert ("S3", (3,)) in above

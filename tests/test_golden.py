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
"""

import hashlib

import pytest

from piclass.catalog import census
from piclass.config import Config
from piclass.reporting import document, render_json
from piclass.suite import DEFAULT_SUITES, run_census_campaign

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


def render(slice_name: str) -> str:
    """The JSON report of one slice, as ``piclass verify`` prints it."""
    config, suites, groups, marker, _ = SLICES[slice_name]
    entries = list(census(config))
    assert set(groups) <= set(dict(entries))
    result = run_census_campaign(entries, suites, config)
    body = {"results": [r.as_dict() for r in result.reports], "summary": result.summary}
    text = render_json(document("verify", config, body))
    assert marker in text
    return text


@pytest.mark.parametrize("slice_name", list(SLICES))
def test_report_digest(slice_name):
    text = render(slice_name)
    assert hashlib.sha256(text.encode()).hexdigest() == SLICES[slice_name][4]

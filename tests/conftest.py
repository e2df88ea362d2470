import sys
from functools import cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from piclass.catalog import build, census, parse_group_file, parse_name
from piclass.group import PermGroup
from piclass.perm import Permutation
from piclass.subgroups import enumerate_subgroups_up_to_conjugacy

DATA = Path(__file__).parent / "data"


@cache
def complete_sweep(ambient: str):
    """The ambient group, built by name or parsed from its file in
    ``tests/data``, and every class of its subgroups, one representative
    each in the sweep's sorted order (``cap`` = |G| lets nothing stop it).
    Swept once a session."""
    g = (parse_group_file((DATA / ambient).read_text()) if ambient.endswith(".grp")
         else build(parse_name(ambient)))
    return g, enumerate_subgroups_up_to_conjugacy(g, cap=g.order)


@pytest.fixture(scope="session")
def named():
    """Build-on-demand cache of catalog groups by census name."""
    groups = {}

    def get(name):
        if name not in groups:
            groups[name] = build(parse_name(name))
        return groups[name]

    return get


@pytest.fixture(scope="session")
def census_entries():
    """The full default census, shared (and memoized) across the session."""
    return list(census())


def _on_top_points(group: PermGroup, degree: int) -> PermGroup:
    """The group moved onto the last points of ``degree``: past degree 256
    its images are int tuples."""
    shift = degree - group.degree
    return PermGroup([Permutation([*range(shift), *(shift + i for i in g.images)])
                      for g in group.generators])


@pytest.fixture(scope="session")
def group_of(named, census_entries):
    """The group of a ``test_fast_paths`` group set by name: a ``CENSUS``
    group is the one of ``census_entries``, a ``DATA`` group is its file in
    ``tests/data`` parsed once, a ``WIDE`` group ``"S4@262"`` is the named
    group on the last points of that degree (``_on_top_points``), a
    ``SUBGROUPS`` group ``"S6#35"`` is the representative of rank 35 in the
    complete sweep of S6 (``complete_sweep``), rebuilt from its generators
    as a fresh group, each built once, and any other is built by
    ``named``."""
    in_census = dict(census_entries)
    files = {}

    def get(group_set, name):
        if group_set == "CENSUS":
            return in_census[name]
        if group_set in ("DATA", "WIDE", "SUBGROUPS"):
            if name not in files:
                if group_set == "DATA":
                    files[name] = parse_group_file((DATA / name).read_text())
                elif group_set == "WIDE":
                    base, degree = name.split("@")
                    files[name] = _on_top_points(named(base), int(degree))
                else:
                    ambient, rank = name.split("#")
                    g, classes = complete_sweep(ambient)
                    files[name] = PermGroup(classes[int(rank)].generators, degree=g.degree)
            return files[name]
        return named(name)

    return get

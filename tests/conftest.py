import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from piclass.catalog import build, census, parse_group_file, parse_name

DATA = Path(__file__).parent / "data"


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


@pytest.fixture(scope="session")
def group_of(named, census_entries):
    """The group of a ``test_fast_paths`` group set by name: a ``CENSUS``
    group is the one of ``census_entries``, a ``DATA`` group is its file in
    ``tests/data`` parsed once, and any other is built by ``named``."""
    in_census = dict(census_entries)
    files = {}

    def get(group_set, name):
        if group_set == "CENSUS":
            return in_census[name]
        if group_set == "DATA":
            if name not in files:
                files[name] = parse_group_file((DATA / name).read_text())
            return files[name]
        return named(name)

    return get

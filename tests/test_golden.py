"""Golden digest of a census report: refactors must keep the bytes identical.

The slice is small enough for tier-1 and still covers a deep lattice
(D8 x D8), quotients of every index, and a ``case2`` structure verdict whose
witness carries the generators of normal subgroups (A5 x C3).  The digest was
recorded with the pairwise-join lattice and coset-action quotients.
"""

import hashlib

from piclass.catalog import census
from piclass.config import Config
from piclass.reporting import document, render_json
from piclass.suite import Limits, run_census_campaign

SLICE = Config(cyclic_max=4, dihedral_max_order=8, symmetric_max=4, alternating_max=5,
               include_quaternion=False, max_order=192)
SUITES = ["quotient", "structure"]
GOLDEN_SHA256 = "dca4c0c26de283a3a6756e35ee91334f9fbbd6cfdb919bcfed56efad4dda77b4"


def test_quotient_structure_report_digest():
    entries = list(census(SLICE.census_ranges(), SLICE.max_degree))
    assert "A5 x C3" in dict(entries) and "D8 x D8" in dict(entries)
    result = run_census_campaign(entries, SUITES, Limits())
    body = {"results": [r.as_dict() for r in result.reports], "summary": result.summary}
    text = render_json(document("verify", SLICE, body))
    assert '"case2_witness"' in text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256

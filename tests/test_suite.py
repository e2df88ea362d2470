import ast
import csv
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from cli_runner import invoke
from piclass import suite
from piclass.catalog import GroupSpec, build, census, census_specs, parse_group_file, parse_name
from piclass.classes import conjugacy_classes
from piclass.config import Config
from piclass.errors import CapExceededError, InvalidInputError
from piclass.invariants import CentralizerDecomposition, PiProfile
from piclass.perm import Permutation
from piclass.subgroups import (
    HallSearchOutcome,
    LatticeEntry,
    QuotientGroup,
    enumerate_subgroups_up_to_conjugacy,
    subgroup,
)
from piclass.suite import (
    DEFAULT_SUITES,
    FAIL,
    PASS,
    PARTIAL,
    VACUOUS,
    SUITES,
    UNRESOLVED,
    check_commuting_threshold,
    check_hall_dichotomy,
    check_quotient_bound,
    check_selftest,
    check_sylow3_structure,
    check_two_thirds_cap,
    check_unit_iff_complement,
    replay_counterexample,
    resolve_suites,
    CampaignResult,
    VerdictReport,
    run_census_campaign,
    run_group_suite,
    write_counterexample_bundle,
)

STATUSES = {"pass", "fail", "vacuous", "inapplicable", "partial", "unresolved"}


def test_campaign_builds_one_chain_per_census_group(monkeypatch):
    """Subgroups carry their element sets, so a Schreier-Sims chain is built
    only for the census groups, which are given by generators alone: under
    every default suite, only G itself is listed from a chain.  This is why
    the element cap is checked once, against |G|."""
    from piclass.group import PermGroup

    built = []
    build_chain = PermGroup._build_chain

    def counting(self):
        built.append(self)
        build_chain(self)

    monkeypatch.setattr(PermGroup, "_build_chain", counting)
    entries = list(census(Config(max_order=72)))
    run_census_campaign(entries, DEFAULT_SUITES)
    assert len(entries) == 153
    assert sorted(map(id, built)) == sorted(id(g) for _, g in entries)


def test_element_cap_is_checked_against_the_group_order(named):
    """A run on G with max_elements = |G| gives the default verdicts; one
    less stops as the run starts, before G is listed.  The bound is
    inclusive."""
    s5 = named("S5")
    default = [r.as_dict() for r in run_group_suite(s5, "S5", DEFAULT_SUITES)]
    at_cap = run_group_suite(s5, "S5", DEFAULT_SUITES, Config(max_elements=120))
    assert [r.as_dict() for r in at_cap] == default
    fresh = build(parse_name("S5"))
    with pytest.raises(CapExceededError, match="^element enumeration: needs 120, cap is 119$"):
        run_group_suite(fresh, "S5", DEFAULT_SUITES, Config(max_elements=119))
    assert "elements" not in fresh.cache


def test_hall_dichotomy_examples(named):
    status, witness = check_hall_dichotomy(named("S3"), [3])
    assert status == PASS
    assert witness["d_pi"] == "2/3"
    assert witness["hall_order"] == 3
    assert witness["abelian"] is True

    status, witness = check_hall_dichotomy(named("A5"), [3])
    assert status == PASS and witness["d_pi"] == "2/3"

    status, witness = check_hall_dichotomy(named("D8 x C3"), [2])
    assert status == VACUOUS and witness["d_pi"] == "5/8"


def test_hall_dichotomy_two_thirds_consistency(named):
    status, witness = check_hall_dichotomy(named("S3 x C5"), [3, 5])
    assert status == PASS
    cons = witness["two_thirds_consistency"]
    assert cons["three_in_pi"] and not cons["two_in_pi"]
    assert cons["d_3"] == "2/3" and cons["d_mu"] == "1/1"


def test_hall_dichotomy_degrades_to_partial(named):
    config = Config(subgroup_cap=10)
    status, witness = check_hall_dichotomy(named("C12"), [2, 3], config=config)
    assert status == PARTIAL
    assert "cyclic" in witness["degraded"]


def test_degraded_hall_check_counts_cyclic_classes_once(named):
    """Past the cap, conjugate cyclic pi-subgroups generated by elements of
    different G-classes count as one class: S4 x C3 has four classes of
    cyclic 3-subgroups (orders 1, 3, 3, 3) besides its Sylow C3 x C3."""
    g = named("S4 x C3")
    status, witness = check_hall_dichotomy(g, [3], config=Config(subgroup_cap=10))
    assert status == PARTIAL
    assert witness["pi_subgroup_classes"] == 4
    cyclic = [h for h in enumerate_subgroups_up_to_conjugacy(g, pi=[3]) if h.order in (1, 3)]
    assert len(cyclic) == 4


def test_degraded_hall_check_reads_cyclic_classes_from_rational_classes():
    """Past the cap, the cyclic pi-subgroups up to conjugacy read from the
    rational classes are those found by walking the conjugates of each one:
    same representatives, order and generators, on every census group of
    order <= 72 and every nonempty pi of its primes."""
    from oracles import cyclic_pi_subgroup_classes_by_conjugates

    from piclass.invariants import group_primes

    def classes(handles):
        return [([g.images for g in h.generators], h.element_set()) for h in handles]

    checked = 0
    for spec in census_specs():
        if spec.order > 72:
            continue
        g = build(spec)
        for pi in suite._nonempty_subsets(group_primes(g)):
            assert (classes(suite._cyclic_pi_subgroup_classes(g, pi))
                    == classes(cyclic_pi_subgroup_classes_by_conjugates(g, pi))), (spec.name, pi)
            checked += 1
    assert checked > 300


def test_degraded_hall_check_does_not_count_hall_classes(named):
    """Past the cap only cyclic pi-subgroups are enumerated, so a Hall
    subgroup that is not cyclic (C3 x C3 in S4 x C3 at pi {3}) is never
    seen: the witness says Hall classes were not counted, and conjugacy was
    not checked; a cyclic Hall subgroup (C12 at pi {2, 3}) is still checked."""
    status, witness = check_hall_dichotomy(named("S4 x C3"), [3], config=Config(subgroup_cap=10))
    assert status == PARTIAL
    assert witness["hall_order"] == 9
    assert witness["hall_class_count"] == "not counted (subgroup cap exceeded)"
    assert witness["conjugacy"] == "not checked (no cyclic subgroup of Hall order)"
    status, witness = check_hall_dichotomy(named("C12"), [2, 3], config=Config(subgroup_cap=10))
    assert status == PARTIAL
    assert witness["hall_class_count"] == "not counted (subgroup cap exceeded)"
    assert witness["conjugacy"] == "ok"


def test_unit_iff_examples(named):
    status, witness = check_unit_iff_complement(named("A4"), [3])
    assert status == PASS and witness["iff"] == {"lhs": True, "rhs": True}
    assert witness["complement_order"] == 4

    status, witness = check_unit_iff_complement(named("S3"), [3])
    assert status == PASS and witness["iff"] == {"lhs": False, "rhs": False}

    status, witness = check_unit_iff_complement(named("C12"), [2, 3])
    assert status == PASS and witness["iff"] == {"lhs": True, "rhs": True}


def test_two_thirds_cap_examples(named):
    status, witness = check_two_thirds_cap(named("S4"), [2])
    assert status == PASS and witness["d_pi"] == "1/2"
    status, _ = check_two_thirds_cap(named("S3"), [3])
    assert status == PASS
    status, _ = check_two_thirds_cap(named("C6"), [2])
    assert status == VACUOUS


def test_quotient_bound_examples(named):
    status, witness = check_quotient_bound(named("S4"))
    assert status == PASS
    assert witness["normal_subgroups"] == 4
    assert witness["checked"] == 4 * 3  # four normals, three prime subsets

    # a cap that still degrades a verdict is the subgroup cap, in the main suite
    reports = run_group_suite(named("C12"), "C12", ["quotient", "main"],
                              Config(subgroup_cap=10), pi_sets=[[2, 3]])
    assert [(r.result_id, r.status) for r in reports] == [
        ("quotient-bound", PASS), ("hall-dichotomy", PARTIAL)]


def _c4_failing_the_quotient_bound(monkeypatch):
    """C4 and its N = C2, with the quotient histogram of N made to count the
    identity's class alone: k_2(G/N) = 1, and k_2(C4) = 4 > k_2(N) * 1 = 2.
    No census group fails the bound."""
    from piclass.classes import ClassTable
    from piclass.subgroups import normal_subgroups

    g = build(parse_name("C4"))
    _, n, _ = normal_subgroups(g)
    patched = conjugacy_classes(g).normal_mask(n.element_set())
    real = ClassTable.quotient_histogram
    monkeypatch.setattr(ClassTable, "quotient_histogram",
                        lambda self, normal: {0: 1} if normal == patched else real(self, normal))
    return g, n


def test_quotient_bound_failure_witness_is_exact(monkeypatch):
    """The witness carries d_2(G) and the bound d_2(N) * d_2(G/N) as exact
    fractions."""
    from fractions import Fraction

    from piclass.invariants import d_pi

    g, n = _c4_failing_the_quotient_bound(monkeypatch)
    status, witness = check_quotient_bound(g)
    assert status == FAIL
    counterexample = witness["counterexample"]
    assert (counterexample["normal_order"], counterexample["pi"]) == (2, [2])
    assert Fraction(counterexample["d_pi_G"]) == d_pi(g, [2]).d_pi == 1
    bound = d_pi(n, [2]).d_pi * Fraction(1, 2)  # d_2(G/N) = 1 / |G:N|_2
    assert Fraction(counterexample["bound"]) == bound == Fraction(1, 2)


def test_quotient_bound_failure_witness_counts_the_pairs_checked(monkeypatch):
    """The (N, pi) pairs compared up to and including the counterexample:
    the trivial N with pi {2}, then N = C2 with pi {2}."""
    g, _ = _c4_failing_the_quotient_bound(monkeypatch)
    status, witness = check_quotient_bound(g)
    assert status == FAIL
    assert witness["normal_subgroups"] == 3
    assert witness["checked"] == 2


# One fact patched on a small named group forces a fail branch that no
# census group reaches: name -> (suite, group, the --pi given, the
# suite-module name patched, its stand-in, result id, the witness of the
# forced fail).  S3 and S5 have d_3 = 2/3 and O_3'(G) = 1, so the
# structure check reaches its fails on them, each witness starting with
# ``_STRUCTURE_START``.
_STRUCTURE_START = {"d_3": "2/3", "o_3_prime_order": 1, "sylow3_order": 3, "abelian_P": True}
# Each Hall-dichotomy fail is one lie about d_pi, the Hall search, the
# subgroup classes or a conjugate orbit, on S3, S4, D12, C4 or C2; a witness
# past the search names the method and route that found the Hall subgroup.
_SYLOW_CLOSURE = {"hall_method": "constructive",
                  "hall_route": "closure of one Sylow subgroup per prime"}
_WHOLE_GROUP = {"hall_method": "constructive", "hall_route": "whole group is a pi-group"}
_S3_HALL_START = {"d_pi": "2/3", "hall_order": 3, "hall_generators": ["(0 1 2)"],
                  **_SYLOW_CLOSURE, "abelian": True}
FORCED_FAILS = {
    "cap-above-two-thirds": (
        "cap", "S4", "2", "d_pi", lambda group, pi: PiProfile(frozenset([2]), 6, 8, Fraction(3, 4)),
        "two-thirds-cap", {"d_pi": "3/4", "violated": "d_pi > 2/3"}),
    "cap-odd-order-above-five-eighths": (
        "cap", "C3", "3", "d_pi", lambda group, pi: PiProfile(frozenset([3]), 2, 3, Fraction(2, 3)),
        "two-thirds-cap", {"d_pi": "2/3", "violated": "d_pi > 5/8 with 3 outside pi or odd order"}),
    "commuting-non-abelian-above-five-eighths": (
        "commuting", "S3", None, "commuting_degree", lambda group: Fraction(1),
        "commuting-threshold", {"d": "1/1", "abelian": False}),
    "commuting-abelian-at-most-five-eighths": (
        "commuting", "C3", None, "commuting_degree", lambda group: Fraction(1, 2),
        "commuting-threshold", {"d": "1/2", "abelian": True}),
    "structure-sylow-not-abelian": (
        "structure", "S3", None, "sylow_subgroup", lambda group, p: group,
        "sylow3-structure", {**_STRUCTURE_START, "sylow3_order": 6, "abelian_P": False}),
    "structure-normalizer-over-centralizer-not-two": (
        "structure", "S3", None, "centralizer_of_subgroup", lambda group, sub: group,
        "sylow3-structure", {**_STRUCTURE_START, "normalizer_over_centralizer": 1}),
    "structure-commutator-order-not-three": (
        "structure", "S3", None, "commutator_subgroup", lambda group, a, b: group,
        "sylow3-structure",
        {**_STRUCTURE_START, "normalizer_over_centralizer": 2, "commutator_order": 6}),
    "structure-not-a-direct-product": (
        "structure", "S3", None, "subgroup_intersection", lambda group, a, b: a,
        "sylow3-structure",
        {**_STRUCTURE_START, "normalizer_over_centralizer": 2, "commutator_order": 3,
         "central_part_order": 3, "internal_direct_product": False}),
    "structure-neither-case": (
        "structure", "S5", None, "almost_simple_socle", lambda group: None,
        "sylow3-structure",
        {**_STRUCTURE_START, "normalizer_over_centralizer": 2, "commutator_order": 3,
         "central_part_order": 1, "internal_direct_product": True,
         "case1_self_centralizing_normal": False, "case2_almost_simple_times_3group": False}),
    "hall-reported-nonexistent": (
        "main", "S3", "3", "hall_search",
        lambda group, pi, **options: HallSearchOutcome("none_exists", None, "exhaustive", None),
        "hall-dichotomy", {"d_pi": "2/3", "hall": "reported nonexistent"}),
    "hall-not-abelian": (
        "main", "S4", "2", "d_pi", lambda group, pi: PiProfile(frozenset([2]), 8, 8, Fraction(1)),
        "hall-dichotomy",
        {"d_pi": "1/1", **_SYLOW_CLOSURE, "hall_order": 8,
         "hall_generators": ["(2 3)", "(0 1)", "(0 2)(1 3)"], "abelian": False}),
    "hall-class-count-not-one": (
        "main", "S3", "3", "enumerate_subgroups_up_to_conjugacy",
        lambda group, pi, cap: 2 * enumerate_subgroups_up_to_conjugacy(group, pi=pi, cap=cap),
        "hall-dichotomy",
        {**_S3_HALL_START, "hall_class_count": 2, "conjugacy": "2 conjugacy classes of Hall order"}),
    "hall-class-not-conjugate": (
        "main", "S3", "3", "hall_search",
        lambda group, pi, **options: HallSearchOutcome(
            "found", subgroup(group, [Permutation.from_cycles(3, [(0, 1)])]), "constructive",
            _SYLOW_CLOSURE["hall_route"]),
        "hall-dichotomy",
        {**_S3_HALL_START, "hall_order": 2, "hall_generators": ["(0 1)"], "hall_class_count": 1,
         "conjugacy": "found Hall subgroup not conjugate to an enumerated one"}),
    "hall-pi-subgroup-in-no-conjugate": (
        "main", "D12", "2", "conjugates", lambda group, sub: {sub.element_set()},
        "hall-dichotomy",
        {"d_pi": "1/1", **_SYLOW_CLOSURE, "hall_order": 4,
         "hall_generators": ["(1 5)(2 4)", "(0 3)(1 2)(4 5)"], "abelian": True,
         "hall_class_count": 1, "conjugacy": "ok",
         "containment": "pi-subgroup of order 2 in no Hall conjugate",
         "offender_generators": ["(0 1)(2 5)(3 4)"]}),
    "hall-value-outside-two-thirds-and-one": (
        "main", "C4", "2", "d_pi", lambda group, pi: PiProfile(frozenset([2]), 3, 4, Fraction(3, 4)),
        "hall-dichotomy",
        {"d_pi": "3/4", **_WHOLE_GROUP, "hall_order": 4, "hall_generators": ["(0 1 2 3)"],
         "abelian": True, "hall_class_count": 1, "conjugacy": "ok", "containment": "ok",
         "pi_subgroup_classes": 3, "dichotomy": "value outside {2/3, 1}"}),
    "hall-two-thirds-inconsistent": (
        "main", "C2", "2", "d_pi", lambda group, pi: PiProfile(frozenset(pi), 2, 3, Fraction(2, 3)),
        "hall-dichotomy",
        {"d_pi": "2/3", **_WHOLE_GROUP, "hall_order": 2, "hall_generators": ["(0 1)"],
         "abelian": True, "hall_class_count": 1, "conjugacy": "ok", "containment": "ok",
         "pi_subgroup_classes": 2,
         "two_thirds_consistency": {"three_in_pi": False, "two_in_pi": True, "d_3": None,
                                    "d_mu": "2/3"}}),
    "complement-iff": (
        "complement", "C3", "3", "normal_pi_complement_exists", lambda group, pi: False,
        "unit-iff-complement",
        {"d_pi": "1/1", "complement_exists": False, "iff": {"lhs": True, "rhs": False}}),
    "complement-part1": (
        "complement", "S4", "2", "all_d_p_one", lambda group, pi: True,
        "unit-iff-complement",
        {"d_pi": "1/2", "complement_exists": False, "iff": {"lhs": False, "rhs": False},
         "all_d_p_one": True, "part1": "d_p = 1 for all p but no normal pi-complement"}),
}


@pytest.mark.parametrize("case", list(FORCED_FAILS))
def test_forced_fail_through_the_cli_writes_a_bundle_that_replays(case, monkeypatch, tmp_path):
    """``verify`` exits 1 on the forced fail in every format, prints the
    exact witness, writes a replay bundle, and the replay of that bundle,
    under the same patch, gives the same verdict.  A per-pi claim prints
    the pi given; any other prints its fixed pi (``SUITES``), or none."""
    suite_name, group, pi, fact, stand_in, rid, witness = FORCED_FAILS[case]
    fixed = SUITES[suite_name][0]
    printed = [int(pi)] if fixed == "per-pi" else None if fixed is None else list(fixed)
    shown = ",".join(map(str, printed or []))
    monkeypatch.setattr(suite, fact, stand_in)
    pi_args = ["--pi", pi] if pi else []
    output = {}
    for fmt in ("json", "csv", "text"):
        bundle = tmp_path / fmt / f"{rid}-0"
        result = invoke(["verify", group, "--suite", suite_name, *pi_args, "--format", fmt,
                         "--bundle-dir", str(tmp_path / fmt)])
        assert result.exit_code == 1, result.output
        assert f"counterexample bundle: {bundle}\n" in result.output
        assert sorted(os.listdir(bundle)) == ["group.grp", "meta.json"]
        output[fmt] = result.stdout

    row = {"result_id": rid, "group": group, "pi": printed, "status": FAIL, "witness": witness}
    doc = json.loads(output["json"])
    assert (doc["results"], doc["summary"]) == ([row], {"fail": 1})
    assert list(csv.reader(io.StringIO(output["csv"]))) == [
        ["result_id", "group", "pi", "status", "witness"],
        [rid, group, shown, FAIL, json.dumps(witness, sort_keys=True)]]
    assert output["text"] == (f"{'FAIL':12} {rid:24} {group:16} pi={{{shown}}}\n" if printed else
                              f"{'FAIL':12} {rid:24} {group:16} pi=-\n") + "\nsummary: fail=1\n"

    replay = invoke(["verify", "--replay", str(tmp_path / "json" / f"{rid}-0")])
    assert replay.exit_code == 1, replay.output
    assert json.loads(replay.stdout)["results"] == [row]


@pytest.mark.parametrize("suite_name, pi, rid, witness", [
    pytest.param("main", "3", "hall-dichotomy", {"d_pi": "2/3", "hall": "unresolved"},
                 id="hall-dichotomy"),
    pytest.param("complement", "2", "unit-iff-complement",
                 {"d_pi": "1/1", "complement_exists": True, "complement_order": 3},
                 id="unit-iff-complement"),
])
def test_unresolved_hall_search_through_the_cli(suite_name, pi, rid, witness, monkeypatch,
                                                tmp_path):
    """A Hall search that ends unresolved makes the verdict on S3
    ``unresolved``, with exit status 0 and no bundle."""
    monkeypatch.setattr(suite, "hall_search",
                        lambda *args, **kwargs: HallSearchOutcome("unresolved", None, None, None))
    result = invoke(["verify", "S3", "--suite", suite_name, "--pi", pi,
                     "--bundle-dir", str(tmp_path / "bundles")])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["results"] == [{"result_id": rid, "group": "S3", "pi": [int(pi)],
                               "status": "unresolved", "witness": witness}]
    assert doc["summary"] == {"unresolved": 1}
    assert not (tmp_path / "bundles").exists()


# checker -> what forces each of its ``return FAIL`` and ``return
# UNRESOLVED`` branches, in source order: a key of ``FORCED_FAILS``, or a
# test of this module (with its parameter id), or None for a branch that
# no test forces yet.
BRANCHES = {
    "check_hall_dichotomy": [
        ("unresolved", "test_unresolved_hall_search_through_the_cli[hall-dichotomy]"),
        ("fail", "hall-reported-nonexistent"),
        ("fail", "hall-not-abelian"),
        ("fail", "hall-class-count-not-one"),
        ("fail", "hall-class-not-conjugate"),
        ("fail", "hall-pi-subgroup-in-no-conjugate"),
        ("fail", "hall-value-outside-two-thirds-and-one"),
        ("fail", "hall-two-thirds-inconsistent"),
    ],
    "check_unit_iff_complement": [
        ("unresolved", "test_unresolved_hall_search_through_the_cli[unit-iff-complement]"),
        ("fail", "complement-iff"),
        ("fail", "complement-part1"),
    ],
    "check_two_thirds_cap": [
        ("fail", "cap-above-two-thirds"),
        ("fail", "cap-odd-order-above-five-eighths"),
    ],
    "check_quotient_bound": [("fail", "test_quotient_bound_failure_witness_is_exact")],
    "check_sylow3_structure": [
        ("fail", "structure-sylow-not-abelian"),
        ("fail", "structure-normalizer-over-centralizer-not-two"),
        ("fail", "structure-commutator-order-not-three"),
        ("fail", "structure-not-a-direct-product"),
        ("fail", "structure-neither-case"),
    ],
    "check_commuting_threshold": [
        ("fail", "commuting-non-abelian-above-five-eighths"),
        ("fail", "commuting-abelian-at-most-five-eighths"),
    ],
    "check_selftest": [("fail", "test_selftest_fails_by_design")],
}


def fail_branches(source: str) -> dict[str, list[str]]:
    """Checker -> the statuses of its returns that can be ``FAIL`` or
    ``UNRESOLVED``, in source order, read with ``ast``: a return whose
    value names one, in a conditional expression too."""
    names = {"FAIL": FAIL, "UNRESOLVED": UNRESOLVED}
    branches = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_"):
            returns = sorted((r for r in ast.walk(node) if isinstance(r, ast.Return)),
                             key=lambda r: (r.lineno, r.col_offset))
            branches[node.name] = [names[n.id] for r in returns if r.value is not None
                                   for n in ast.walk(r.value)
                                   if isinstance(n, ast.Name) and n.id in names]
    return branches


def test_the_branch_guard_sees_a_new_fail():
    source = ("def check_x(group):\n"
              "    if group:\n"
              "        return FAIL, {}\n"
              "    return (PASS if group else UNRESOLVED), {}\n"
              "def helper():\n"
              "    return FAIL\n")
    assert fail_branches(source) == {"check_x": [FAIL, UNRESOLVED]}


def test_every_fail_and_unresolved_branch_has_a_row():
    """Each ``FAIL`` or ``UNRESOLVED`` return of every checker of
    ``suite.py`` has a row in ``BRANCHES``, in source order; each row names
    a forced-fail case or a test of this module, or None while no test
    forces it.  A new branch with no row fails here."""
    source = Path(suite.__file__).read_text()
    assert fail_branches(source) == {
        checker: [status for status, _ in rows] for checker, rows in BRANCHES.items()}
    cases = [case for rows in BRANCHES.values() for _, case in rows if case is not None]
    for case in cases:
        assert case in FORCED_FAILS or case.split("[")[0] in globals(), case
    assert len(set(cases)) == len(cases)
    assert set(FORCED_FAILS) <= set(cases)
    # the checkers of every claim, selftest included
    assert set(BRANCHES) == {check.__name__ for _, check, _ in SUITES.values()}


def _open_entries(g):
    """(order of N, pi) -> (k_pi(G), the G-classes inside N, k_pi(G/N)) for
    every lattice entry N and prime set pi that the quotient suite's lower
    bound leaves open: k_pi(G) > (G-classes inside N) * k_pi(G/N)."""
    from oracles import classes_by_support
    from piclass.classes import conjugacy_classes, pi_count
    from piclass.invariants import group_primes
    from piclass.subgroups import normal_lattice

    table = conjugacy_classes(g)
    opened = {}
    for entry in normal_lattice(g):
        in_classes = classes_by_support(table, entry.mask)
        in_quotient = table.quotient_histogram(entry.mask)
        for pi in suite._nonempty_subsets(sorted(group_primes(g))):
            bits = table.pi_bits(pi)
            lhs = pi_count(table.histogram(), bits)
            lower, k_quotient = pi_count(in_classes, bits), pi_count(in_quotient, bits)
            if lhs > lower * k_quotient:
                opened[entry.order, tuple(sorted(pi))] = (lhs, lower, k_quotient)
    return opened


def _exactly_counted(g):
    """The quotient suite's verdict on a freshly built g, and the orders of
    the N it counted exactly: those that got a class table of their own."""
    from piclass.subgroups import normal_subgroups

    verdict = check_quotient_bound(g)
    return verdict, [n.order for n in normal_subgroups(g) if "class_table" in n.cache]


def test_quotient_bound_of_agl32_splits_classes_of_its_translations():
    """AGL(3,2) (``tests/data/agl32.grp``) has the normal subgroups 1, its
    translations T = C2^3 and G.  The 7 nonzero translations form one
    G-class, so the G-classes inside T count 2 of T's 8 classes, and with
    G/T = GL(3,2) that lower bound fails: pi {2} has k_2(G) = 7 > 2 * 3, and
    pi {2, 3} has 9 > 2 * 4.  T is the one entry the suite counts exactly."""
    from pathlib import Path

    from piclass.catalog import parse_group_file
    from piclass.classes import conjugacy_classes
    from piclass.subgroups import normal_lattice

    g = parse_group_file((Path(__file__).parent / "data" / "agl32.grp").read_text())
    lattice = normal_lattice(g)
    assert ((g.order, conjugacy_classes(g).k, [e.order for e in lattice])
            == (1344, 11, [1, 8, 1344]))
    assert _open_entries(g) == {(8, (2,)): (7, 2, 3), (8, (2, 3)): (9, 2, 4)}
    assert _exactly_counted(g) == ((PASS, {"checked": 21, "normal_subgroups": 3}), [8])


@pytest.mark.parametrize("name, opened, exact, witness", [
    ("D18", {(3, (3,)): (5, 2, 2)}, [3], {"checked": 12, "normal_subgroups": 4}),
    ("D54", {(3, (3,)): (14, 2, 5), (3, (2, 3)): (15, 2, 6), (9, (3,)): (14, 5, 2)}, [3, 9],
     {"checked": 15, "normal_subgroups": 5}),
])
def test_quotient_bound_of_dihedral_groups_counts_the_open_entries_exactly(
        name, opened, exact, witness):
    """The smallest groups built by name whose quotient check leaves an N open
    (the census stops at dihedral order 16).  In D18, N = C3 is open at pi
    {3}: k_3(G) = 5 > 2 * 2, and its 3 classes give 3 * 2 = 6.  In D54 the
    entries of orders 3 and 9 are open.  Exactly those N get a class table,
    and every bound passes."""
    g = build(parse_name(name))  # fresh: no caches shared with other tests
    assert _open_entries(g) == opened
    assert _exactly_counted(g) == ((PASS, witness), exact)


def test_quotient_bound_without_the_class_count_shortcut(census_entries, monkeypatch):
    """With the G-classes inside N counted as none, the lower bound decides
    no N and every N is counted on its own class table: the verdicts and
    witnesses of the census stay the same."""
    from piclass.classes import conjugacy_classes

    shortcut = [(name, check_quotient_bound(g)) for name, g in census_entries]
    for _, g in census_entries:  # G's table alone: N's tables count their classes as ever
        monkeypatch.setattr(conjugacy_classes(g), "k_pi_lower_bound", lambda normal, bits: 0)
    k_pi, tables = suite.k_pi, {}

    def counted_k_pi(n, pi):
        tables[id(n)] = n
        return k_pi(n, pi)

    monkeypatch.setattr(suite, "k_pi", counted_k_pi)
    assert [(name, check_quotient_bound(g)) for name, g in census_entries] == shortcut
    assert len(tables) == sum(witness["normal_subgroups"] for _, (_, witness) in shortcut)


def test_sylow3_structure_cases(named):
    status, witness = check_sylow3_structure(named("S3"))
    assert status == PASS
    assert witness["case1_self_centralizing_normal"] is True
    assert witness["normalizer_over_centralizer"] == 2
    assert witness["commutator_order"] == 3
    assert witness["internal_direct_product"] is True

    status, witness = check_sylow3_structure(named("A5 x C3"))
    assert status == PASS
    assert witness["case2_almost_simple_times_3group"] is True
    assert witness["case2_witness"]["A_order"] == 60
    assert witness["case2_witness"]["B_order"] == 3

    status, witness = check_sylow3_structure(named("A4"))
    assert status == VACUOUS and witness["d_3"] == "1/1"


def test_commuting_threshold_examples(named):
    assert check_commuting_threshold(named("C6"))[0] == PASS
    status, witness = check_commuting_threshold(named("D8"))
    assert status == VACUOUS and witness["d"] == "5/8"
    assert check_commuting_threshold(named("S3"))[0] == VACUOUS


def test_selftest_fails_by_design(named):
    status, witness = check_selftest(named("D8"))
    assert status == FAIL
    assert witness == {"d_2": "5/8", "pinned": "1/2"}


def test_resolve_suites():
    assert resolve_suites("all") == [
        "main", "complement", "cap", "quotient", "structure", "commuting"]
    assert resolve_suites(["main", "main"]) == ["main"]
    with pytest.raises(ValueError):
        resolve_suites("bogus")
    assert "selftest" not in resolve_suites("all")


def test_status_taxonomy_total(named):
    for name in ["S3", "C6", "A4", "D8 x C3"]:
        for r in run_group_suite(named(name), name, "all"):
            assert r.status in STATUSES
            assert r.result_id
            assert isinstance(r.witness, dict)


@pytest.mark.parametrize("filename, order, k", [
    ("sl23.grp", 24, 7),
    ("gl23.grp", 48, 8),
    ("agl1_11.grp", 110, 11),
    ("agl1_13.grp", 156, 13),
])
def test_linear_and_affine_group_files(filename, order, k):
    """SL(2,3) and GL(2,3) on the nonzero vectors of F_3^2, AGL(1,11) and
    AGL(1,13): their known orders and class counts, and no default suite
    fails on them."""
    g = parse_group_file((Path(__file__).parent / "data" / filename).read_text())
    assert (g.order, conjugacy_classes(g).k) == (order, k)
    statuses = {r.status for r in run_group_suite(g, filename, DEFAULT_SUITES)}
    assert statuses <= {PASS, VACUOUS}, statuses


def test_campaign_tiny_census_zero_fails():
    entries = list(census(Config(cyclic_max=6, dihedral_max_order=8,
                                symmetric_max=4, alternating_max=4,
                                max_order=60)))
    result = run_census_campaign(entries, "all")
    assert result.summary.get("fail", 0) == 0
    assert not result.failures
    assert sum(result.summary.values()) == len(result.reports)


def test_campaign_empty_census():
    result = run_census_campaign([], "all")
    assert result.reports == [] and result.summary == {}


def test_campaign_workers_agree():
    entries = list(census(Config(cyclic_max=5, dihedral_max_order=6,
                                symmetric_max=3, alternating_max=4,
                                max_order=30)))
    suites = ["cap", "commuting"]
    seq = run_census_campaign(entries, suites, Config())
    # the call the benchmark's workloads make
    bench = suite.run_census_campaign(entries, suites, suite.Limits(), workers=1)
    assert [r.as_dict() for r in bench.reports] == [r.as_dict() for r in seq.reports]


def test_campaign_runs_on_one_thread():
    with pytest.raises(InvalidInputError, match="workers must be 1"):
        run_census_campaign([], "all", workers=2)


def test_bundle_round_trip(tmp_path, named):
    d8 = named("D8")
    verdict = run_group_suite(d8, "D8", ["selftest"])[0]
    path = write_counterexample_bundle(tmp_path / "bundle", d8, verdict, {"seed": 0})
    replayed, _ = replay_counterexample(path)
    assert replayed.status == verdict.status == FAIL
    assert replayed.witness == verdict.witness


# selector -> the result id its verdicts and replay bundles carry
RESULT_IDS = {
    "main": "hall-dichotomy",
    "complement": "unit-iff-complement",
    "cap": "two-thirds-cap",
    "quotient": "quotient-bound",
    "structure": "sylow3-structure",
    "commuting": "commuting-threshold",
    "selftest": "selftest-fixed-value",
}


def test_bundle_replay_every_suite(tmp_path, named):
    """Every claim, selftest included, replays to its own result id and
    printed pi: a per-pi claim prints its prime set sorted, structure (3,),
    selftest (2,), and the claims over every pi None."""
    s3 = named("S3")
    pi = [3, 2]
    fixed_pi = {"structure": (3,), "selftest": (2,)}
    assert set(SUITES) == set(RESULT_IDS)
    for suite_name, (pis, _check, rid) in SUITES.items():
        verdict = run_group_suite(s3, "S3", [suite_name], pi_sets=[pi])[0]
        assert verdict.result_id == rid == RESULT_IDS[suite_name]
        if pis == "per-pi":
            assert verdict.pi == tuple(sorted(pi)) == (2, 3)
        else:
            assert verdict.pi == pis == fixed_pi.get(suite_name)
        path = write_counterexample_bundle(tmp_path / suite_name, s3, verdict, {})
        replayed, _ = replay_counterexample(path)
        assert (replayed.result_id, replayed.pi) == (verdict.result_id, verdict.pi)
        assert replayed.status == verdict.status
        assert replayed.witness == verdict.witness


def test_bundle_replays_under_its_recorded_caps(tmp_path, named):
    c12 = named("C12")
    verdict = run_group_suite(c12, "C12", ["main"], Config(subgroup_cap=10), pi_sets=[[2, 3]])[0]
    assert verdict.status == PARTIAL
    config = Config(subgroup_cap=10).to_dict()
    path = write_counterexample_bundle(tmp_path / "capped", c12, verdict, config)
    replayed, replayed_config = replay_counterexample(path)
    assert replayed.status == PARTIAL
    assert replayed.witness == verdict.witness
    assert replayed_config == Config(subgroup_cap=10)


def test_verdict_serialization_excludes_timing(named):
    v = run_group_suite(named("S3"), "S3", ["commuting"])[0]
    assert "seconds" not in v.as_dict()


# -- records ------------------------------------------------------------------

RECORDS = [Config, GroupSpec, PiProfile, CentralizerDecomposition, LatticeEntry, QuotientGroup,
           HallSearchOutcome, VerdictReport, CampaignResult]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_immutable_tuples(record):
    """Each record is a NamedTuple: assigning a field raises AttributeError,
    and no field is named after a tuple method it would shadow."""
    instance = Config() if record is Config else record._make([None] * len(record._fields))
    assert isinstance(instance, tuple)
    with pytest.raises(AttributeError):
        setattr(instance, record._fields[0], 1)
    assert not {"count", "index"} & set(record._fields)


@pytest.mark.parametrize("change, message", [
    ({"max_order": "x"}, "max_order must be int, not 'x'"),
    ({"max_order": True}, "max_order must be int, not True"),
    ({"max_order": 10.0}, "max_order must be int, not 10.0"),
    ({"include_quaternion": "no"}, "include_quaternion must be bool, not 'no'"),
    ({"output_format": 1}, "output_format must be str, not 1"),
    ({"cache_dir": "x"}, "cache_dir must be null: piclass keeps no on-disk cache"),
    ({"workers": 2}, "workers must be 1: the campaign runs on one thread"),
    ({"max_quotient_degree": 2},
     "max_quotient_degree must be 2048: no check builds G/N, so nothing reads it"),
    ({"subgroup_cap": 0}, "subgroup_cap must be positive"),
    ({"hall_budget": -1}, "hall_budget must be >= 0"),
    ({"output_format": "xml"}, "unknown output format: 'xml'"),
])
def test_config_refuses_a_bad_field_however_it_is_made(change, message):
    """By keyword, from a dict, and by ``_replace`` alike."""
    for make in (lambda: Config(**change), lambda: Config.from_dict(change),
                 lambda: Config()._replace(**change)):
        with pytest.raises(InvalidInputError) as info:
            make()
        assert str(info.value) == message


def test_config_from_dict_refuses_unknown_keys_and_non_objects():
    with pytest.raises(InvalidInputError) as info:
        Config.from_dict({"max_ordr": 10, "b": 1, "seed": 2})
    assert str(info.value) == "unknown config keys: ['b', 'max_ordr']"
    with pytest.raises(InvalidInputError) as info:
        Config.from_dict([])
    assert str(info.value) == "a config must be a JSON object, not []"


def test_config_to_dict_keeps_the_report_key_order():
    assert list(Config().to_dict().items()) == [
        ("max_elements", 100_000), ("max_degree", 128), ("max_quotient_degree", 2048),
        ("subgroup_cap", 2000), ("hall_budget", 20), ("workers", 1), ("seed", 0),
        ("max_order", 2000), ("cyclic_max", 12), ("dihedral_max_order", 16),
        ("symmetric_max", 5), ("alternating_max", 5), ("include_quaternion", True),
        ("cache_dir", None), ("output_format", "json")]
    config = Config(seed=3, max_order=72)
    assert Config.from_dict(config.to_dict()) == config


def test_verdict_report_needs_its_witness():
    with pytest.raises(TypeError):
        VerdictReport("selftest-fixed-value", "S3", (2,), "fail")

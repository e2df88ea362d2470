"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every check is exact (integer or Fraction equality); the runtime bounds are
asserted with wall-clock measurements.  The census fixture is shared, so
cached class tables and subgroup lattices carry across criteria exactly the
way a single campaign run would reuse them.
"""

import time
from fractions import Fraction

from oracles import (
    classes_by_support,
    commuting_pair_count,
    naive_closure,
    normal_classes_by_support,
)
from piclass.catalog import build, parse_name, product
from piclass.classes import conjugacy_classes, k_pi, pi_count
from piclass.config import Config
from piclass.invariants import (
    commuting_degree,
    d_pi,
    group_primes,
    k_pi_by_centralizer_decomposition,
)
from piclass.subgroups import (
    hall_search,
    normal_subgroups,
    normalizer,
    quotient,
    sylow_subgroup,
)
from piclass.suite import (
    _nonempty_subsets,
    check_hall_dichotomy,
    check_sylow3_structure,
    check_unit_iff_complement,
)

FIVE_EIGHTHS = Fraction(5, 8)
TWO_THIRDS = Fraction(2, 3)


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_tightness_of_five_eighths():
    t0 = time.perf_counter()
    assert d_pi(build(parse_name("D8 x C3")), [2]).d_pi == FIVE_EIGHTHS
    for m in (3, 5, 7, 9, 15):
        g = build(product(parse_name("D8"), parse_name(f"C{m}")))
        assert d_pi(g, [2]).d_pi == FIVE_EIGHTHS, f"D8 x C{m}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report("1 (5/8 tightness)", f"D8 x C_m for m in 3,5,7,9,15; {elapsed:.2f}s")


def test_criterion_02_simple_group_value():
    t0 = time.perf_counter()
    assert d_pi(build(parse_name("A5")), [3]).d_pi == TWO_THIRDS
    assert d_pi(build(parse_name("A5 x C3")), [3]).d_pi == TWO_THIRDS
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report("2 (simple-group 2/3)", f"{elapsed:.2f}s")


def test_criterion_03_commuting_threshold_sweep(census_entries):
    t0 = time.perf_counter()
    violations = []
    for name, g in census_entries:
        if commuting_degree(g) > FIVE_EIGHTHS and not g.is_abelian():
            violations.append(name)
    elapsed = time.perf_counter() - t0
    assert violations == []
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5min"
    _report("3 (commuting threshold sweep)",
            f"{len(census_entries)} groups, 0 violations, {elapsed:.1f}s")


def test_criterion_04_hall_dichotomy_campaign(census_entries):
    t0 = time.perf_counter()
    config = Config()
    statuses = {}
    fails = []
    pairs = 0
    for name, g in census_entries:
        for pi in _nonempty_subsets(group_primes(g)):
            status, witness = check_hall_dichotomy(g, pi, config=config)
            statuses[status] = statuses.get(status, 0) + 1
            pairs += 1
            if status not in ("pass", "vacuous"):
                fails.append((name, sorted(pi), status, witness))
    elapsed = time.perf_counter() - t0
    assert fails == []
    assert statuses.get("pass", 0) > 0 and statuses.get("vacuous", 0) > 0
    assert elapsed < 1800, f"runtime {elapsed:.1f}s exceeds 30min"
    _report("4 (hall dichotomy campaign)",
            f"{pairs} (G, pi) pairs, statuses {statuses}, {elapsed:.1f}s")


def test_criterion_05_decomposition_identity(census_entries):
    mismatches = []
    triples = 0
    for name, g in census_entries:
        for pi in _nonempty_subsets(group_primes(g)):
            if len(pi) < 2:
                continue
            for p in sorted(pi):
                triples += 1
                dec = k_pi_by_centralizer_decomposition(g, pi, p)
                if dec.total != k_pi(g, pi):
                    mismatches.append((name, sorted(pi), p))
    assert mismatches == []
    _report("5 (centralizer decomposition)", f"{triples} (G, pi, p) triples, exact")


def test_criterion_06_chain_inequality(census_entries):
    checked = 0
    for name, g in census_entries:
        primes = group_primes(g)
        if not primes:
            continue
        d_g = commuting_degree(g)
        subsets = _nonempty_subsets(primes)
        values = {pi: d_pi(g, pi).d_pi for pi in subsets}
        for pi in subsets:
            assert d_g <= values[pi] <= 1, (name, sorted(pi))
            for mu in subsets:
                if mu < pi:
                    checked += 1
                    assert values[pi] <= values[mu], (name, sorted(mu), sorted(pi))
    _report("6 (chain inequality)", f"{checked} nested pairs, exact comparisons")


def test_criterion_07_unit_iff_characterization(census_entries):
    config = Config()
    pairs = 0
    for name, g in census_entries:
        for pi in _nonempty_subsets(group_primes(g)):
            pairs += 1
            status, witness = check_unit_iff_complement(g, pi, config=config)
            assert status == "pass", (name, sorted(pi), witness)
    _report("7 (d_pi = 1 iff complement + abelian Hall)", f"{pairs} (G, pi) pairs")


def test_criterion_08_quotient_submultiplicativity(census_entries):
    t0 = time.perf_counter()
    checked = 0
    for name, g in census_entries:
        # 2 joins G's primes, so an odd |G| is also checked at a prime outside it
        subsets = _nonempty_subsets(group_primes(g) | {2})
        table = conjugacy_classes(g)
        for n in normal_subgroups(g):
            q = quotient(g, n)
            # N's classes per prime support of G, from N's own class table
            in_normal = normal_classes_by_support(table, n)
            # the quotient suite's fast path: G/N's classes per prime support
            mask = table.normal_mask(n.element_set())
            in_quotient = table.quotient_histogram(mask)
            # the suite's lower bound: each G-class inside N is a union of N-classes
            for support, count in classes_by_support(table, mask).items():
                assert count <= in_normal.get(support, 0), (name, n.order, support)
            for pi in subsets:
                lhs = d_pi(g, pi).d_pi
                rhs = d_pi(n, pi).d_pi * d_pi(q.group, pi).d_pi
                assert lhs <= rhs, (name, n.order, sorted(pi), str(lhs), str(rhs))
                # the fast paths agree with the class tables of N and of G/N
                bits, where = table.pi_bits(pi), (name, n.order, sorted(pi))
                assert pi_count(in_normal, bits) == k_pi(n, pi), where
                assert pi_count(in_quotient, bits) == k_pi(q.group, pi), where
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 900, f"runtime {elapsed:.1f}s exceeds 15min"
    _report("8 (quotient submultiplicativity)",
            f"{checked} (G, N, pi) checks via coset actions, fast paths agree, "
            f"{elapsed:.1f}s")


def test_criterion_09_burnside_fusion(census_entries):
    pairs = 0
    for name, g in census_entries:
        for p in sorted(group_primes(g)):
            syl = sylow_subgroup(g, p)
            if not syl.is_abelian():
                continue
            pairs += 1
            norm = normalizer(g, syl)
            assert d_pi(g, [p]).d_pi == d_pi(norm, [p]).d_pi, (name, p)
    _report("9 (abelian-Sylow fusion equality)", f"{pairs} (G, p) pairs, exact")


def test_criterion_10_sylow3_structure_instances():
    t0 = time.perf_counter()
    s3 = build(parse_name("S3"))
    status, witness = check_sylow3_structure(s3)
    assert status == "pass"
    assert witness["case1_self_centralizing_normal"] is True
    assert witness["normalizer_over_centralizer"] == 2
    assert witness["commutator_order"] == 3
    assert witness["internal_direct_product"] is True

    a5c3 = build(parse_name("A5 x C3"))
    status, witness = check_sylow3_structure(a5c3)
    assert status == "pass"
    assert witness["case2_almost_simple_times_3group"] is True
    assert witness["case2_witness"]["A_order"] == 60
    assert witness["case2_witness"]["B_order"] == 3
    assert witness["normalizer_over_centralizer"] == 2
    assert witness["commutator_order"] == 3
    assert witness["internal_direct_product"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 1min"
    _report("10 (structure at d_3 = 2/3)", f"case(1)=S3, case(2)=A5 x C3, {elapsed:.1f}s")


def test_criterion_11_oracle_equivalence(census_entries):
    """The chain's elements against the naive closure and the commuting
    degree against the pair count, on every census group.  The class
    partitions are compared with the brute-force partition by the
    ``conjugacy_classes`` row of ``test_fast_paths.FAST_PATHS``."""
    t0 = time.perf_counter()
    for name, g in census_entries:
        elements = g.element_list()
        closure = naive_closure(list(g.generators))
        assert g.order == len(closure), name
        assert {e.images for e in elements} == closure, name
        assert commuting_degree(g) == Fraction(
            commuting_pair_count(elements), g.order ** 2), name
    elapsed = time.perf_counter() - t0
    _report("11 (oracle equivalence)",
            f"{len(census_entries)} groups: BSGS vs closure, d vs pair count "
            f"(classes vs brute: FAST_PATHS); {elapsed:.1f}s")


def test_criterion_12_negative_control():
    outcome = hall_search(build(parse_name("A5")), [3, 5])
    assert outcome.status == "none_exists"
    assert outcome.method == "exhaustive"
    assert outcome.subgroup is None
    # same search without the exhaustive tier stays honest: unresolved, not none
    throttled = hall_search(build(parse_name("A5")), [3, 5], budget=0, subgroup_cap=10)
    assert throttled.status == "unresolved"
    _report("12 (negative control)",
            "A5 pi={3,5}: none_exists from the exhaustive tier; unresolved when throttled")

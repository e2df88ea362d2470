import pytest

from piclass import suite
from piclass.catalog import build, census, parse_name
from piclass.config import Config
from piclass.errors import CapExceededError, InvalidInputError
from piclass.suite import (
    DEFAULT_SUITES,
    FAIL,
    PASS,
    PARTIAL,
    VACUOUS,
    SUITES,
    check_commuting_threshold,
    check_hall_dichotomy,
    check_quotient_bound,
    check_selftest,
    check_sylow3_structure,
    check_two_thirds_cap,
    check_unit_iff_complement,
    replay_counterexample,
    resolve_suites,
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

    config = Config(max_quotient_degree=2)
    status, witness = check_quotient_bound(named("S4"), config=config)
    assert status == PARTIAL
    assert "skipped" in witness


def _c4_failing_the_quotient_bound(monkeypatch):
    """C4 and its N = C2, with the quotient histogram of N made to count the
    identity's class alone: k_2(G/N) = 1, and k_2(C4) = 4 > k_2(N) * 1 = 2.
    No census group fails the bound."""
    from piclass.classes import ClassTable, conjugacy_classes
    from piclass.subgroups import normal_subgroups

    g = build(parse_name("C4"))
    _, n, _ = normal_subgroups(g)
    patched = conjugacy_classes(g).normal_masks[n.element_set()]
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
    s4 = named("S4")
    verdict = run_group_suite(s4, "S4", ["quotient"], Config(max_quotient_degree=2))[0]
    assert verdict.status == PARTIAL
    config = Config(max_quotient_degree=2).to_dict()
    path = write_counterexample_bundle(tmp_path / "capped", s4, verdict, config)
    replayed, replayed_config = replay_counterexample(path)
    assert replayed.status == PARTIAL
    assert replayed.witness == verdict.witness
    assert replayed_config == Config(max_quotient_degree=2)


def test_verdict_serialization_excludes_timing(named):
    v = run_group_suite(named("S3"), "S3", ["commuting"])[0]
    assert "seconds" not in v.as_dict()

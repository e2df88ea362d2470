from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lemmas import (
    burnside_criterion,
    class_count_product_bound,
    d_pi_hall_average,
    product_lower_bound_check,
)
from oracles import is_normal
from piclass.classes import ClassTable, conjugacy_classes, k_pi
from piclass.errors import InvalidInputError, PreconditionError
from piclass.invariants import (
    commuting_degree,
    d_pi,
    group_primes,
    has_normal_pi_complement,
    k_pi_by_centralizer_decomposition,
    normal_pi_complement_exists,
)
from piclass.numtheory import MAX_PRIME, is_prime, pi_part, prime_factors, validate_pi
from piclass.suite import _nonempty_subsets
from test_fast_paths import GROUP_SETS


def test_pi_part_of_integer_examples():
    assert pi_part(24, frozenset([2])) == 8
    assert pi_part(24, frozenset([2, 3])) == 24
    assert pi_part(24, frozenset([5, 7])) == 1
    assert pi_part(1, frozenset([2])) == 1


@given(st.integers(min_value=1, max_value=10_000),
       st.sets(st.sampled_from([2, 3, 5, 7, 11]), min_size=1))
def test_pi_part_properties(n, pi):
    pi = frozenset(pi)
    a = pi_part(n, pi)
    assert n % a == 0
    rest = n // a
    assert all(p not in pi for p in prime_factors(rest))
    assert set(prime_factors(a)) <= pi


def test_validate_pi_rejects_junk():
    with pytest.raises(ValueError):
        validate_pi([4])
    with pytest.raises(ValueError):
        validate_pi([])
    assert validate_pi([3, 2]) == frozenset([2, 3])


def test_validate_pi_memo_admits_only_sets_that_passed():
    """Once {2} has passed, an equal frozenset of ints is returned unchecked,
    and nothing else gets through: not {4}, not [2, 4], not {2.0}."""
    assert validate_pi(frozenset([2])) == frozenset([2])
    assert validate_pi(frozenset([2])) == frozenset([2])
    for junk in (frozenset([4]), [2, 4], frozenset([2.0])):
        with pytest.raises(InvalidInputError, match="not a prime"):
            validate_pi(junk)


def test_validate_pi_refuses_primes_above_the_limit():
    assert validate_pi([MAX_PRIME]) == frozenset([MAX_PRIME])  # 2**31 - 1 is prime
    with pytest.raises(InvalidInputError, match="prime too large"):
        validate_pi([2, 2147483659])  # the least prime above the limit


@given(st.integers(min_value=2, max_value=2000))
def test_is_prime_against_factorization(n):
    assert is_prime(n) == (prime_factors(n) == [n])


def test_d_pi_known_values(named):
    assert d_pi(named("D8 x C3"), [2]).d_pi == Fraction(5, 8)
    assert d_pi(named("A5"), [3]).d_pi == Fraction(2, 3)
    assert d_pi(named("A5 x C3"), [3]).d_pi == Fraction(2, 3)


def test_d_pi_abelian_is_one(named):
    for name in ["C6", "C12", "C8 x C8"]:
        g = named(name)
        for p in group_primes(g):
            assert d_pi(g, [p]).d_pi == 1
        assert d_pi(g, sorted(group_primes(g))).d_pi == 1


def test_profile_invariants(named):
    for name in ["S3", "S4", "A5", "D8 x C3"]:
        g = named(name)
        for p in group_primes(g):
            prof = d_pi(g, [p])
            assert prof.d_pi == Fraction(prof.k_pi, prof.order_pi)
            assert 0 < prof.d_pi <= 1
            assert g.order % prof.order_pi == 0
            rest = g.order // prof.order_pi
            assert all(q != p for q in prime_factors(rest))


def test_chain_inequality_spot(named):
    g = named("A5")
    d = commuting_degree(g)
    d23 = d_pi(g, [2, 3]).d_pi
    d3 = d_pi(g, [3]).d_pi
    assert d <= d23 <= d3 <= 1


def test_decomposition_examples(named):
    s4 = named("S4")
    dec = k_pi_by_centralizer_decomposition(s4, [2, 3], 2)
    assert dec.total == 5 == k_pi(s4, [2, 3])
    assert sorted(dec.summands, reverse=True)[0] == max(dec.summands)
    # the argmax subgroup realizes the two-factor bound
    mu_k = k_pi(s4, [3])
    assert dec.total <= mu_k * max(dec.summands)

    a5c3 = named("A5 x C3")
    dec = k_pi_by_centralizer_decomposition(a5c3, [2, 3], 2)
    assert dec.total == k_pi(a5c3, [2, 3])


def test_decomposition_requires_mu(named):
    with pytest.raises(PreconditionError):
        k_pi_by_centralizer_decomposition(named("S4"), [2], 2)
    with pytest.raises(PreconditionError):
        k_pi_by_centralizer_decomposition(named("S4"), [3], 2)


def test_p_group_single_mu_class(named):
    d8c3 = named("D8 x C3")
    # q = 5 does not divide the order: mu-classes reduce to the identity class
    dec = k_pi_by_centralizer_decomposition(d8c3, [2, 5], 2)
    assert dec.summands == (k_pi(d8c3, [2]),)
    assert dec.total == conjugacy_classes(named("D8")).k


def test_hall_average_examples(named):
    assert d_pi_hall_average(named("C6"), [2, 3], 2) == 1
    s3c5 = named("S3 x C5")
    assert d_pi_hall_average(s3c5, [3, 5], 3) == Fraction(2, 3)
    assert d_pi_hall_average(s3c5, [3, 5], 3) == d_pi(s3c5, [3, 5]).d_pi
    d8c3 = named("D8 x C3")
    assert d_pi_hall_average(d8c3, [2, 3], 2) == Fraction(5, 8)


def test_hall_average_precondition(named):
    # mu = {2}: S4 has no normal 2-complement, so the formula must refuse
    with pytest.raises(PreconditionError):
        d_pi_hall_average(named("S4"), [2, 3], 3)


def test_product_lower_bound(named):
    lhs, rhs, holds = product_lower_bound_check(named("C12"), [2, 3])
    assert (lhs, rhs, holds) == (1, 1, True)
    s3c5 = named("S3 x C5")
    lhs, rhs, holds = product_lower_bound_check(s3c5, [3, 5])
    assert holds and lhs == Fraction(2, 3) and rhs == Fraction(2, 3)


def test_product_lower_bound_inapplicable(named):
    with pytest.raises(PreconditionError):
        product_lower_bound_check(named("S3"), [2, 3])
    with pytest.raises(PreconditionError):
        product_lower_bound_check(named("D8 x C3"), [2, 3])


def test_class_product_bound_examples(named):
    d8 = named("D8")
    rb = class_count_product_bound(d8, [2])
    assert rb.holds and rb.product == conjugacy_classes(d8).k

    rb = class_count_product_bound(named("S4"), [2, 3])
    assert rb.holds
    assert rb.k_pi_value == 5
    assert len(rb.witnesses) == 2
    for q, p in zip(rb.witnesses, rb.primes):
        assert set(prime_factors(q.order)) <= {p}

    rb = class_count_product_bound(named("A5"), [2, 3, 5])
    assert rb.holds


def test_normal_complement_examples(named):
    a4 = named("A4")
    exists, comp = has_normal_pi_complement(a4, [3])
    assert exists and comp.order == 4 and is_normal(a4, comp)

    exists, comp = has_normal_pi_complement(named("S4"), [2])
    assert not exists and comp is None

    exists, comp = has_normal_pi_complement(named("S3"), [5])
    assert exists and comp.order == 6

    assert [normal_pi_complement_exists(named(name), pi) for name, pi in
            [("A4", [3]), ("S4", [2]), ("S3", [5]), ("D10 x C3", [2, 3])]] == [
        True, False, True, True]


def test_a_complement_of_the_wrong_size_closes_no_core(named):
    """S3 has four {2}-elements, not |S3|_{2} = 2, so it has no normal
    {3}-complement, and the answer closes no normal core."""
    table = conjugacy_classes(named("S3"))
    with mock.patch.object(ClassTable, "normal_core",
                           side_effect=AssertionError("normal_core called")) as core:
        assert normal_pi_complement_exists(named("S3"), [3]) is False
    core.assert_not_called()
    assert table.order(table.pi_classes(table.pi_bits([2]))) == 4


def test_normal_complement_soundness(named):
    for name in ["A4", "S3", "C12", "D12", "S3 x C5"]:
        g = named(name)
        for p in group_primes(g):
            exists, comp = has_normal_pi_complement(g, [p])
            if exists:
                assert is_normal(g, comp)
                assert comp.order == g.order // pi_part(g.order, frozenset([p]))
                assert all(q != p for q in prime_factors(comp.order))


def test_burnside_predicate_implies_complement(named, census_entries):
    a4 = named("A4")
    assert burnside_criterion(a4, 3)
    assert not burnside_criterion(named("S4"), 2)
    for name, g in census_entries[:60]:
        for p in group_primes(g):
            if burnside_criterion(g, p):
                assert has_normal_pi_complement(g, [p])[0], (name, p)


def test_normal_pi_complement_multi_prime(named):
    d10c3 = named("D10 x C3")
    exists, comp = has_normal_pi_complement(d10c3, [2, 3])
    assert exists and comp.order == 5


def test_d_pi_above_five_eighths_is_two_thirds_or_one(group_of):
    """The paper's corollary: d_pi > 5/8 forces d_pi to be 2/3 or 1.  Read
    from ``d_pi`` itself, not from the Hall check, for every nonempty pi
    inside the primes of |G|, on every group of the CENSUS and DATA sets;
    both values occur."""
    seen = set()
    for group_set in ("CENSUS", "DATA"):
        for name in GROUP_SETS[group_set]:
            g = group_of(group_set, name)
            for pi in _nonempty_subsets(group_primes(g)):
                value = d_pi(g, pi).d_pi
                if value > Fraction(5, 8):
                    assert value in (Fraction(2, 3), 1), (name, sorted(pi), value)
                    seen.add(value)
    assert seen == {Fraction(2, 3), 1}

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import elements_by_transversal_products, naive_closure
from piclass.group import PermGroup
from piclass.perm import Permutation, parse_cycle_text


def test_symmetric_group_order(named):
    assert named("S4").order == 24


def test_dihedral_order(named):
    assert named("D8").order == 8


def test_a5_order_against_naive_closure(named):
    a5 = named("A5")
    assert a5.order == 60
    assert a5.order == len(naive_closure(list(a5.generators)))


def test_membership_examples(named):
    a4 = named("A4")
    assert Permutation.identity(4) in a4
    assert parse_cycle_text("(0 1)", 4) not in a4
    assert parse_cycle_text("(0 1)(2 3)", 4) in a4


@pytest.mark.parametrize("name", ["S3", "S4", "A4", "D8", "Q8", "D8 x C3", "A5"])
def test_membership_matches_naive(name, named):
    g = named(name)
    closure = naive_closure(list(g.generators))
    assert g.order == len(closure)
    # membership agrees on everything in the group and on a few outsiders
    for p in list(g.elements())[:50]:
        assert p.images in closure
    outsider = parse_cycle_text("(0 1)", g.degree)
    assert g.contains(outsider) == (outsider.images in closure)


def test_elements_distinct_and_complete(named):
    d8 = named("D8")
    els = list(d8.elements())
    assert len(els) == 8
    assert len(set(els)) == 8
    assert {e.images for e in els} == naive_closure(list(d8.generators))


def test_trivial_group():
    g = PermGroup([Permutation.identity(3)])
    assert g.order == 1
    assert list(g.elements()) == [Permutation.identity(3)]


def test_order_invariant_under_base_regeneration(named):
    a5 = named("A5")
    for hint in ([4, 2], [3], [0, 1, 2, 3, 4]):
        rebuilt = PermGroup(list(a5.generators), base_hint=hint)
        assert rebuilt.base[:len(hint)] == tuple(hint)
        assert rebuilt.order == 60
        assert set(rebuilt.elements()) == set(a5.elements())


def test_listing_order_is_the_transversal_product_order(census_entries, named):
    """The chain order the report reaches: every census group of order <= 72,
    and A5 on a hinted base, lists its elements as the ``__mul__`` products
    of transversal elements, deepest level fastest."""
    groups = [g for _, g in census_entries if g.order <= 72]
    groups.append(PermGroup(list(named("A5").generators), base_hint=[4, 2]))
    for g in groups:
        assert list(g.elements()) == elements_by_transversal_products(g), g


def test_generators_pass_membership(named):
    for name in ["S4", "Q8", "A5 x C3"]:
        g = named(name)
        for gen in g.generators:
            assert g.contains(gen)


def test_lagrange_exhaustive_small(named):
    for name in ["S3", "D8", "Q8", "A4"]:
        g = named(name)
        for p in g.elements():
            assert g.order % p.order() == 0


def test_random_element_trivial_group():
    g = PermGroup([Permutation.identity(2)])
    rng = random.Random(7)
    assert g.random_element(rng).is_identity()


def test_random_element_c2_pinned_counts(named):
    c2 = named("C2")
    rng = random.Random(0)
    draws = [c2.random_element(rng).is_identity() for _ in range(1000)]
    assert draws.count(True) == 503
    assert draws.count(False) == 497


def test_random_element_deterministic_stream(named):
    s4 = named("S4")
    first = [s4.random_element(random.Random(11)) for _ in range(40)]
    second = [s4.random_element(random.Random(11)) for _ in range(40)]
    assert first == second
    for p in first:
        assert s4.contains(p)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=3))
def test_random_generated_groups_match_naive_closure(image_lists):
    gens = [Permutation(images) for images in image_lists]
    g = PermGroup(gens)
    closure = naive_closure(gens)
    assert g.order == len(closure)
    assert {e.images for e in g.elements()} == closure

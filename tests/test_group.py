import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_by_permutation_products, elements_by_transversal_products, naive_closure
from test_census_metamorphic import _disguised
from piclass.group import PermGroup
from piclass.perm import (
    Permutation,
    compose_images,
    conjugation_pairs,
    parse_cycle_text,
)


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


def test_a_subgroup_lists_its_element_set_without_a_chain(named):
    """A subgroup built with its element set lists it, through ``elements``
    as through ``element_list``, in sorted image order and builds no
    Schreier-Sims chain."""
    from piclass.subgroups import sylow_subgroup

    p = sylow_subgroup(PermGroup(list(named("S4").generators)), 2)
    assert list(p.elements()) == p.element_list()
    assert p.element_list()[0] == Permutation.identity(4)
    assert p._levels is None


def _levels(levels) -> list:
    return [(lvl.point, lvl.gens, lvl.orbit, list(lvl.transversal.items())) for lvl in levels]


def _product_levels(levels) -> list:
    """``_levels`` of a ``chain_by_permutation_products`` chain, on images."""
    return [(lvl.point, [g.images for g in lvl.gens], lvl.orbit,
             [(x, u.images) for x, u in lvl.transversal.items()]) for lvl in levels]


def _agl1_257_x_s5() -> PermGroup:
    """AGL(1,257) on points 0..256 (x -> x+1 and x -> 3x; 3 is a primitive
    root mod 257) times S5 on points 257..261: degree 262, tuple images."""
    n = 262
    shift = Permutation([*((x + 1) % 257 for x in range(257)), *range(257, n)])
    scale = Permutation([*((3 * x) % 257 for x in range(257)), *range(257, n)])
    five = Permutation.from_cycles(n, [range(257, 262)])
    swap = Permutation.from_cycles(n, [[257, 258]])
    return PermGroup([shift, five, scale, swap])


def test_chain_matches_the_permutation_product_oracle(census_entries, named):
    """The chain built on images with inverse tables equals the one built
    from ``Permutation`` products and inverses: base, strong generators,
    orbits and transversals (in orbit order) at every level, the library's
    read as the images its stored chain keeps.  On every census group as
    built and disguised, on A5 under the base hints of
    ``test_order_invariant_under_base_regeneration``, and on a group of
    degree 262, whose images are tuples."""
    groups = []
    for name, g in census_entries:
        groups.append(PermGroup(list(g.generators)))
        groups.append(_disguised(g, random.Random(f"chain/{name}")))
    a5 = list(named("A5").generators)
    groups += [PermGroup(a5, base_hint=hint) for hint in ([4, 2], [3], [0, 1, 2, 3, 4])]
    big = _agl1_257_x_s5()
    groups.append(big)
    groups.append(_disguised(big, random.Random(257)))
    for g in groups:
        assert _levels(g._ensure_chain()) == _product_levels(chain_by_permutation_products(g)), g
    assert big.order == 257 * 256 * 120
    assert type(big.generators[0].images) is tuple


def test_inverse_tables_invert_their_transversal_elements(census_entries):
    """u^-1 * u is the identity for every transversal element u of every
    census chain, and of the degree-262 chain, read through the table of
    u^-1 the level keeps."""
    for g in [g for _, g in census_entries] + [_agl1_257_x_s5()]:
        ident = Permutation.identity(g.degree).images
        for lvl in g._ensure_chain():
            assert lvl.inverses.keys() == lvl.transversal.keys()
            for x, u in lvl.transversal.items():
                assert compose_images(lvl.inverses[x], u) == ident, (g, x)


def test_chain_build_and_sift_make_no_permutation_products(census_entries, monkeypatch):
    """The chain is built and sifted on images: no ``Permutation.inverse``
    and no ``Permutation.__mul__`` call, on bytes or on tuples, and the
    build makes no ``Permutation`` at all."""
    groups = [PermGroup(list(g.generators)) for _, g in census_entries] + [_agl1_257_x_s5()]

    def forbidden(*args):
        raise AssertionError("Permutation product or inverse in the chain")

    monkeypatch.setattr(Permutation, "inverse", forbidden)
    monkeypatch.setattr(Permutation, "__mul__", forbidden)
    with monkeypatch.context() as m:
        m.setattr(Permutation, "_make", forbidden)
        assert all(g.order > 0 for g in groups)
    for g in groups:
        assert g.sift(g.generators[-1]).is_identity()


def test_conjugation_pairs_are_cached_per_group(named):
    g = PermGroup(list(named("S4").generators))
    pairs = g.conjugation_pairs()
    assert g.conjugation_pairs() is pairs
    assert pairs == conjugation_pairs(g.generators)


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

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import _powers
from piclass.errors import DegreeMismatchError
from piclass.perm import (
    Permutation,
    compose_images,
    conjugate,
    conjugate_images,
    conjugate_set,
    conjugation_orbit,
    conjugation_pairs,
    left_multiplier,
    left_products,
    parse_cycle_text,
    schreier_generators,
    schreier_tree,
)

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


def same_degree_pairs(n_max=8):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(Permutation),
            st.permutations(list(range(n))).map(Permutation),
        )
    )


def test_compose_convention_pinned():
    # (0 1) applied after (1 2) is the 3-cycle 0 -> 1 -> 2 -> 0
    a = parse_cycle_text("(0 1)", 3)
    b = parse_cycle_text("(1 2)", 3)
    assert a * b == parse_cycle_text("(0 1 2)", 3)
    # and the other convention would give (0 2 1); make sure we did not pick it
    assert b * a == parse_cycle_text("(0 2 1)", 3)


def test_identity_composition():
    b = parse_cycle_text("(0 2 3)", 5)
    e = Permutation.identity(5)
    assert e * b == b
    assert b * e == b


def test_involution_squares_to_identity():
    a = parse_cycle_text("(0 1)", 3)
    assert (a * a).is_identity()


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        Permutation.identity(3) * Permutation.identity(4)


def test_conjugate_degree_mismatch():
    """``conjugate`` rejects an x of another degree than g, as g * x does,
    in place of returning a permutation that is not one."""
    g = Permutation.identity(3)
    with pytest.raises(DegreeMismatchError):
        conjugate(g, parse_cycle_text("(0 4)", 5))
    with pytest.raises(DegreeMismatchError):
        conjugate(Permutation.identity(300), parse_cycle_text("(0 1)", 3))


def test_not_a_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1.0, 0.0])
    # integer-like images are stored as plain ints
    p = Permutation([True, False])
    assert tuple(p.images) == (1, 0) and all(type(i) is int for i in p.images)
    assert p.cycle_string() == "(0 1)"


def test_element_orders():
    assert Permutation.identity(4).order() == 1
    assert parse_cycle_text("(0 1 2)(3 4)", 5).order() == 6
    assert parse_cycle_text("(0 1 2 3 4)", 5).order() == 5


_TWO_THREE = [[0, 1], [2, 3, 4]]
_TWO_THREE_FIVE_SEVEN = [*_TWO_THREE, range(5, 10), range(10, 17)]


@pytest.mark.parametrize("degree, cycles, order", [
    (5, _TWO_THREE, 6), (17, _TWO_THREE_FIVE_SEVEN, 210),
    (262, _TWO_THREE, 6), (262, _TWO_THREE_FIVE_SEVEN, 210)])
def test_orders_past_the_degree(degree, cycles, order):
    """(0 1)(2 3 4) on 5 points and cycles of lengths 2, 3, 5 and 7 on 17
    points have orders past their degrees; ``Permutation.order`` reads the
    lcm of the cycle lengths on bytes and on tuples (262 points) alike, and
    the powers agree."""
    x = Permutation.from_cycles(degree, cycles)
    assert x.order() == order == len(_powers(x))


def test_cycle_string_round_trip():
    for text in ["()", "(0 1)", "(0 1 2)(3 4)", "(1 3)(2 6 4)"]:
        p = parse_cycle_text(text, 7)
        assert parse_cycle_text(p.cycle_string(), 7) == p


def test_parse_rejects_repeats_and_garbage():
    with pytest.raises(ValueError):
        parse_cycle_text("(0 0 1)", 3)
    with pytest.raises(ValueError):
        parse_cycle_text("(0 1)(1 2)", 3)
    with pytest.raises(ValueError):
        parse_cycle_text("swizzle", 3)
    with pytest.raises(ValueError):
        parse_cycle_text("(0 5)", 3)


@given(perms)
def test_inverse_is_two_sided(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(same_degree_pairs())
def test_inverse_antihomomorphism(pair):
    a, b = pair
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(perms, st.integers(min_value=-6, max_value=6))
def test_power_matches_repeated_composition(p, k):
    expected = Permutation.identity(p.degree)
    step = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert p**k == expected


@given(same_degree_pairs())
def test_conjugation_preserves_order(pair):
    g, x = pair
    assert conjugate(g, x).order() == x.order()


@given(perms)
def test_order_annihilates(p):
    assert (p ** p.order()).is_identity()


# -- the composition kernel against its naive definitions ----------------------
#
# Degrees 1..20 and 250..262 straddle the switch from bytes to tuples at 256.
# Images are made by ``Permutation`` and compared as tuples.

KERNEL_DEGREES = st.one_of(st.integers(min_value=1, max_value=20),
                           st.integers(min_value=250, max_value=262))


def image_tuples(k):
    """The images of k permutations of one degree in 1..20 or 250..262."""
    return KERNEL_DEGREES.flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(lambda t: Permutation(t).images),
                           min_size=k, max_size=k)
    )


@st.composite
def small_order_and_any(draw):
    """The images of g and x of one degree in 1..20 or 250..262, g moving at
    most 20 points, so that its order is at most 420."""
    n = draw(KERNEL_DEGREES)
    relabel = draw(st.permutations(list(range(n))))
    moved = draw(st.permutations(list(range(min(n, 20)))))
    g = list(range(n))
    for i, j in enumerate(moved):
        g[relabel[i]] = relabel[j]
    return [Permutation(g).images, Permutation(draw(st.permutations(list(range(n))))).images]


# A 257-cycle and the transposition (255 256), in the tuple layout: explicit
# examples run first and are not shrunk, so a broken tuple branch fails fast.
CYCLE_257 = Permutation([*range(1, 257), 0]).images
SWAP_257 = Permutation([*range(255), 256, 255]).images


def naive_compose(a, b):
    return tuple(a[b[q]] for q in range(len(b)))


def naive_inverse(a):
    return tuple(sorted(range(len(a)), key=lambda i: a[i]))


def naive_conjugate(g, x):
    ginv = sorted(range(len(g)), key=lambda i: g[i])
    return tuple(g[x[ginv[q]]] for q in range(len(x)))


def naive_orbit(xim, gens):
    xim = tuple(xim)
    orbit = [xim]
    for cur in orbit:
        for g in gens:
            y = naive_conjugate(g, cur)
            if y not in orbit:
                orbit.append(y)
    return orbit


def as_tuples(images_list):
    return [tuple(im) for im in images_list]


@given(image_tuples(2))
@example([b"\x00", b"\x00"])
@example([tuple(range(257))] * 2)
@example([CYCLE_257, SWAP_257])
def test_composition_and_conjugation_match_naive(ims):
    a, b = ims
    assert tuple(compose_images(a, b)) == naive_compose(a, b)
    assert tuple(left_multiplier(a)(b)) == naive_compose(a, b)
    assert as_tuples(left_products(a, [b, a])) == [naive_compose(a, b), naive_compose(a, a)]
    assert tuple((Permutation(a) * Permutation(b)).images) == naive_compose(a, b)
    assert tuple(Permutation(a).inverse().images) == naive_inverse(a)
    pair = conjugation_pairs([Permutation(a)])[0]
    assert tuple(conjugate_images(pair, b)) == naive_conjugate(a, b)
    assert tuple(conjugate(Permutation(a), Permutation(b)).images) == naive_conjugate(a, b)
    assert [type(im) for im in (compose_images(a, b), conjugate_images(pair, b))] == [type(a)] * 2


@given(image_tuples(7))
@example([b"\x00"] * 7)
@example([CYCLE_257, SWAP_257, CYCLE_257, SWAP_257, CYCLE_257, SWAP_257, CYCLE_257])
def test_conjugate_set_matches_naive(ims):
    g, *key = ims
    pair = conjugation_pairs([Permutation(g)])[0]
    conj = conjugate_set(pair, frozenset(key))
    assert set(as_tuples(conj)) == {naive_conjugate(g, t) for t in key}
    assert len(conj) == len(set(key))
    assert conjugate_set(pair, frozenset()) == frozenset()


@settings(deadline=None)
@given(small_order_and_any(), st.integers(min_value=1, max_value=7))
@example([b"\x00", b"\x00"], 1)
@example([SWAP_257, CYCLE_257], 1)
def test_cyclic_conjugation_orbit_matches_naive(ims, k):
    """The whole orbit under <g> (at most 420 conjugates, g moving at most
    20 points), walked with the pairs of g and g^k.  At degree 262 the
    naive walk alone takes about 0.1 s, so no per-example deadline."""
    g, x = ims
    gens = [g, (Permutation(g) ** k).images]
    orbit = conjugation_orbit(x, conjugation_pairs(map(Permutation, gens)))
    assert as_tuples(orbit) == naive_orbit(x, gens)


def naive_schreier_tree(start, gens):
    """The orbit of the point ``start``, the transversal and the nontrivial
    Schreier generators u_y^-1 * g * u_x (y = g[x]), in orbit and generator
    order."""
    orbit = [start]
    transversal = {start: tuple(range(len(gens[0])))}
    for x in orbit:
        for g in gens:
            y = g[x]
            if y not in transversal:
                transversal[y] = naive_compose(g, transversal[x])
                orbit.append(y)
    schreier = [naive_compose(naive_inverse(transversal[g[x]]),
                              naive_compose(g, transversal[x])) for x in orbit for g in gens]
    return orbit, transversal, [s for s in schreier if s != tuple(range(len(s)))]


THREE_CYCLE_257 = Permutation.from_cycles(257, [[254, 255, 256]]).images


@settings(deadline=None)
@given(image_tuples(3), st.integers(min_value=0, max_value=261))
@example([b"\x00"] * 3, 0)
@example([CYCLE_257, SWAP_257, CYCLE_257], 3)
def test_schreier_tree_matches_naive(ims, point):
    """The orbit and the transversal (in orbit order) of ``schreier_tree``
    on the points under the generators ``ims``, and its Schreier generators
    (``schreier_generators`` in orbit order), against the naive walk, and
    through the table of each u^-1, u^-1 * u and u^-1 * g for the first
    generator g, on bytes and on tuples."""
    n = len(ims[0])
    point %= n
    moves = [(g, left_multiplier(g), Permutation(g).inverse().images) for g in ims]
    orbit, transversal, inverses = schreier_tree(point, moves, n)
    want_orbit, want, want_schreier = naive_schreier_tree(point, ims)
    assert orbit == want_orbit
    schreier = list(schreier_generators(orbit, moves, transversal, inverses))
    assert [tuple(s) for s in schreier] == want_schreier
    assert all(type(s) is type(ims[0]) for s in schreier)
    assert [(y, tuple(u)) for y, u in transversal.items()] == list(want.items())
    assert inverses.keys() == transversal.keys()
    for y in orbit:
        u = want[y]
        assert tuple(compose_images(inverses[y], transversal[y])) == tuple(range(n))
        assert tuple(compose_images(inverses[y], ims[0])) == naive_compose(naive_inverse(u), ims[0])
        assert type(compose_images(inverses[y], ims[0])) is type(ims[0])


def naive_order(a) -> int:
    """The lcm of the cycle lengths, walking each cycle point by point."""
    seen, lengths = set(), []
    for start in range(len(a)):
        if start not in seen:
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = a[x]
                length += 1
            lengths.append(length)
    return math.lcm(1, *lengths)


# two cycles of lengths 128 and 129: order 16,512, far above the degree
TWO_CYCLES_257 = Permutation.from_cycles(257, [range(128), range(128, 257)]).images


@given(small_order_and_any())
@example([b"", b"\x00"])
@example([CYCLE_257, SWAP_257])
@example([THREE_CYCLE_257, TWO_CYCLES_257])
def test_order_matches_the_cycle_walk(ims):
    """``Permutation.order`` against the point-by-point cycle walk: on bytes
    and on tuples, for an element of order at most 420 and one of any
    order, below and above the degree."""
    for a in ims:
        assert Permutation._make(a).order() == naive_order(a)

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coset_classes_by_rows, pi_part_of_element
from piclass.catalog import build, parse_group_file, parse_name
from piclass.classes import conjugacy_classes, k_pi
from piclass.errors import NotInGroupError
from piclass.numtheory import is_pi_number
from piclass.perm import Permutation, conjugate, parse_cycle_text
from piclass.subgroups import centralizer_of_element


def test_s3_classes(named):
    table = conjugacy_classes(named("S3"))
    assert table.k == 3
    assert sorted(table.sizes()) == [1, 2, 3]


def test_d8_five_classes(named):
    assert conjugacy_classes(named("D8")).k == 5


def test_abelian_singletons(named):
    table = conjugacy_classes(named("C6"))
    assert table.k == 6
    assert table.sizes() == [1] * 6


@pytest.mark.parametrize("name", ["S4", "Q8", "D8 x C3"])
def test_members_list_each_class(name, named):
    g = named(name)
    table = conjugacy_classes(g)
    for i, (cls, members) in enumerate(zip(table.classes, table.members)):
        assert len(members) == cls.size and min(members) == cls.rep.images
        assert {table.class_of(Permutation._make(im)) for im in members} == {i}
    assert sorted(table.elements(table.full)) == sorted(e.images for e in g.element_list())


def test_representative_is_lex_least(named):
    g = named("S4")
    table = conjugacy_classes(g)
    for e in g.element_list():
        rep = table.classes[table.class_of(e)].rep
        assert rep.images <= e.images


def test_normal_core_is_cached_per_prime_set():
    """O_2(S4) = V4 is walked once: a second call, with the primes as a
    list, closes no class and returns the same bitset."""
    table = conjugacy_classes(build(parse_name("S4")))  # fresh: nothing cached yet
    closures = []
    closure = table.closure
    table.closure = lambda *args: closures.append(args) or closure(*args)
    core = table.normal_core(frozenset([2]))
    assert isinstance(core, int) and table.order(core) == 4
    assert closures
    closures.clear()
    assert table.normal_core([2]) == core
    assert not closures


def test_class_of_rejects_outsiders(named):
    with pytest.raises(NotInGroupError):
        conjugacy_classes(named("A4")).class_of(parse_cycle_text("(0 1)", 4))


def test_centralizer_examples(named):
    s3, s4 = named("S3"), named("S4")
    assert centralizer_of_element(s3, Permutation.identity(3)).order == 6
    assert centralizer_of_element(s3, parse_cycle_text("(0 1)", 3)).order == 2
    assert centralizer_of_element(s4, parse_cycle_text("(0 1 2 3)", 4)).order == 4


def test_centralizer_not_in_group(named):
    with pytest.raises(NotInGroupError):
        centralizer_of_element(named("A4"), parse_cycle_text("(0 1)", 4))


def test_is_pi_element():
    ident = Permutation.identity(5)
    assert is_pi_number(ident.order(), [2])
    assert is_pi_number(ident.order(), [7])
    order6 = parse_cycle_text("(0 1 2)(3 4)", 5)
    assert not is_pi_number(order6.order(), [2])
    assert is_pi_number(order6.order(), [2, 3])


def test_pi_part_examples(named):
    c6 = named("C6")
    x = next(e for e in c6.element_list() if e.order() == 6)
    x2, x3 = pi_part_of_element(x, [2])
    assert x2 == x**3 and x3 == x**4

    z = parse_cycle_text("(0 1 2)(3 4)", 5)
    zpi, zrest = pi_part_of_element(z, [3])
    assert zpi == parse_cycle_text("(0 1 2)", 5)
    assert zrest == parse_cycle_text("(3 4)", 5)

    y = parse_cycle_text("(0 1 2)", 5)
    ypi, yrest = pi_part_of_element(y, [3])
    assert ypi == y and yrest.is_identity()


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(9))), st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1))
def test_pi_part_decomposition_is_the_unique_one(images, pi):
    x = Permutation(images)
    a, b = pi_part_of_element(x, pi)
    assert a * b == x
    assert b * a == x
    assert is_pi_number(a.order(), pi)
    m = x.order()
    from piclass.numtheory import prime_factors
    assert all(q not in pi for q in prime_factors(b.order()))
    # powers of x
    powers = [x**k for k in range(m)]
    assert a in powers and b in powers
    # uniqueness among all commuting (pi, pi') factorizations into powers
    matches = [
        (u, v)
        for u in powers
        for v in [u.inverse() * x]
        if is_pi_number(u.order(), pi)
        and all(q not in pi for q in prime_factors(v.order()))
        and u * v == v * u
    ]
    assert matches == [(a, b)]


def test_k_pi_examples(named):
    assert k_pi(named("A5"), [3]) == 2
    assert k_pi(named("S4"), [2, 3]) == 5
    assert k_pi(named("S4"), [7]) == 1


def test_k_pi_boundary_cases(named):
    g = named("S4")
    table = conjugacy_classes(g)
    assert k_pi(g, [2, 3, 5]) == table.k  # pi covering all primes of |G|
    assert k_pi(g, [11, 13]) == 1


def test_conjugation_consistency(named):
    g = named("S4")
    table = conjugacy_classes(g)
    for cls in table.classes:
        for h in g.generators:
            moved = conjugate(h, cls.rep)
            assert table.class_of(moved) == table.class_of(cls.rep)
            assert moved.order() == cls.order


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("filename, order, k", [
    ("psl27.grp", 168, 6),
    ("a7.grp", 2520, 9),
    ("s7.grp", 5040, 15),
    ("m11.grp", 7920, 10),
    ("s8.grp", 40320, 22),
    ("agl32.grp", 1344, 11),
])
def test_group_files_have_their_known_orders_and_class_counts(filename, order, k):
    g = parse_group_file((DATA / filename).read_text())
    assert g.order == order
    assert conjugacy_classes(g).k == k


def test_fusions_of_1_and_g_are_closed_forms():
    """G/1 is G and G/G is one class: on a fresh table of S4 x S3,
    ``fusion(1)``, ``fusion(full)`` and the class counts of G/1 and G/G
    build no class-product support and walk no powers, yet the fusions are
    the blocks the coset rows give and G/1 counts the classes of G."""
    table = conjugacy_classes(build(parse_name("S4 x S3")))  # fresh: nothing cached yet
    walked = dict(table._power_maps)
    blocks = table.fusion(1), table.fusion(table.full)
    histograms = table.quotient_histogram(1), table.quotient_histogram(table.full)
    assert table._supports == {} and table._tables is None
    assert table._power_maps == walked
    assert histograms == (table.histogram(), {0: 1})
    for mask, got in zip((1, table.full), blocks):  # the rows no earlier row covers
        rows, covered, want = coset_classes_by_rows(table, mask), 0, []
        for i, row in enumerate(rows):
            if not covered >> i & 1:
                want.append(row)
                covered |= row
        assert got == want, mask
    assert blocks == ([1 << i for i in range(table.k)], [table.full])

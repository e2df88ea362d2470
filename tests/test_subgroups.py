import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from conftest import complete_sweep
from oracles import (
    classes_by_support,
    closure_by_all_pairs,
    is_normal,
    naive_closure,
    normal_classes_by_support,
    subgroup_classes_by_orbit_skip,
)
from piclass.catalog import build, parse_group_file, parse_name
from piclass.classes import ClassTable, conjugacy_classes, k_pi, pi_count
from piclass.config import Config
from piclass.errors import (
    CapExceededError,
    DegreeMismatchError,
    NotInGroupError,
    PreconditionError,
)
from piclass.group import PermGroup
from piclass.invariants import group_primes
from piclass.numtheory import is_pi_number, is_prime, pi_part, prime_factors
from piclass.perm import (
    Permutation,
    conjugate,
    conjugation_orbit,
    conjugation_pairs,
    conjugation_set_orbit,
    parse_cycle_text,
)
from piclass.suite import (
    DEFAULT_SUITES,
    FAIL,
    _nonempty_subsets,
    check_hall_dichotomy,
    check_quotient_bound,
    check_sylow3_structure,
    run_group_suite,
)
from piclass.subgroups import (
    _extender,
    are_conjugate_subgroups,
    almost_simple_socle,
    center,
    centralizer_of_element,
    centralizer_of_subgroup,
    commutator_subgroup,
    conjugates,
    derived_subgroup,
    enumerate_subgroups_up_to_conjugacy,
    fitting_subgroup,
    hall_search,
    is_simple,
    join_subgroups,
    normal_closure,
    normal_lattice,
    normal_subgroups,
    normalizer,
    o_pi_prime,
    quotient,
    socle,
    subgroup,
    subgroup_intersection,
    sylow_subgroup,
    trivial_subgroup,
)
from test_fast_paths import (
    CENSUS_72,
    GROUP_SETS,
    LATTICE_SLICE,
    same_classes,
)


def test_closure_examples(named):
    s4 = named("S4")
    assert trivial_subgroup(s4).order == 1
    assert subgroup(s4, [parse_cycle_text("(0 1 2 3)", 4)]).order == 4
    h = subgroup(s4, [parse_cycle_text("(0 1)", 4), parse_cycle_text("(0 1 2)", 4)])
    assert h.order == 6
    assert h.order == len(naive_closure(list(h.generators)))


def test_closure_verifies_membership(named):
    with pytest.raises(NotInGroupError):
        subgroup(named("A4"), [parse_cycle_text("(0 1)", 4)])


def test_lagrange_on_handles(named):
    s4 = named("S4")
    for cls in enumerate_subgroups_up_to_conjugacy(s4):
        assert s4.order % cls.order == 0


def test_normalizer_of_normal_subgroup_is_whole(named):
    s4 = named("S4")
    v4 = subgroup(s4, [parse_cycle_text("(0 1)(2 3)", 4), parse_cycle_text("(0 2)(1 3)", 4)])
    assert normalizer(s4, v4).order == 24


def test_normalizer_centralizer_s3(named):
    s3 = named("S3")
    p = subgroup(s3, [parse_cycle_text("(0 1 2)", 3)])
    n = normalizer(s3, p)
    c = centralizer_of_subgroup(s3, p)
    assert n.order == 6
    assert c.order == 3
    assert n.order // c.order == 2
    # H <= N_G(H) and C_G(H) normal in N_G(H)
    assert all(n.contains(g) for g in p.generators)


def test_normalizer_brute_crosscheck(named):
    s4 = named("S4")
    h = subgroup(s4, [parse_cycle_text("(0 1)", 4)])
    n = normalizer(s4, h)
    hset = h.element_set()
    brute = [g for g in s4.element_list()
             if {conjugate(g, x).images for x in h.element_list()} == set(hset)]
    assert n.element_set() == frozenset(b.images for b in brute)


def test_normalizer_keeps_the_greedy_generators(named):
    """N(<(0 1)>) in S5 is <(0 1)> x S3 on {2, 3, 4}, on the greedy
    generating subset of the elements the filter keeps, in the order of
    S5's images list."""
    s5 = named("S5")
    h = subgroup(s5, [parse_cycle_text("(0 1)", 5)])
    n = normalizer(s5, h)
    assert n.order == 12
    assert n.generators == tuple(parse_cycle_text(c, 5) for c in ("(3 4)", "(2 3 4)", "(0 1)"))


def test_center_examples(named):
    assert center(named("D8")).order == 2
    assert center(named("Q8")).order == 2
    assert center(named("S4")).order == 1
    assert center(named("C6")).order == 6


def test_derived_subgroup_examples(named):
    s4 = named("S4")
    der = derived_subgroup(s4)
    assert der.order == 12
    assert center(named("C6")).is_abelian()
    assert derived_subgroup(named("C6")).order == 1


def test_commutator_matches_statement(named):
    s3 = named("S3")
    p = subgroup(s3, [parse_cycle_text("(0 1 2)", 3)])
    n = normalizer(s3, p)
    comm = commutator_subgroup(s3, p, n)
    assert comm.order == 3


def test_normal_closure_examples(named):
    s4 = named("S4")
    assert normal_closure(s4, [Permutation.identity(4)]).order == 1
    v = normal_closure(s4, [parse_cycle_text("(0 1)(2 3)", 4)])
    assert v.order == 4
    assert is_normal(s4, v)
    a5 = named("A5")
    assert normal_closure(a5, [parse_cycle_text("(0 1 2)", 5)]).order == 60


@pytest.mark.parametrize("call", ["normal_closure(g, [x])",
                                  "normal_closure(g, [x], elements=g.element_set())",
                                  "_reduced_subgroup(g, [x.images])"])
def test_a_seed_of_another_degree_is_rejected_up_front(call):
    """A seed of degree 5 in S3 raises ``DegreeMismatchError`` before any
    closure starts; the coset closure on mixed degrees never ended.  The
    call runs in a subprocess with a timeout, so a hang fails the test
    instead of stalling the suite."""
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    script = "\n".join([
        "from piclass.catalog import build, parse_name",
        "from piclass.errors import DegreeMismatchError",
        "from piclass.perm import parse_cycle_text",
        "from piclass.subgroups import _reduced_subgroup, normal_closure",
        "g = build(parse_name('S3'))",
        "x = parse_cycle_text('(0 4)', 5)",
        "try:",
        f"    {call}",
        "except DegreeMismatchError as exc:",
        "    print(type(exc).__name__)",
    ])
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "DegreeMismatchError"


def test_a_subgroup_of_another_degree_is_rejected(named):
    """S3 on 3 points is no subgroup of S4 on 4: each query that takes a
    subgroup raises ``DegreeMismatchError``, where the normalizer raised a
    raw ``ValueError``, the quotient ``NotInGroupError`` and the others
    answered as if it were trivial."""
    s4, s3 = named("S4"), named("S3")
    for query in (lambda: normalizer(s4, s3), lambda: centralizer_of_subgroup(s4, s3),
                  lambda: are_conjugate_subgroups(s4, s3, s3),
                  lambda: subgroup_intersection(s4, s3, s4), lambda: quotient(s4, s3)):
        with pytest.raises(DegreeMismatchError):
            query()


def test_a_seed_outside_the_group_is_rejected(named):
    """A seed of the group's degree outside it raises ``NotInGroupError``,
    as a generator outside it does in ``subgroup``; the closure of (0 1) in
    C3 used to come out as a group of order 6.  On a group sifting through
    its chain and on one holding its element set, with and without the
    closure's element set given."""
    swap = parse_cycle_text("(0 1)", 3)
    for g in (build(parse_name("C3")), subgroup(named("S3"), [parse_cycle_text("(0 1 2)", 3)])):
        with pytest.raises(NotInGroupError):
            normal_closure(g, [swap])
        with pytest.raises(NotInGroupError):
            normal_closure(g, [Permutation.identity(3), swap])
        with pytest.raises(NotInGroupError):
            normal_closure(g, [swap], elements=g.element_set())


@pytest.mark.parametrize("name,expected", [
    ("S4", [1, 4, 12, 24]),
    ("A5", [1, 60]),
    ("C6", [1, 2, 3, 6]),
    ("S3", [1, 3, 6]),
])
def test_normal_subgroups_known(name, expected, named):
    got = [h.order for h in normal_subgroups(named(name))]
    assert got == expected


def test_normal_subgroups_all_normal(named):
    g = named("S4 x C2")
    for h in normal_subgroups(g):
        assert is_normal(g, h)


def _chain_elements(gens) -> frozenset:
    """Element set of <gens>, listed from the chain of a fresh PermGroup
    given by the generators alone."""
    return frozenset(p.images for p in PermGroup(gens).elements())


def _assert_matches_chain(sub):
    oracle = _chain_elements(sub.generators)
    assert sub.element_set() == oracle
    assert sub.order == len(oracle)
    assert [x.images for x in sub.element_list()] == sorted(oracle)


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_coset_closure_matches_chain_oracle(name, named):
    """Every kind of subgroup (enumeration, normal closures, ``subgroup``,
    Sylow growth, the lattice, ``join_subgroups``, ``hall_search``,
    stabilizers, centralizers, centers, intersections, commutators and
    normal cores) holds the element set its own generators span, and lists
    it in sorted image order."""
    g = named(name)
    primes = group_primes(g)
    # all subgroups of the small groups; the p-subgroups of the larger ones
    for pi in [None] if g.order <= 200 else [[p] for p in sorted(primes)]:
        for h in enumerate_subgroups_up_to_conjugacy(g, pi=pi):
            _assert_matches_chain(h)
            extend = _extender(h.element_set(), [s.images for s in h.generators])
            for x in g.generators:  # the primitive on <H, x>
                assert extend(x.images) == _chain_elements(h.generators + (x,))
    for cls in conjugacy_classes(g).classes:
        _assert_matches_chain(normal_closure(g, [cls.rep]))
        _assert_matches_chain(subgroup(g, [cls.rep]))
    sylows = [sylow_subgroup(g, p) for p in sorted(primes)]
    normals = normal_subgroups(g)
    subs = [subgroup(g, g.generators), *sylows, *normals, center(g)]
    subs += [join_subgroups(g, a, b) for a, b in zip(normals, normals[1:])]
    subs += [join_subgroups(g, a, b) for a, b in zip(sylows, sylows[1:])]
    subs += [subgroup_intersection(g, a, b) for a, b in zip(normals, normals[1:])]
    subs += [subgroup_intersection(g, a, b) for a, b in zip(normals[1:], sylows)]
    for p, syl in zip(sorted(primes), sylows):
        norm = normalizer(g, syl)
        subs += [norm, centralizer_of_subgroup(g, syl), commutator_subgroup(g, syl, norm)]
        # set-backed outputs used as groups, as the structure suite uses them
        subs += [center(norm), sylow_subgroup(norm, p), centralizer_of_subgroup(norm, syl)]
    for pi in _nonempty_subsets(primes):
        subs.append(o_pi_prime(g, pi))
        outcome = hall_search(g, pi)
        if outcome.found and outcome.subgroup is not g:  # not the whole-group shortcut
            subs.append(outcome.subgroup)
    for h in subs:
        _assert_matches_chain(h)


def _v4(s4):
    return subgroup(s4, [parse_cycle_text("(0 1)(2 3)", 4), parse_cycle_text("(0 2)(1 3)", 4)])


def test_quotient_k_pi_outside_the_lattice(named):
    """On the shared S4, whose lattice may be built, and on a fresh one,
    which has none, ``ClassTable.normal_mask`` reads V4 from the classes it
    meets: the identity's class and the class of (0 1)(2 3).  It answers
    None for a subgroup that is not normal, which ``quotient`` rejects.
    k_pi(S4/N) is read from the fusion of the class set it gives."""
    fresh = build(parse_name("S4"))
    for s4 in (named("S4"), fresh):
        table = conjugacy_classes(s4)
        v4 = _v4(s4)
        mask = table.normal_mask(v4.element_set())
        assert mask == 1 | 1 << table.class_of(parse_cycle_text("(0 1)(2 3)", 4))

        def k_quotient(n, pi):
            in_quotient = table.quotient_histogram(table.normal_mask(n.element_set()))
            return pi_count(in_quotient, table.pi_bits(pi))

        assert k_quotient(v4, [2]) == 2  # S3 has two 2-classes
        assert k_quotient(v4, [2, 3]) == 3
        assert k_quotient(s4, [3]) == 1
        assert k_quotient(trivial_subgroup(s4), [3]) == k_pi(s4, [3])
        transposition = subgroup(s4, [parse_cycle_text("(0 1)", 4)])
        assert table.normal_mask(transposition.element_set()) is None
        with pytest.raises(PreconditionError):
            quotient(s4, transposition)
    assert "normal_subgroups" not in fresh.cache


def _bound_by_g_classes(g, n):
    """The quotient suite's lower bound is sound: per prime support (in G's
    numbering), the G-classes inside N never outnumber the classes of N's
    own table, as each is a union of N-classes; and those per-support
    counts give k_pi(N) for every pi."""
    table = conjugacy_classes(g)
    in_normal = normal_classes_by_support(table, n)
    in_g = classes_by_support(table, table.normal_mask(n.element_set()))
    for support, count in in_g.items():
        yield ("N", n.order, "support", support), count <= in_normal.get(support, 0), True
    for pi in _nonempty_subsets(group_primes(g)):
        yield ("N", n.order, "pi", pi), pi_count(in_normal, table.pi_bits(pi)), k_pi(n, pi)


def test_normal_k_pi_outside_the_lattice(named):
    """On the shared S4 and on a fresh one: the G-classes inside a normal N
    bound N's classes from below, whether or not the lattice was built;
    ``normal_mask`` answers None for a subgroup that is not normal, and
    raises ``NotInGroupError`` for one with elements outside G."""
    fresh = build(parse_name("S4"))
    for s4 in (named("S4"), fresh):
        table = conjugacy_classes(s4)
        v4 = _v4(s4)
        for n in (v4, trivial_subgroup(s4), s4):
            for where, got, want in _bound_by_g_classes(s4, n):
                assert got == want, where
        assert k_pi(v4, [2]) == 4  # V4 is abelian
        assert k_pi(s4, [2, 3]) == 5
        assert table.normal_mask(subgroup(s4, [parse_cycle_text("(0 1)", 4)]).element_set()) is None
    assert "normal_subgroups" not in fresh.cache
    s3 = PermGroup([parse_cycle_text("(0 1)", 4), parse_cycle_text("(0 1 2)", 4)])
    outside = subgroup(fresh, [parse_cycle_text("(2 3)", 4)])  # elements outside s3
    with pytest.raises(NotInGroupError):
        conjugacy_classes(s3).normal_mask(outside.element_set())


def _classes_met(table, images) -> int:
    """Bitset of the classes that the elements given by ``images`` meet."""
    return sum({1 << table._index_of[im] for im in images})


def _built_supports(table):
    """Number of class-product supports built so far (the matrix is symmetric)."""
    return sum(met is not None for i, row in table._supports.items() for met in row[i:])


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_fusion_blocks_are_built_once_per_class_of_the_quotient(name, named):
    """``fusion(N)`` on a fresh table builds at most one row of supports per
    block, over the classes of N, and no join of N builds another
    support."""
    g = named(name)
    masks = [conjugacy_classes(g).normal_mask(n.element_set()) for n in normal_subgroups(g)]
    for mask in masks:
        table = conjugacy_classes(PermGroup(g.generators, degree=g.degree))
        blocks = table.fusion(mask)
        built = _built_supports(table)
        assert built <= len(blocks) * bin(mask).count("1"), (name, mask)
        for other in masks:
            table.join(mask, other)
        assert _built_supports(table) == built, (name, mask)


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_join_before_fusion_builds_the_fusion(name, named):
    """On a fresh table, ``join(N, M)`` called before ``fusion(N)`` gives the
    class set of N * M that the shared table gives, and builds the whole
    fusion of N: ``fusion(N)`` afterwards builds no support."""
    g = named(name)
    shared = conjugacy_classes(g)
    masks = [shared.normal_mask(n.element_set()) for n in normal_subgroups(g)]
    for mask, other in zip(masks, reversed(masks)):
        table = conjugacy_classes(PermGroup(g.generators, degree=g.degree))
        assert table.join(mask, other) == shared.join(mask, other), (name, mask, other)
        built = _built_supports(table)
        assert table.fusion(mask) == shared.fusion(mask), (name, mask)
        assert _built_supports(table) == built, (name, mask)


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_lattice_entries_are_the_normal_subgroups(name, named):
    """Entry i of ``normal_lattice`` is the class set and the order of
    ``normal_subgroups(G)[i]``; a seed entry is the closure of its class,
    and a join entry is the class set of the product of two smaller
    entries."""
    g = named(name)
    table = conjugacy_classes(g)
    lattice = normal_lattice(g)
    assert len(lattice) == len(normal_subgroups(g))
    orders = {entry.mask: entry.order for entry in lattice}
    for entry, n in zip(lattice, normal_subgroups(g)):
        assert (table.normal_mask(n.element_set()), n.order) == (entry.mask, entry.order)
        if entry.parts is None:
            assert table.closure(1 << entry.seed) == entry.mask
        else:
            a, b = entry.parts
            assert max(orders[a], orders[b]) < entry.order
            assert table.join(a, b) == entry.mask


def test_lattice_joins_each_unordered_pair_once(monkeypatch):
    import collections

    pairs = collections.Counter()
    join = ClassTable.join

    def counting(self, normal, other):
        pairs[id(self), frozenset((normal, other))] += 1
        return join(self, normal, other)

    monkeypatch.setattr(ClassTable, "join", counting)
    groups = [build(parse_name(name)) for name in LATTICE_SLICE]  # fresh: no cached lattice
    for g in groups:  # kept alive, so no two tables share an id
        normal_subgroups(g)
    assert pairs
    assert max(pairs.values()) == 1


def test_lattice_closes_one_class_per_cyclic_subgroup(monkeypatch):
    """C6 x C6 is abelian, so each element is a class, and a rational class
    holds the generators of one cyclic subgroup: the lattice closes 20 class
    sets, one per cyclic subgroup (1 + 3 + 4 + 12), not one per class (36)."""
    closed = []
    closure = ClassTable.closure
    monkeypatch.setattr(ClassTable, "closure",
                        lambda self, mask: closed.append(mask) or closure(self, mask))
    g = build(parse_name("C6 x C6"))  # fresh: no cached lattice
    normal_subgroups(g)
    cyclic = {frozenset((x ** e).images for e in range(x.order())) for x in g.element_list()}
    assert len(closed) == len(set(closed)) == len(cyclic) == 20


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_rational_classes_share_their_leaders_closure(name, named):
    """Every class in the rational class of class i has the all-pairs
    closure of class i, and the same rational class."""
    table = conjugacy_classes(named(name))
    for i in range(table.k):
        rational = table.rational_class(i)
        assert rational >> i & 1
        leader = closure_by_all_pairs(table, 1 << i)
        assert table.closure(1 << i) == leader, (name, i)
        for j in range(table.k):
            if rational >> j & 1:
                assert closure_by_all_pairs(table, 1 << j) == leader, (name, i, j)
                assert table.rational_class(j) == rational, (name, i, j)


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_carried_orders_are_the_sums_of_class_sizes(name, named):
    """The orders that closures and ``normal_mask`` carry, and the block
    orders that ``fusion`` checks, equal the sums of their class sizes, on a
    fresh table.  A closure's carried order is read through its Lagrange
    stop: with the stop set just below the closure's true order the walk
    must end at the whole group, and with it set at that order the walk must
    end at the closure."""
    g = named(name)
    table = conjugacy_classes(PermGroup(g.generators, degree=g.degree))
    sizes = table.sizes()

    def order(mask):
        return sum(size for i, size in enumerate(sizes) if mask >> i & 1)

    normals = normal_subgroups(g)
    masks = [conjugacy_classes(g).normal_mask(n.element_set()) for n in normals]
    sets = [1 << i for i in range(table.k)]
    sets += [_classes_met(table, [x.images for x in n.generators]) for n in normals]
    lagrange = table._lagrange
    for mask in sets:
        closed = closure_by_all_pairs(table, mask)
        for stop, expected in ((order(closed) - 1, table.full), (order(closed), closed)):
            table._closures.clear()
            table._lagrange = stop
            assert table.closure(mask) == expected, (name, mask, stop)
    table._closures.clear()
    table._lagrange = lagrange
    for mask in masks:
        orders = [order(block) for block in table.fusion(mask)]
        assert sum(orders) == g.order, (name, mask)
        assert all(o % order(mask) == 0 for o in orders), (name, mask)
    subs = normals + [sylow_subgroup(g, p) for p in prime_factors(g.order)]
    subs += [subgroup(g, [cls.rep]) for cls in table.classes]
    for h in subs:
        key = h.element_set()
        met = _classes_met(table, key)
        assert table.normal_mask(key) == (met if order(met) == len(key) else None), name


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_normal_closure_with_known_elements_keeps_its_generators(name, named):
    """Stopping the conjugate walk at the known order, and taking the set
    whole at a prime index, leaves the generators and the set unchanged."""
    g = named(name)
    table = conjugacy_classes(g)
    for i, cls in enumerate(table.classes):
        elements = frozenset(table.elements(table.closure(1 << i)))
        plain = normal_closure(g, [cls.rep])
        known = normal_closure(g, [cls.rep], elements=elements)
        assert known.generators == plain.generators, (name, i)
        assert known.element_set() == plain.element_set() == elements, (name, i)


def test_quotient_suite_builds_no_table_of_n(monkeypatch):
    """Every N of D8 x D8 is decided by the G-classes inside it, so the
    suite reads the lattice's bitsets alone: no subgroup, normal closure or
    class table besides G's."""
    import piclass.subgroups

    g = build(parse_name("D8 x D8"))  # fresh: no caches shared with other tests
    conjugacy_classes(g)
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))

    counted(piclass.subgroups, "normal_closure")
    counted(ClassTable, "__init__")
    counted(PermGroup, "__init__")
    assert check_quotient_bound(g)[0] == "pass"
    assert calls == []
    assert "normal_subgroups" not in g.cache
    monkeypatch.undo()
    proper = [n for n in normal_subgroups(g) if n.order < g.order]
    assert len(proper) > 1
    for n in proper:
        assert n._levels is None, n
        assert "class_table" not in n.cache, n


def _relabelled_reordered(g, seed):
    """g with its points relabelled by a seeded permutation and its
    generators listed twice each, in a seeded order."""
    rng = random.Random(seed)
    sigma = list(range(g.degree))
    rng.shuffle(sigma)
    s = Permutation(sigma)
    gens = [conjugate(s, x) for x in g.generators] * 2
    rng.shuffle(gens)
    return PermGroup(gens, degree=g.degree)


def _normal_profiles(g):
    table = conjugacy_classes(g)
    subsets = _nonempty_subsets(group_primes(g))
    bits = [table.pi_bits(pi) for pi in subsets]
    profiles = []
    for n in normal_subgroups(g):
        in_quotient = table.quotient_histogram(table.normal_mask(n.element_set()))
        profiles.append((n.order, [k_pi(n, pi) for pi in subsets],
                         [pi_count(in_quotient, b) for b in bits]))
    return sorted(profiles)


@pytest.mark.parametrize("name", LATTICE_SLICE)
def test_normal_class_counts_survive_relabelling(name, named):
    """The lattice's discovery order follows the class order, which
    relabelling changes; the sorted orders and class counts do not."""
    g = named(name)
    profiles = _normal_profiles(g)
    for seed in (1, 2):
        assert _normal_profiles(_relabelled_reordered(g, seed)) == profiles


def test_quotient_examples(named):
    s4 = named("S4")
    v4 = next(h for h in normal_subgroups(s4) if h.order == 4)
    q = quotient(s4, v4)
    assert q.group.order == 6
    assert conjugacy_classes(q.group).k == 3

    whole = quotient(s4, s4)
    assert whole.group.order == 1

    triv = quotient(s4, trivial_subgroup(s4))
    assert triv.group.order == 24
    assert sorted(conjugacy_classes(triv.group).sizes()) == sorted(
        conjugacy_classes(s4).sizes())


def test_quotient_projection_is_homomorphism(named):
    s4 = named("S4")
    a4 = next(h for h in normal_subgroups(s4) if h.order == 12)
    q = quotient(s4, a4)
    import random
    rng = random.Random(3)
    for _ in range(20):
        a, b = s4.random_element(rng), s4.random_element(rng)
        assert q.project(a * b) == q.project(a) * q.project(b)
    for g in s4.generators:
        assert q.project(g).degree == 2


def test_quotient_requires_normal(named):
    s4 = named("S4")
    h = subgroup(s4, [parse_cycle_text("(0 1)", 4)])
    with pytest.raises(PreconditionError):
        quotient(s4, h)


def test_quotient_degree_cap(named):
    s4 = named("S4")
    with pytest.raises(CapExceededError):
        quotient(s4, trivial_subgroup(s4), max_degree=10)


def test_sylow_examples(named):
    s4, a5 = named("S4"), named("A5")
    assert sylow_subgroup(s4, 2).order == 8
    assert sylow_subgroup(s4, 3).order == 3
    assert sylow_subgroup(a5, 5).order == 5
    assert sylow_subgroup(s4, 5).order == 1
    p3 = sylow_subgroup(a5, 3)
    assert p3.order == 3
    n = normalizer(a5, p3)
    assert a5.order // n.order == 10  # ten conjugates


def test_sylow_conjugacy_on_census_sample(named):
    for name in ["S4", "A5", "D12", "S3 x S3"]:
        g = named(name)
        from piclass.invariants import group_primes
        for p in group_primes(g):
            syl = sylow_subgroup(g, p)
            others = [h for h in enumerate_subgroups_up_to_conjugacy(g, pi=frozenset([p]))
                      if h.order == syl.order]
            assert len(others) == 1
            ok, witness = are_conjugate_subgroups(g, syl, others[0])
            assert ok


def test_hall_trivialities(named):
    s4 = named("S4")
    out = hall_search(s4, [2, 3])
    assert out.found and out.subgroup.order == 24
    out = hall_search(s4, [7])
    assert out.found and out.subgroup.order == 1


def test_hall_a5_negative_control(named):
    out = hall_search(named("A5"), [3, 5])
    assert out.status == "none_exists"
    assert out.method == "exhaustive"


def test_hall_whole_group_when_pi_covers(named):
    out = hall_search(named("D8 x C3"), [2, 3])
    assert out.found
    assert out.subgroup.order == 24
    assert not out.subgroup.is_abelian()


def test_hall_unresolved_outside_exhaustive_tier(named):
    out = hall_search(named("A5"), [3, 5], budget=0, subgroup_cap=10)
    assert out.status == "unresolved"
    assert out.subgroup is None


def test_hall_found_verification_fields(named):
    out = hall_search(named("S4"), [2])
    assert out.found and out.subgroup.order == 8
    assert out.method in ("constructive", "randomized", "exhaustive")
    assert out.route


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("filename, pi, budget, method, route", [
    # AGL(1,7) = C7 x| C6 on its 42 elements: d_2 = d_3 = 1, and the two
    # Sylow subgroups the chain order picks generate all of G
    pytest.param("agl17_regular.grp", [2, 3], 20, "constructive",
                 "Sylow subgroups in iterated centralizers (descending)", id="agl17-centralizer"),
    # A5 on its 60 elements (left multiplication), points shuffled by
    # random.Random(1): the Sylow closure is A5 and d_2 < 1
    pytest.param("a5_regular.grp", [2, 3], 20, "randomized",
                 "random Sylow conjugates, attempt 1", id="a5-randomized"),
    pytest.param("a5_regular.grp", [2, 3], 0, "exhaustive", "pi-subgroup enumeration",
                 id="a5-exhaustive"),
])
def test_hall_routes_beyond_the_census(filename, pi, budget, method, route):
    """The centralizer, randomized and exhaustive tiers each end a search
    on a regular representation; no census search reaches the first two."""
    g = parse_group_file((DATA / filename).read_text())
    out = hall_search(g, pi, budget=budget)
    assert out.found and out.subgroup.order == pi_part(g.order, frozenset(pi))
    assert (out.method, out.route) == (method, route)


def test_hall_none_exists_on_regular_a5():
    g = parse_group_file((DATA / "a5_regular.grp").read_text())
    assert g.order == 60
    out = hall_search(g, [2, 5])
    assert (out.status, out.method) == ("none_exists", "exhaustive")


def test_hall_search_runs_once_per_arguments(monkeypatch):
    """A second search with the same arguments returns the cached outcome
    and grows no Sylow subgroup again; a pi with the same relevant primes
    reruns the search on the cached Sylow subgroups; a different budget,
    seed or subgroup cap reruns it.  Growth is counted by its p-part
    powers, the ``_power_images`` calls of ``subgroups`` (nothing else
    there calls it)."""
    import piclass.subgroups

    searches, steps = [], []
    search, power = piclass.subgroups._hall_search, piclass.subgroups._power_images

    def counting_search(*args):
        searches.append(args[1:])
        return search(*args)

    def counting_power(*args):
        steps.append(1)
        return power(*args)

    monkeypatch.setattr(piclass.subgroups, "_hall_search", counting_search)
    monkeypatch.setattr(piclass.subgroups, "_power_images", counting_power)
    g = build(parse_name("S4"))  # fresh: nothing cached
    first = hall_search(g, [2])
    grown = len(steps)
    assert first.found and first.subgroup.order == 8 and grown > 0
    assert hall_search(g, [2]) is first
    assert (len(searches), len(steps)) == (1, grown)
    same = first.subgroup.generators, first.subgroup.element_set()
    other = hall_search(g, [2, 5]).subgroup  # 5 does not divide |G|
    assert (other.generators, other.element_set()) == same
    assert (len(searches), len(steps)) == (2, grown)
    for kwargs in ({"budget": 3}, {"seed": 7}, {"subgroup_cap": 100}):
        other = hall_search(g, [2], **kwargs).subgroup
        assert (other.generators, other.element_set()) == same
    assert len(searches) == 5 and len(steps) == grown


def test_normal_closure_and_sylow_growth_make_one_group_per_call(census_entries, monkeypatch):
    """Normal closures (with and without the known element set) and Sylow
    growth grow an element set and generator images, and make one
    ``PermGroup`` per call, when they return."""
    made = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    calls = 0
    for name, g in census_entries:
        if g.order > 72:
            continue
        fresh = PermGroup(list(g.generators))
        table = conjugacy_classes(fresh)
        runs = [partial(sylow_subgroup, fresh, p) for p in prime_factors(g.order)]
        for i, cls in enumerate(table.classes):
            elements = frozenset(table.elements(table.closure(1 << i)))
            runs += [partial(normal_closure, fresh, [cls.rep]),
                     partial(normal_closure, fresh, [cls.rep], elements)]
        for run in runs:
            made.clear()
            with monkeypatch.context() as m:
                m.setattr(PermGroup, "__init__", counting_init)
                run()
            assert len(made) == 1, (name, run)
            calls += 1
    assert calls > 1000


@pytest.mark.parametrize("name", CENSUS_72)
def test_filtered_enumeration_matches_a_direct_run(name, monkeypatch):
    """The classes of pi-order of an enumeration at a prime set q, or at
    None, are the classes of a direct run at pi on a fresh group, with the
    same representatives, generators and order, for every pi inside q: the
    Hall check filters one sweep per group this way.  The filter sweeps
    nothing more."""
    import piclass.subgroups

    base = build(parse_name(name))
    primes = prime_factors(base.order)
    subsets = _nonempty_subsets(primes)

    def classes(handles):
        return [([g.images for g in h.generators], h.element_set()) for h in handles]

    direct = {pi: classes(enumerate_subgroups_up_to_conjugacy(PermGroup(list(base.generators)),
                                                              pi))
              for pi in subsets}
    for q in [*subsets, None]:
        wide = PermGroup(list(base.generators))
        enumerate_subgroups_up_to_conjugacy(wide, q)
        with monkeypatch.context() as m:
            m.setattr(piclass.subgroups, "_enumerate", None)  # a sweep would raise
            for pi in subsets:
                if q is None or pi < q:
                    filtered = [h for h in enumerate_subgroups_up_to_conjugacy(wide, q)
                                if is_pi_number(h.order, pi)]
                    assert classes(filtered) == direct[pi]


def test_sylow_subgroup_is_cached_per_prime(named):
    g = build(parse_name("D8 x C3"))  # fresh: nothing cached
    assert sylow_subgroup(g, 2) is sylow_subgroup(g, 2)
    assert sylow_subgroup(g, 3) is not sylow_subgroup(g, 2)
    assert sylow_subgroup(g, 5).order == 1


def test_conjugates_of_normal_subgroups_walk_no_orbit(monkeypatch):
    import piclass.subgroups

    walks = []
    orbit = piclass.subgroups.conjugation_set_orbit

    def counting(*args):
        walks.append(1)
        return orbit(*args)

    monkeypatch.setattr(piclass.subgroups, "conjugation_set_orbit", counting)
    g = build(parse_name("C12 x C6"))  # abelian, fresh: no cached classes
    assert len(enumerate_subgroups_up_to_conjugacy(g, pi=[2, 3])) == 48
    assert walks == []
    s4 = build(parse_name("S4"))
    sub = sylow_subgroup(s4, 2)
    walks.clear()
    assert len(conjugates(s4, sub)) == 3
    assert len(walks) == 1


def _s4_on_262_points() -> PermGroup:
    """S4 on the points 258..261 of 262: tuple images."""
    return PermGroup([Permutation.from_cycles(262, [[258, 259, 260, 261]]),
                      Permutation.from_cycles(262, [[258, 259]])])


def test_stabilizers_make_no_permutation_products(monkeypatch):
    """Normalizers and element centralizers, filters over G's images list,
    are built on images, and so is that list: no ``Permutation.__mul__``
    and no ``Permutation.inverse`` call, on bytes and on tuples.  On fresh
    groups, so no chain or element list is cached."""
    names = ["S4", "D8 x C3", "A5", "S3 x S3", "Q8 x C3"]
    groups = [build(parse_name(name)) for name in names] + [_s4_on_262_points()]
    work = []
    for g in groups:
        fresh = PermGroup(list(g.generators))
        subs = [sylow_subgroup(g, p) for p in prime_factors(g.order)]
        subs += [subgroup(g, [cls.rep]) for cls in conjugacy_classes(g).classes]
        work.append((fresh, subs, [cls.rep for cls in conjugacy_classes(g).classes]))

    def forbidden(*args):
        raise AssertionError("Permutation product or inverse in a stabilizer")

    monkeypatch.setattr(Permutation, "inverse", forbidden)
    monkeypatch.setattr(Permutation, "__mul__", forbidden)
    for g, subs, reps in work:
        assert sum(g.order // normalizer(g, h).order for h in subs) > 0
        assert sum(centralizer_of_element(g, x).order for x in reps) > 0


def test_class_sweep_and_coset_closure_wrap_only_class_representatives(monkeypatch):
    """The class sweep and the coset closure read images: on fresh groups,
    on bytes and on tuples, ``conjugacy_classes`` makes no ``Permutation``;
    the first read of ``ClassTable.classes`` makes exactly one per class,
    its representative, and a second read none; and the coset closures of
    ``_extender``, one extender per subgroup as the enumeration builds
    them, make none.  Every ``Permutation._make`` call is counted.  A
    default-suite ``run_group_suite`` on a fresh copy of each group never
    reads ``classes``, nor does one with ``subgroup_cap`` 1, whose Hall
    checks fall back to cyclic pi-subgroups: the library reads the class
    tuples."""
    names = ["S4", "D8 x C3", "A5", "S3 x S3", "Q8 x C3"]
    groups = [build(parse_name(name)) for name in names] + [_s4_on_262_points()]
    made = []
    make = vars(Permutation)["_make"].__func__

    def counting(cls, images):
        made.append(images)
        return make(cls, images)

    records = vars(ClassTable)["classes"]
    read = []

    def reading(table):
        read.append(table)
        return records.__get__(table, ClassTable)

    for g in groups:
        fresh = PermGroup(list(g.generators))
        subs = [sylow_subgroup(g, p) for p in prime_factors(g.order)]
        closures = [(h.element_set(), [s.images for s in h.generators],
                     list(conjugacy_classes(g).rep_images)) for h in subs]
        made.clear()
        with monkeypatch.context() as m:
            m.setattr(Permutation, "_make", classmethod(counting))
            table = conjugacy_classes(fresh)
            assert made == [], g
            classes = table.classes
            assert sorted(made) == sorted(cls.rep.images for cls in classes), g
            assert len(made) == table.k
            made.clear()
            assert table.classes is classes and made == []
            grown = [extend(x) for elements, gens, xs in closures
                     for extend in [_extender(elements, gens)] for x in xs]
            assert made == [], g
        assert table.k == conjugacy_classes(g).k
        assert sum(map(len, grown)) > 0
        with monkeypatch.context() as m:
            m.setattr(ClassTable, "classes", property(reading))
            reports = run_group_suite(PermGroup(list(g.generators)), "G", DEFAULT_SUITES)
            capped = run_group_suite(PermGroup(list(g.generators)), "G", DEFAULT_SUITES,
                                     Config(subgroup_cap=1))
        assert reports and read == [], g
        assert any(r.witness.get("degraded") for r in capped), g


def test_are_conjugate_examples(named):
    s4 = named("S4")
    h1 = subgroup(s4, [parse_cycle_text("(0 1)", 4)])
    same, w = are_conjugate_subgroups(s4, h1, h1)
    assert same and w.is_identity()
    h2 = subgroup(s4, [parse_cycle_text("(0 1)(2 3)", 4)])
    assert are_conjugate_subgroups(s4, h1, h2) == (False, None)
    h3 = subgroup(s4, [parse_cycle_text("(2 3)", 4)])
    same, w = are_conjugate_subgroups(s4, h1, h3)
    assert same
    assert {conjugate(w, x).images for x in h1.element_list()} == set(h3.element_set())


@pytest.mark.parametrize("name", ["S4", "D8 x D8", "A5 x C3"])
def test_conjugation_orbits_match_brute_force(name, named):
    g = named(name)
    elements = g.element_list()
    for h in (subgroup(g, g.generators[:1]), sylow_subgroup(g, 2)):
        brute = {frozenset((x * y * x.inverse()).images for y in h.element_list())
                 for x in elements}
        assert set(conjugates(g, h)) == brute
    pairs = conjugation_pairs(g.generators)
    for cls in conjugacy_classes(g).classes:
        orbit = conjugation_orbit(cls.rep.images, pairs)
        assert len(orbit) == len(set(orbit)) == cls.size
        assert set(orbit) == {(x * cls.rep * x.inverse()).images for x in elements}


def test_o_pi_prime_examples(named):
    assert o_pi_prime(named("S3"), [3]).order == 1
    assert o_pi_prime(named("S4"), [3]).order == 4
    assert o_pi_prime(named("C6"), [2, 3]).order == 1
    assert o_pi_prime(named("A5 x C3"), [3]).order == 1


def test_o_pi_prime_maximality(named):
    from piclass.numtheory import prime_factors
    for name in ["S4", "D12", "A4", "S3 x C5", "D8 x C3"]:
        g = named(name)
        pi = frozenset([3])
        core = o_pi_prime(g, pi)
        for n in normal_subgroups(g):
            if all(q not in pi for q in prime_factors(n.order)):
                assert n.element_set() <= core.element_set()


@pytest.mark.parametrize("name", CENSUS_72)
def test_o_pi_prime_keeps_the_generators_of_its_plain_closure(name, named):
    """O_pi' is the entry of ``normal_subgroups`` whose class bitset is
    ``ClassTable.normal_core``'s, and each seed entry has the generators
    and elements of the plain normal closure of its class representative:
    handing the walk its element set changes neither."""
    g = named(name)
    table = conjugacy_classes(g)
    entries = dict(zip([e.mask for e in normal_lattice(g)], normal_subgroups(g)))
    for pi in _nonempty_subsets(group_primes(g)):
        assert o_pi_prime(g, pi) is entries[table.normal_core(group_primes(g) - pi)], sorted(pi)
    for entry, sub in zip(normal_lattice(g), normal_subgroups(g)):
        if entry.seed is not None:
            plain = normal_closure(g, [table.classes[entry.seed].rep])
            assert sub.generators == plain.generators, entry.seed
            assert sub.element_set() == plain.element_set(), entry.seed


def test_fitting_socle_simple(named):
    assert fitting_subgroup(named("S4")).order == 4
    assert fitting_subgroup(named("D8")).order == 8
    assert socle(named("A5 x C3")).order == 180
    assert socle(named("S4")).order == 4
    assert is_simple(named("A5"))
    assert not is_simple(named("S4"))
    assert not is_simple(named("C6"))


def test_almost_simple(named):
    assert almost_simple_socle(named("A5")).order == 60
    s5_socle = almost_simple_socle(named("S5"))
    assert s5_socle is not None and s5_socle.order == 60
    assert almost_simple_socle(named("S4")) is None
    assert almost_simple_socle(named("A5 x C3")) is None


def test_subgroup_classes_counts(named):
    assert len(enumerate_subgroups_up_to_conjugacy(named("S3"))) == 4
    assert len(enumerate_subgroups_up_to_conjugacy(named("S4"))) == 11
    assert len(enumerate_subgroups_up_to_conjugacy(named("A5"))) == 9
    triv = build(parse_name("C1"))
    assert len(enumerate_subgroups_up_to_conjugacy(triv)) == 1


def _enumeration_profile(g):
    """Sorted class orders for every pi, and the Hall verdict's class counts."""
    pis = _nonempty_subsets(group_primes(g))
    orders = [sorted(h.order for h in enumerate_subgroups_up_to_conjugacy(g, pi=pi))
              for pi in [None, *pis]]
    witnesses = [check_hall_dichotomy(g, pi)[1] for pi in pis]
    counts = [(w.get("pi_subgroup_classes"), w.get("hall_class_count")) for w in witnesses]
    return orders, counts


@pytest.mark.parametrize("name", CENSUS_72)
def test_subgroup_enumeration_survives_relabelling(name, named):
    """Relabelling the points and shuffling and duplicating the generators
    changes no class order of the enumeration, for any pi, and neither
    Hall verdict count."""
    g = named(name)
    assert _enumeration_profile(_relabelled_reordered(g, 7)) == _enumeration_profile(g)


def _recording_extender(monkeypatch, record):
    """Wrap ``subgroups._extender`` so that every closure <H, x> it makes
    calls ``record(element set of H, x, element set of <H, x>)``."""
    import piclass.subgroups

    extender = piclass.subgroups._extender

    def recording(elements, gens, *rest):
        extend = extender(elements, gens, *rest)

        def extend_recorded(x):
            closure = extend(x)
            record(elements, x, closure)
            return closure

        return extend_recorded

    monkeypatch.setattr(piclass.subgroups, "_extender", recording)


@pytest.mark.parametrize("group_set, name", [(group_set, name) for group_set in ("SMALL", "DATA")
                                             for name in GROUP_SETS[group_set]])
def test_extender_stops_exactly_when_the_closure_leaves_pi(group_set, name, group_of):
    """For every prime set pi, with ``outside`` the non-pi elements of G,
    the bounded map gives None exactly when the full closure <H, x> meets
    ``outside``, and that closure otherwise: for H the trivial group and
    each Sylow p-subgroup with p in pi (pi-groups, as the sweep's bases
    are), and x each class representative."""
    g = group_of(group_set, name)
    table = conjugacy_classes(g)
    reps = [cls.rep.images for cls in table.classes]
    sylows = {p: sylow_subgroup(g, p) for p in table.primes}
    full = {}  # (H's prime or None, x) -> the closure <H, x>
    for pi in _nonempty_subsets(group_primes(g)):
        non_pi = sum(1 << i for i, cls in enumerate(table.classes)
                     if not is_pi_number(cls.order, pi))
        outside = frozenset(table.elements(non_pi))
        for p in [None, *sorted(pi)]:
            h = trivial_subgroup(g) if p is None else sylows[p]
            gens = [s.images for s in h.generators]
            bounded = _extender(h.element_set(), gens, outside)
            for x in reps:
                if (p, x) not in full:
                    full[p, x] = _extender(h.element_set(), gens)(x)
                closure = full[p, x]
                want = None if not closure.isdisjoint(outside) else closure
                assert bounded(x) == want, (pi, p, x)


def test_enumeration_skips_extensions_it_already_knows(monkeypatch):
    closures = []
    _recording_extender(monkeypatch, lambda elements, x, closure: closures.append(1))
    g = build(parse_name("C12 x C6"))  # fresh: no cached classes
    assert len(enumerate_subgroups_up_to_conjugacy(g, pi=[2, 3])) == 48
    # the H-orbit skip over every element alone makes 2,862 closures here,
    # with the double-coset rules 274, over prime steps only 130, and with
    # the seen overgroups of prime index covered 47
    assert 0 < len(closures) <= 60


def test_every_closure_of_an_abelian_sweep_finds_a_new_class(monkeypatch):
    """In C12 x C6 each subgroup is its own class.  Every x in a seen K of
    prime index over H gives <H, x> = K, and the sweep covers those K, so
    for every pi each closure it makes is a class not seen before: one
    closure per class but the trivial one."""
    g = build(parse_name("C12 x C6"))  # fresh: no cached classes
    closures = []
    _recording_extender(monkeypatch, lambda elements, x, closure: closures.append(closure))
    for pi in [None, *_nonempty_subsets(group_primes(g))]:
        closures.clear()
        found = enumerate_subgroups_up_to_conjugacy(g, pi=pi)
        assert len(closures) == len(found) - 1, pi
        assert set(closures) == {h.element_set() for h in found[1:]}, pi


SWEPT_DATA = [name for name in GROUP_SETS["DATA"]
              if parse_group_file((DATA / name).read_text()).order <= 2000]


@pytest.mark.parametrize("group_set, name", [("SMALL", name) for name in GROUP_SETS["SMALL"]]
                         + [("DATA", name) for name in SWEPT_DATA])
def test_prime_index_closure_is_the_first_of_its_class(group_set, name, group_of, monkeypatch):
    """Every seen K of prime index over a base H that holds H is covered,
    when H starts or when K's class is found.  So, at every pi and at None,
    each closure of prime index over its base is the first closure of the
    sweep to land in its conjugacy class, and no base closes one such K
    twice."""
    g = group_of(group_set, name)
    closures = []
    _recording_extender(monkeypatch,
                        lambda elements, x, closure: closures.append((elements, closure)))
    for pi in [None, *_nonempty_subsets(group_primes(g))]:
        fresh = PermGroup(g.generators, degree=g.degree)  # no cached sweep
        pairs = conjugation_pairs(fresh.generators)
        closures.clear()
        enumerate_subgroups_up_to_conjugacy(fresh, pi=pi)
        landed = set()  # every conjugate of each closure so far
        prime_index = set()
        for base, closure in closures:
            if closure is None:
                continue
            if is_prime(len(closure) // len(base)):
                assert closure not in landed, (pi, len(base), len(closure))
                assert (base, closure) not in prime_index, (pi, len(base), len(closure))
                prime_index.add((base, closure))
            if closure not in landed:
                landed |= conjugation_set_orbit(closure, pairs)


@pytest.mark.parametrize("name", ["C12 x C6", "S4 x S3"])
def test_enumeration_extends_by_prime_steps_only(name, monkeypatch):
    """Every extension <H, x> of a fresh enumeration, for every pi, takes a
    prime step: x^q lies in H for a prime q dividing |x|."""
    g = build(parse_name(name))
    steps = []
    _recording_extender(monkeypatch,
                        lambda elements, x, closure: steps.append((elements, Permutation(x))))
    for pi in [None, *_nonempty_subsets(group_primes(g))]:
        enumerate_subgroups_up_to_conjugacy(g, pi=pi)
    assert steps
    for base, x in steps:
        assert x.images not in base
        assert any((x ** q).images in base for q in prime_factors(x.order())), x


def test_pi_restricted_enumeration(named):
    a5 = named("A5")
    threes = enumerate_subgroups_up_to_conjugacy(a5, pi=frozenset([3]))
    assert sorted(h.order for h in threes) == [1, 3]
    twos = enumerate_subgroups_up_to_conjugacy(a5, pi=frozenset([2]))
    assert sorted(h.order for h in twos) == [1, 2, 4]


def test_subgroup_enumeration_cap(named):
    with pytest.raises(CapExceededError):
        enumerate_subgroups_up_to_conjugacy(named("S4"), cap=10)


def test_intersection_and_join(named):
    s4 = named("S4")
    a4 = next(h for h in normal_subgroups(s4) if h.order == 12)
    d8 = subgroup(s4, list(sylow_subgroup(s4, 2).generators))
    meet = subgroup_intersection(s4, a4, d8)
    assert meet.order == 4
    assert join_subgroups(s4, a4, d8).order == 24


def _psl27():
    """PSL(2,7), order 168, on the 7 points of the Fano plane."""
    gens = [parse_cycle_text("(0 1 2 3 4 5 6)", 7), parse_cycle_text("(1 2)(3 6)", 7)]
    return PermGroup(gens)


# ambient group -> (its number of subgroup classes, the ranks in the sorted
# class list whose fresh quotient check falls back to N's own class table)
COMPLETE_SWEEPS = {
    "S6": (56, [35]),  # OEIS A000638
    "A6": (22, [15]),  # rank 15 is conjugate in S6 to S6#35, of order 18
    "psl27.grp": (15, []),
    "a7.grp": (40, [22, 34]),
    "agl32.grp": (95, [80, 85, 87, 88, 94]),  # the count as this sweep records it
}


@pytest.mark.parametrize("name", COMPLETE_SWEEPS)
def test_complete_sweep_of_an_ambient_group(name):
    """Every subgroup class of S6, A6, PSL(2,7), A7 and AGL(3,2): the known
    class counts of the first four, and each class representative, rebuilt
    as a fresh group from its generators, gets no ``fail`` from a default
    suite.  The ranks whose quotient check, run alone, counts an N on its
    own class table are pinned, so a change that stops reaching that
    fallback shows."""
    g, classes = complete_sweep(name)
    count, fallback = COMPLETE_SWEEPS[name]
    assert len(classes) == count
    reached = []
    for rank, h in enumerate(classes):
        fresh = PermGroup(h.generators, degree=g.degree)
        check_quotient_bound(fresh)
        if "normal_subgroups" in fresh.cache:
            reached.append(rank)
        statuses = {r.status for r in run_group_suite(fresh, f"{name}#{rank}", DEFAULT_SUITES)}
        assert FAIL not in statuses, (rank, statuses)
    assert reached == fallback


def test_psl27_subgroup_classes():
    """A non-solvable group outside the census: its 15 subgroup classes, the
    two classes of Hall {2,3}-subgroups (both S4), class-level agreement
    with the oracle for every pi, and the 2/3 case of the Hall check."""
    g = _psl27()
    assert g.order == 168
    assert ([h.order for h in enumerate_subgroups_up_to_conjugacy(g)]
            == [1, 2, 3, 4, 4, 4, 6, 7, 8, 12, 12, 21, 24, 24, 168])
    two_three = enumerate_subgroups_up_to_conjugacy(g, pi=[2, 3])
    assert len(two_three) == 12
    assert [h.order for h in two_three].count(24) == 2
    for pi in _nonempty_subsets(group_primes(g)):
        assert same_classes(g, enumerate_subgroups_up_to_conjugacy(g, pi=pi),
                            subgroup_classes_by_orbit_skip(g, pi))
    status, witness = check_hall_dichotomy(g, [3])
    assert status == "pass" and witness["d_pi"] == "2/3"


def test_psl27_hall_verdicts_where_the_theorem_bites():
    """PSL(2,7) has two classes of Hall {2,3}-subgroups, so the theorem
    forces d_pi <= 5/8 there: it is 1/6, and the verdict is vacuous.  No
    Hall {2,7}-subgroup (order 56) exists, and only the exhaustive tier
    says so."""
    g = _psl27()
    assert [h.order for h in enumerate_subgroups_up_to_conjugacy(g, pi=[2, 3])].count(24) == 2
    assert check_hall_dichotomy(g, [2, 3]) == ("vacuous", {"d_pi": "1/6"})
    outcome = hall_search(g, [2, 7])
    assert (outcome.status, outcome.method, outcome.subgroup) == ("none_exists", "exhaustive", None)


def test_d8_has_d_pi_five_eighths_and_a_non_abelian_hall_subgroup(named):
    """D8 at pi {2}: d_pi = 5/8 exactly, and its Hall 2-subgroup, D8
    itself, is not abelian.  So the theorem's strict bound d_pi > 5/8 is
    sharp."""
    g = named("D8")
    assert check_hall_dichotomy(g, [2]) == ("vacuous", {"d_pi": "5/8"})
    outcome = hall_search(g, [2])
    assert outcome.found and outcome.subgroup.order == 8
    assert not outcome.subgroup.is_abelian()


def test_psl27_sylow3_structure_where_d3_is_two_thirds():
    """PSL(2,7) at pi {3}: d_3 = 2/3 with trivial O_3', so the structure
    check reaches the normalizer of a Sylow 3-subgroup P of order 3, with
    |N_G(P)/C_G(P)| = 2, and passes by case 2 with A = G, almost simple,
    and B trivial."""
    g = parse_group_file((Path(__file__).parent / "data" / "psl27.grp").read_text())
    status, witness = check_sylow3_structure(g)
    assert status == "pass"
    assert (witness["d_3"], witness["o_3_prime_order"]) == ("2/3", 1)
    assert (witness["normalizer_over_centralizer"], witness["commutator_order"],
            witness["central_part_order"]) == (2, 3, 1)
    assert witness["case1_self_centralizing_normal"] is False
    assert witness["case2_almost_simple_times_3group"] is True
    assert (witness["case2_witness"]["A_order"], witness["case2_witness"]["B_order"]) == (168, 1)

"""Every fast path of the class table and the subgroup layer against an
independent slow path, from one table.

A row of ``FAST_PATHS`` names a fast function, its oracle in ``oracles.py``,
the group sets it runs on, and a check that yields (where, fast answer,
oracle answer) for one group; ``where`` names the pi, N or element
compared.  The sets are ``SMALL`` (named groups small enough for the
exponential oracles), ``LATTICE_SLICE`` (deep lattices, large quotients, a
simple factor), ``CENSUS_72`` (the census groups of order at most 72),
``CENSUS``, ``DATA`` (the groups of ``tests/data/*.grp``), ``WIDE`` (S4
on the last points of 262, whose images are int tuples) and ``SUBGROUPS``
(every subgroup class of S6, A6, PSL(2,7), A7 and AGL(3,2), ``"S6#35"``
the class of rank 35 in the complete sweep of S6); the ``group_of``
fixture of ``conftest.py`` builds each group once a session.

``test_fast_path`` runs every row, one test id per (row, group),
``test_fast_path[<row id>-<group>]``, where a row id is ``<fast
function>~<oracle>~<check>``.  The ``CENSUS`` groups of a row run as one
walk, ``test_fast_path[<row id>-CENSUS]``; a row that counts its
comparisons in ``cases`` runs as one walk of all its groups,
``test_fast_path[<row id>]``, after which the count is checked.  A failure
names the row, the group and the where.

``test_every_public_fast_path_has_a_row`` reads the public functions of
``classes.py`` and ``subgroups.py`` and the public ``ClassTable`` methods
with ``ast``, and fails on one that is neither a row's fast function nor in
``EXEMPT`` with its reason.
"""

import ast
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

import oracles
from conftest import complete_sweep
from piclass import subgroups
from piclass.catalog import census_specs, parse_group_file, parse_name
from piclass.classes import ClassTable, conjugacy_classes, k_pi, pi_count
from piclass.group import PermGroup
from piclass.invariants import group_primes, has_normal_pi_complement, normal_pi_complement_exists
from piclass.numtheory import is_pi_number, is_prime, prime_factors
from piclass.perm import Permutation, conjugate_images, conjugate_set, conjugation_pairs
from piclass.suite import _nonempty_subsets

SMALL = ["S3", "S4", "A4", "A5", "D8", "Q8", "C6", "D12", "C12", "S3 x C3", "D8 x C3"]
# census groups with a deep lattice (D8 x D8, Q8 x D8), large quotients
# (S4 x S4, S5 x S3), a simple factor (A5 x C3) and many abelian normals
LATTICE_SLICE = ["C1", "S3", "C12", "D8", "Q8", "A4", "S4", "A5", "C6 x C6", "D8 x D8",
                 "Q8 x D8", "S4 x S4", "A5 x C3", "S5 x C2", "S5 x S3"]
CENSUS_72 = [spec.name for spec in census_specs() if spec.order <= 72]
DATA_DIR = Path(__file__).parent / "data"
# the ambient groups of the complete sweeps: their 228 classes, the groups
# themselves included, take under a second on the rows that read them
SWEPT = ("S6", "A6", "psl27.grp", "a7.grp", "agl32.grp")
GROUP_SETS = {
    "SMALL": SMALL,
    "LATTICE_SLICE": LATTICE_SLICE,
    "CENSUS_72": CENSUS_72,
    "CENSUS": [spec.name for spec in census_specs()],
    "DATA": sorted(path.name for path in DATA_DIR.glob("*.grp")),
    "WIDE": ["S4@262"],
    "SUBGROUPS": [f"{ambient}#{rank}" for ambient in SWEPT
                  for rank in range(len(complete_sweep(ambient)[1]))],
}


def group_order(group_set: str, name: str) -> int:
    """The order of a group of ``GROUP_SETS``, for a row's ``max_order``:
    a ``DATA`` file is parsed, a ``SUBGROUPS`` class is read from its
    sweep, and ``WIDE`` has the order of its base."""
    if group_set == "DATA":
        return parse_group_file((DATA_DIR / name).read_text()).order
    if group_set == "SUBGROUPS":
        ambient, rank = name.split("#")
        return complete_sweep(ambient)[1][int(rank)].order
    return parse_name(name.split("@")[0]).order


def _subsets(g, extra=frozenset()):
    return _nonempty_subsets(group_primes(g) | extra)


def _pis(g):
    """Every nonempty pi inside the primes of |G|, a prime p outside |G|,
    and the primes of |G| with p."""
    primes = group_primes(g)
    outside = next(p for p in itertools.count(2) if is_prime(p) and g.order % p)
    return _subsets(g) + [frozenset([outside]), primes | {outside}]


def _lattice(g):
    """(N, class set of N) for each normal subgroup N."""
    table = conjugacy_classes(g)
    return [(n, table.normal_mask(n.element_set())) for n in subgroups.normal_subgroups(g)]


def _sylows(g):
    return [subgroups.sylow_subgroup(g, p) for p in prime_factors(g.order)]


def _reps(g):
    return subgroups.enumerate_subgroups_up_to_conjugacy(g)


def _set_of(h):
    return h.generators, h.element_set()


def same_classes(g, classes, oracle) -> bool:
    """``classes`` holds one subgroup of each class ``oracle`` does: each
    of ``oracle``'s subgroups is a conjugate of one of ``classes``, found
    by the oracle's orbit walk, all of them are hit, and none twice."""
    class_of = {key: i for i, h in enumerate(classes)
                for key in oracles.orbit_transversal(g, h.element_set(), conjugate_set)}
    hits = {class_of.get(h.element_set()) for h in oracle}
    return len(classes) == len(oracle) == len(hits) and hits == set(range(len(classes)))


# -- the checks: each yields (where, fast answer, oracle answer) on G -------


def partition(g):
    table, ours = conjugacy_classes(g), {}
    for i, e in enumerate(g.element_list()):
        ours.setdefault(table.class_of(e), set()).add(i)
    yield "classes", set(map(frozenset, ours.values())), set(
        oracles.brute_conjugacy_partition(g.element_list()))


def class_equation(g):
    """Class i has |G : C_G(rep_i)| members, and the sizes sum to |G|."""
    table, elements = conjugacy_classes(g), g.element_list()
    yield "sum", sum(table.sizes()), g.order
    for cls, size in zip(table.classes, table.sizes()):
        yield cls.rep, size * len(oracles.brute_centralizer(elements, cls.rep)), g.order


def class_orders(g):
    """The element order of each class is the number of distinct powers of
    its representative."""
    for i, cls in enumerate(conjugacy_classes(g).classes):
        yield ("class", i), cls.order, len(oracles._powers(cls.rep))


def sampled_centralizers(g):
    elements = g.element_list()
    for x in elements[:: max(1, len(elements) // 12)]:
        yield x, subgroups.centralizer_of_element(g, x).element_set(), {
            c.images for c in oracles.brute_centralizer(elements, x)}


def power_maps(g):
    table = conjugacy_classes(g)
    for i in range(table.k):
        yield ("class", i), table.power_map(i), oracles.power_classes(table, i)


def rational_classes(g):
    table = conjugacy_classes(g)
    for i in range(table.k):
        yield ("class", i), table.rational_class(i), oracles.rational_class_by_powers(table, i)


def order_sums(g):
    """k_pi(G) and k_pi(N), read from the class tables of G and N, are the
    sums over element orders that are pi-numbers."""
    pis = _pis(g)
    for n in [g, *subgroups.normal_subgroups(g)]:
        counts = oracles.order_counts(conjugacy_classes(n))
        for pi in pis:
            yield ("N", n.order, "pi", pi), k_pi(n, pi), oracles.pi_sum(counts, pi)


def class_equation_sums(g):
    for pi in _subsets(g):
        yield ("pi", pi), k_pi(g, pi), oracles.k_pi_by_class_equation(g, pi)


def quotient_order_sums(g):
    """k_pi(G/N), read from the class fusion of G, is the sum over the
    orders of the elements x * N that are pi-numbers."""
    table, pis = conjugacy_classes(g), _pis(g)
    for n, mask in _lattice(g):
        counts = oracles.quotient_order_counts(table, mask)
        supports = table.quotient_histogram(mask)
        for pi in pis:
            yield (("N", n.order, "pi", pi), pi_count(supports, table.pi_bits(pi)),
                   oracles.pi_sum(counts, pi))


def histograms(g):
    table = conjugacy_classes(g)
    yield "G", table.histogram(), oracles.classes_by_support(table, table.full)


def pi_class_sets(g):
    table = conjugacy_classes(g)
    for pi in _pis(g):
        yield ("pi", pi), table.pi_classes(table.pi_bits(pi)), oracles.pi_classes_by_orders(
            table, pi)


def lower_bounds(g):
    """The quotient suite's lower bound on k_pi(N) counts the G-classes of
    pi-elements inside N, and it is sound: at most k_pi(N), read from N's
    own class table."""
    table = conjugacy_classes(g)
    for n, mask in _lattice(g):
        for pi in _subsets(g):
            bound = table.k_pi_lower_bound(mask, table.pi_bits(pi))
            inside = (oracles.pi_classes_by_orders(table, pi) & mask).bit_count()
            yield ("N", n.order, "pi", pi), (bound, bound <= k_pi(n, pi)), (inside, True)


def supports(g):
    """Every class-product support, built on a fresh copy of G in row
    order, so each (i, j) with i < j builds the support and (j, i) reads
    its mirror cell."""
    table = conjugacy_classes(PermGroup(list(g.generators), degree=g.degree))
    for i, j in itertools.product(range(table.k), repeat=2):
        yield ("classes", i, j), table._support(i, j), oracles.class_product_support_by_pairs(
            table, i, j)


def closures(g):
    """The closure of each lattice entry's generating classes, and of each
    class, is the all-pairs closure.  Single classes come last, so their
    cached closures are read after those of other class sets."""
    table = conjugacy_classes(g)
    for n, mask in _lattice(g):
        gens = sum({1 << table.class_of(x) for x in n.generators})
        want = oracles.closure_by_all_pairs(table, gens)
        yield ("N", n.order), table.closure(gens), want
        yield ("N", n.order, "lattice"), mask, want
    for i in range(table.k):
        yield ("class", i), table.closure(1 << i), oracles.closure_by_all_pairs(table, 1 << i)


def bounded_closures(g):
    """On a fresh copy of G, for every prime set and each class of
    pi-elements, the closure bounded by the classes of pi-elements is the
    all-pairs closure when it stays inside them and None when it leaves
    them, and a None walk adds no cache entry."""
    table = conjugacy_classes(PermGroup(list(g.generators)))
    for pi in _subsets(g):
        allowed = oracles.pi_classes_by_orders(table, pi)
        for i in range(table.k):
            if allowed >> i & 1:
                want = oracles.closure_by_all_pairs(table, 1 << i)
                was_cached = 1 << i in table._closures
                got = table.closure(1 << i, allowed)
                yield ("pi", pi, "class", i), got, None if want & ~allowed else want
                yield ("pi", pi, "class", i, "cached"), 1 << i in table._closures, (
                    was_cached or got is not None)


def fusions(g):
    """The block holding class i is the coset row of class i, and the blocks
    are the rows of the classes no earlier row covers."""
    table = conjugacy_classes(g)
    for n, mask in _lattice(g):
        rows, blocks = oracles.coset_classes_by_rows(table, mask), table.fusion(mask)
        firsts, covered = [], 0
        for i, row in enumerate(rows):
            if not covered >> i & 1:
                firsts.append(row)
                covered |= row
        holding = [[b for b in blocks if b >> i & 1] for i in range(table.k)]
        yield ("N", n.order), (holding, blocks), ([[row] for row in rows], firsts)


def joins(g):
    """N * M is the union of the coset rows of N over the classes of M."""
    table, lattice = conjugacy_classes(g), _lattice(g)
    for n, mask in lattice:
        rows, want = oracles.coset_classes_by_rows(table, mask), []
        for _, other in lattice:
            joined = mask
            for i in range(table.k):
                if other >> i & 1:
                    joined |= rows[i]
            want.append(joined)
        yield ("N", n.order), [table.join(mask, other) for _, other in lattice], want


def normality(g):
    """A normal, Sylow or cyclic subgroup has a class set exactly when it is
    normal, and then the class set holds its elements."""
    table = conjugacy_classes(g)
    subs = subgroups.normal_subgroups(g) + _sylows(g)
    for h in subs + [subgroups.subgroup(g, [cls.rep]) for cls in table.classes]:
        mask = table.normal_mask(h.element_set())
        elements = None if mask is None else frozenset(table.elements(mask))
        yield h.generators, elements, h.element_set() if oracles.is_normal(g, h) else None


def class_unions(g):
    yield "normal subgroups", {h.element_set() for h in subgroups.normal_subgroups(g)}, set(
        oracles.normal_subgroups_by_class_unions(g))


def pairwise_joins(g):
    """Generators, orders and element sets read from class bitsets match
    the joins and chains of the oracle."""
    ours, oracle = subgroups.normal_subgroups(g), oracles.normal_subgroups_by_joins(g)
    yield "generators", [h.generators for h in ours], [h.generators for h in oracle]
    yield "orders", [h.order for h in ours], [PermGroup(h.generators).order for h in oracle]
    yield "element sets", [h.element_set() for h in ours], [h.element_set() for h in oracle]


def _lattice_position(g, sub, oracle_set):
    """Where ``sub`` itself stands among ``normal_subgroups(g)``, and where
    the entry with the oracle's element set stands: the same place when
    ``sub`` is that entry, not a copy of it."""
    normals = subgroups.normal_subgroups(g)
    return (next((i for i, n in enumerate(normals) if n is sub), None),
            [n.element_set() for n in normals].index(oracle_set))


def cores(g):
    for pi in _subsets(g, {2}):
        core = subgroups.o_pi_prime(g, pi)
        want = oracles.normal_core_by_closures(g, lambda q: q not in pi)
        yield ("pi", pi), core.element_set(), want
        yield ("pi", pi, "lattice entry"), *_lattice_position(g, core, want)


def core_orders(g):
    for pi in _subsets(g, {2}):
        yield ("pi", pi), subgroups.o_pi_prime_order(g, pi), len(
            oracles.normal_core_by_closures(g, lambda q: q not in pi))


def table_cores(g):
    """The classes of O_pi'(G) hold its elements, and their sizes sum to
    its order."""
    table = conjugacy_classes(g)
    for pi in _subsets(g, {2}):
        mask = table.normal_core(group_primes(g) - pi)
        want = oracles.normal_core_by_closures(g, lambda q: q not in pi)
        yield ("pi", pi), (frozenset(table.elements(mask)), table.order(mask)), (want, len(want))


def complements(g):
    """``has_normal_pi_complement`` and the existence test it decides on."""
    for pi in _subsets(g, {2}):
        exists, complement = has_normal_pi_complement(g, pi)
        want = oracles.normal_pi_complement_by_element_scan(g, pi)
        yield ("pi", pi), (exists, complement.element_set() if exists else None), want
        yield ("pi", pi, "exists"), normal_pi_complement_exists(g, pi), want[0]


def complement_answers(g):
    """``normal_pi_complement_exists``, shortcut included, at every pi."""
    for pi in _subsets(g):
        want = oracles.normal_pi_complement_by_lattice(g, pi)
        yield ("pi", pi), normal_pi_complement_exists(g, pi), want


def fitting_sets(g):
    fitting, want = subgroups.fitting_subgroup(g), oracles.fitting_subgroup_by_closures(g)
    yield "F(G)", fitting.element_set(), want
    yield "F(G) lattice entry", *_lattice_position(g, fitting, want)


def socle_sets(g):
    soc, want = subgroups.socle(g), oracles.socle_by_element_sets(g)
    yield "socle", soc.element_set(), want
    yield "socle lattice entry", *_lattice_position(g, soc, want)


def closures_of_generators(g):
    """The subgroup on each class representative, and on G's generators."""
    for gens in [*([cls.rep] for cls in conjugacy_classes(g).classes), list(g.generators)]:
        yield gens, subgroups.subgroup(g, gens).element_set(), oracles.naive_closure(gens)


def normal_closures(g):
    table = conjugacy_classes(g)
    for cls, members in zip(table.classes, table.members):
        yield cls.rep, subgroups.normal_closure(g, [cls.rep]).element_set(), (
            oracles.naive_closure([Permutation._make(im) for im in members]))


def subgroup_joins(g):
    normals, sylows = subgroups.normal_subgroups(g), _sylows(g)
    for a, b in [*zip(normals, normals[1:]), *zip(sylows, sylows[1:])]:
        yield (a.order, b.order), subgroups.join_subgroups(g, a, b).element_set(), (
            oracles.naive_closure([*a.generators, *b.generators]))


def commutators(g):
    """[A, B], for A = B = G and for a Sylow P with N_G(P), is the closure
    of all the commutators."""
    for a, b in [(g, g), *((p, subgroups.normalizer(g, p)) for p in _sylows(g))]:
        comms = {(x * y * x.inverse() * y.inverse()).images
                 for x in a.element_list() for y in b.element_list()}
        yield (a.order, b.order), subgroups.commutator_subgroup(g, a, b).element_set(), (
            oracles.naive_closure([Permutation._make(im) for im in comms]))


def sylow_growth(g):
    """On a fresh copy of G, Sylow growth keeps the generators and element
    set of the growth through normalizers, and builds no normalizer."""
    primes = prime_factors(g.order)
    with mock.patch.object(subgroups, "normalizer",
                           side_effect=AssertionError("Sylow growth built a normalizer")):
        grown = [subgroups.sylow_subgroup(PermGroup(list(g.generators)), p) for p in primes]
    for p, got in zip(primes, grown):
        yield ("p", p), _set_of(got), _set_of(oracles.sylow_subgroup_by_normalizers(g, p))


def conjugate_orbits(g):
    """The normal-subgroup shortcut gives the orbit the walk gives."""
    for h in _reps(g):
        yield h.generators, set(subgroups.conjugates(g, h)), set(
            oracles.orbit_transversal(g, h.element_set(), conjugate_set))


def _stabilizer_sets(where, got, want):
    """The element set of ``got`` against the oracle's, and the closure of
    ``got``'s generators against it too: they lie in it and generate it."""
    want = want.element_set()
    yield where, got.element_set(), want
    yield (where, got.generators), oracles.naive_closure(got.generators), want


def normalizers(g):
    for h in _sylows(g) + _reps(g):
        yield from _stabilizer_sets(h.generators, subgroups.normalizer(g, h),
                                    oracles.schreier_stabilizer_by_products(
                                        g, h.element_set(), conjugate_set))


def element_centralizers(g):
    for x in (cls.rep for cls in conjugacy_classes(g).classes):
        yield from _stabilizer_sets(x, subgroups.centralizer_of_element(g, x), (
            g if g.is_abelian() else
            oracles.schreier_stabilizer_by_products(g, x.images, conjugate_images)))


def conjugacy_witnesses(g):
    """For each conjugate K of a representative H in the oracle's orbit
    walk, the witness lies in G and conjugates H onto K; two
    representatives of one order are not conjugate."""
    reps, one = _reps(g), Permutation.identity(g.degree)
    elements = g.element_set()
    for h in reps:
        hkey = h.element_set()
        for key in oracles.orbit_transversal(g, hkey, conjugate_set):
            same, w = subgroups.are_conjugate_subgroups(g, h, PermGroup([one], elements=key))
            yield (h.generators, key), (same, w.images in elements, conjugate_set(
                conjugation_pairs([w])[0], hkey)), (True, True, key)
        for other in reps:
            if other is not h and other.order == h.order:
                yield (h.generators, other.generators), subgroups.are_conjugate_subgroups(
                    g, h, other), (False, None)


def all_subgroups(g):
    """Summed over the classes, the conjugates of the representatives count
    every subgroup, for every pi."""
    orders = [len(s) for s in oracles.all_subgroups_naive(g)]
    for pi in [None, *_subsets(g)]:  # all, then the pi-subgroups
        classes = subgroups.enumerate_subgroups_up_to_conjugacy(g, pi=pi)
        yield ("pi", pi), sum(g.order // subgroups.normalizer(g, h).order for h in classes), sum(
            pi is None or is_pi_number(n, pi) for n in orders)


def orbit_skip_sweep(g):
    for pi in _subsets(g):
        yield ("pi", pi), same_classes(g, subgroups.enumerate_subgroups_up_to_conjugacy(
            g, pi=pi), oracles.subgroup_classes_by_orbit_skip(g, pi)), True


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    fast: Callable
    oracle: Callable
    groups: tuple[str, ...]  # names of group sets, walked in this order
    check: Callable  # group -> (where, fast answer, oracle answer), ...
    max_order: int | None = None
    cases: int | None = None  # comparisons over the whole walk

    @property
    def id(self) -> str:
        return f"{self.fast.__qualname__}~{self.oracle.__name__}~{self.check.__name__}"

    def names(self) -> list[tuple[str, str]]:
        """(group set, group name) for each group, each name once."""
        seen, out = set(), []
        for group_set in self.groups:
            for name in GROUP_SETS[group_set]:
                if name not in seen and (self.max_order is None
                                         or group_order(group_set, name) <= self.max_order):
                    seen.add(name)
                    out.append((group_set, name))
        return out


FAST_PATHS = (
    Row(conjugacy_classes, oracles.brute_conjugacy_partition, ("SMALL", "CENSUS", "SUBGROUPS"),
        partition),
    Row(conjugacy_classes, oracles._powers, ("CENSUS", "DATA", "WIDE"), class_orders),
    Row(ClassTable.sizes, oracles.brute_centralizer, ("SMALL",), class_equation),
    Row(subgroups.centralizer_of_element, oracles.brute_centralizer, ("SMALL",),
        sampled_centralizers),
    Row(ClassTable.power_map, oracles.power_classes, ("CENSUS", "DATA", "WIDE"), power_maps),
    Row(ClassTable.rational_class, oracles.rational_class_by_powers, ("CENSUS",),
        rational_classes),
    Row(k_pi, oracles.order_counts, ("CENSUS",), order_sums),
    Row(ClassTable.quotient_histogram, oracles.quotient_order_counts,
        ("CENSUS", "LATTICE_SLICE", "SUBGROUPS"), quotient_order_sums),
    Row(ClassTable.pi_classes, oracles.pi_classes_by_orders, ("CENSUS", "DATA", "SUBGROUPS"),
        pi_class_sets),
    Row(ClassTable.k_pi_lower_bound, oracles.pi_classes_by_orders,
        ("LATTICE_SLICE", "SUBGROUPS"), lower_bounds),
    Row(k_pi, oracles.k_pi_by_class_equation, ("LATTICE_SLICE", "SUBGROUPS"),
        class_equation_sums, max_order=200),
    Row(ClassTable.histogram, oracles.classes_by_support, ("CENSUS",), histograms),
    Row(ClassTable._support, oracles.class_product_support_by_pairs,
        ("CENSUS_72", "WIDE", "DATA"), supports, max_order=200),
    Row(ClassTable.closure, oracles.closure_by_all_pairs, ("CENSUS",), closures),
    Row(ClassTable.closure, oracles.closure_by_all_pairs, ("CENSUS_72",), bounded_closures),
    Row(ClassTable.fusion, oracles.coset_classes_by_rows, ("CENSUS", "SUBGROUPS"), fusions),
    Row(ClassTable.join, oracles.coset_classes_by_rows, ("CENSUS",), joins),
    Row(ClassTable.normal_mask, oracles.is_normal, ("SMALL",), normality),
    Row(subgroups.normal_subgroups, oracles.normal_subgroups_by_class_unions, ("SMALL",),
        class_unions),
    Row(subgroups.normal_subgroups, oracles.normal_subgroups_by_joins,
        ("LATTICE_SLICE", "CENSUS_72", "SUBGROUPS"), pairwise_joins),
    Row(subgroups.o_pi_prime, oracles.normal_core_by_closures, ("LATTICE_SLICE",), cores),
    Row(subgroups.o_pi_prime_order, oracles.normal_core_by_closures, ("LATTICE_SLICE",),
        core_orders),
    Row(ClassTable.normal_core, oracles.normal_core_by_closures, ("LATTICE_SLICE", "CENSUS_72"),
        table_cores),
    Row(has_normal_pi_complement, oracles.normal_pi_complement_by_element_scan,
        ("LATTICE_SLICE",), complements),
    Row(normal_pi_complement_exists, oracles.normal_pi_complement_by_lattice,
        ("CENSUS", "DATA", "SUBGROUPS"), complement_answers),
    Row(subgroups.fitting_subgroup, oracles.fitting_subgroup_by_closures, ("LATTICE_SLICE",),
        fitting_sets),
    Row(subgroups.socle, oracles.socle_by_element_sets, ("LATTICE_SLICE",), socle_sets),
    Row(subgroups.subgroup, oracles.naive_closure, ("SMALL",), closures_of_generators),
    Row(subgroups.normal_closure, oracles.naive_closure, ("SMALL",), normal_closures),
    Row(subgroups.join_subgroups, oracles.naive_closure, ("SMALL",), subgroup_joins),
    Row(subgroups.commutator_subgroup, oracles.naive_closure, ("SMALL",), commutators),
    # 657 census (group, prime) pairs; 38 from tests/data: 2 for SL(2,3)
    # and GL(2,3), 3 for PSL(2,7), AGL(1,7), A5, AGL(3,2), AGL(1,11) and
    # AGL(1,13), 4 for A7, S7, M11 and S8; and 363 from SUBGROUPS: 94 in
    # S6, 36 in A6, 22 in PSL(2,7), 76 in A7 and 135 in AGL(3,2)
    Row(subgroups.sylow_subgroup, oracles.sylow_subgroup_by_normalizers,
        ("CENSUS", "DATA", "SUBGROUPS"), sylow_growth, cases=657 + 38 + 363),
    Row(subgroups.conjugates, oracles.orbit_transversal, ("CENSUS_72",), conjugate_orbits),
    Row(subgroups.normalizer, oracles.schreier_stabilizer_by_products, ("CENSUS_72",),
        normalizers),
    Row(subgroups.centralizer_of_element, oracles.schreier_stabilizer_by_products,
        ("CENSUS_72",), element_centralizers),
    Row(subgroups.are_conjugate_subgroups, oracles.orbit_transversal, ("CENSUS_72",),
        conjugacy_witnesses),
    Row(subgroups.enumerate_subgroups_up_to_conjugacy, oracles.all_subgroups_naive, ("SMALL",),
        all_subgroups, max_order=24),
    Row(subgroups.enumerate_subgroups_up_to_conjugacy, oracles.subgroup_classes_by_orbit_skip,
        ("CENSUS_72", "SUBGROUPS"), orbit_skip_sweep, max_order=200),
)

EXEMPT = {
    "classes.pi_count": "a sum over a histogram: k_pi, _widest_pi and the quotient suite's "
                        "k_pi(G/N) read it, and the k_pi and quotient_histogram rows check it",
    "classes.all_d_p_one": "compares k_pi, which has rows, with |G|_p",
    "classes.ClassTable.k": "the number of classes",
    "classes.ClassTable.classes": "records of the class tuples, made on first read; the "
                                  "conjugacy_classes rows check their orders and sizes",
    "classes.ClassTable.order": "sums class sizes, read by the normal_core row",
    "classes.ClassTable.class_of": "a dict lookup, read by the conjugacy_classes row",
    "classes.ClassTable.elements": "joins member lists, read by the normal_mask row",
    "classes.ClassTable.prime_support": "bit arithmetic, read by the k_pi rows",
    "classes.ClassTable.pi_bits": "bit arithmetic, read by the quotient_histogram rows",
    "subgroups.trivial_subgroup": "the identity alone",
    "subgroups.quotient": "the coset action on G/N: criterion 8 (test_acceptance.py) compares "
                          "its k_pi with the class fusion's on every census (G, N)",
    "subgroups.centralizer_of_subgroup": "filters G's elements: it is the brute force",
    "subgroups.center": "centralizer_of_subgroup(G, G)",
    "subgroups.derived_subgroup": "commutator_subgroup(G, G, G), a pair its row checks",
    "subgroups.subgroup_intersection": "filters one element set by the other: the brute force",
    "subgroups.normal_lattice": "normal_subgroups, which has rows, is built from it entry by "
                                "entry (test_lattice_entries_are_the_normal_subgroups)",
    "subgroups.hall_search": "checks the order of what it finds; none_exists comes only from "
                             "the enumeration, which has rows",
    "subgroups.is_simple": "counts the entries of normal_lattice",
    "subgroups.almost_simple_socle": "reads socle, is_simple and centralizer_of_subgroup",
}


# -- walking the table -------------------------------------------------------


def _compare(row, group_set, name, group_of) -> int:
    """Run ``row`` on one group; the number of comparisons it made.  Any
    failure, the library's own checks included, names the row and group."""
    made = 0
    try:
        for where, got, want in row.check(group_of(group_set, name)):
            assert got == want, f"at {where}"
            made += 1
    except AssertionError as exc:
        raise AssertionError(f"row {row.id} on {name}: {exc}") from exc
    return made


def _runs(row):
    """The test ids of ``row``: one walk of all its groups where it counts
    its ``cases``, else one walk of its ``CENSUS`` groups and one id per
    other group."""
    pairs = row.names()
    if row.cases is not None:
        return [pytest.param(row, pairs, id=row.id)]
    census = [pair for pair in pairs if pair[0] == "CENSUS"]
    runs = [pytest.param(row, census, id=f"{row.id}-CENSUS")] if census else []
    return runs + [pytest.param(row, [pair], id=f"{row.id}-{pair[1]}")
                   for pair in pairs if pair[0] != "CENSUS"]


@pytest.mark.parametrize("row, pairs", [run for row in FAST_PATHS for run in _runs(row)])
def test_fast_path(row, pairs, group_of):
    made = sum(_compare(row, *pair, group_of) for pair in pairs)
    assert row.cases in (None, made), row.id


def test_group_sets_have_their_sizes():
    assert {name: len(names) for name, names in GROUP_SETS.items()} == {
        "SMALL": 11, "LATTICE_SLICE": 15, "CENSUS_72": 153, "CENSUS": 296, "DATA": 12,
        "WIDE": 1, "SUBGROUPS": 228}
    assert len({row.id for row in FAST_PATHS}) == len(FAST_PATHS)


# -- the guard: every public fast path has a row or a reason -----------------


def public_surface(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each public top-level function of ``sources``
    (module name -> source text), and ``module.ClassTable.name`` for each
    public method of a ``ClassTable`` class there, in source order."""
    names = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names.append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef) and node.name == "ClassTable":
                names += [f"{module}.ClassTable.{f.name}" for f in node.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return names


def unchecked(surface: list[str], exempt: dict[str, str]) -> list[str]:
    """The names of ``surface`` that are neither a row's fast function nor
    in ``exempt``."""
    rows = {f"{row.fast.__module__.removeprefix('piclass.')}.{row.fast.__qualname__}"
            for row in FAST_PATHS}
    return [name for name in surface if name not in rows and name not in exempt]


def test_the_guard_sees_a_fast_path_with_no_row():
    source = ("def k_pi(g, pi): pass\ndef new_count(g): pass\ndef _helper(): pass\n"
              "class ClassTable:\n    def closure(self, mask): pass\n"
              "    def _row(self, i): pass\n    def new_split(self, mask): pass\n")
    surface = public_surface({"classes": source})
    assert surface == ["classes.k_pi", "classes.new_count", "classes.ClassTable.closure",
                       "classes.ClassTable.new_split"]
    assert unchecked(surface, EXEMPT) == ["classes.new_count", "classes.ClassTable.new_split"]


def test_every_public_fast_path_has_a_row():
    src = Path(__file__).resolve().parent.parent / "src" / "piclass"
    surface = public_surface({m: (src / f"{m}.py").read_text() for m in ("classes", "subgroups")})
    assert len(surface) > 30  # the reader found the library
    assert unchecked(surface, EXEMPT) == []
    # each reason names a public function that has no row
    assert set(EXEMPT) <= set(unchecked(surface, {}))

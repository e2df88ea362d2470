"""Exact identities on the census: the product rule and known class counts.

A direct product multiplies class counts and pi-parts factor by factor, so
``k(A x B) = k(A) k(B)`` and ``d_pi(A x B) = d_pi(A) d_pi(B)`` for every
prime set, and a product of normal subgroups N_A x N_B is normal with
quotient (A/N_A) x (B/N_B).  A Hall pi-subgroup of A x B is the product
of one of A and one of B, so its conjugacy classes are the pairs of
theirs.  The closed forms are the class counts of the symmetric,
alternating and dihedral groups.
"""

import time

from collections import Counter
from math import lcm

from piclass.catalog import alternating, build, census_specs, symmetric
from piclass.classes import conjugacy_classes, k_pi, pi_count
from piclass.invariants import d_pi, group_primes
from piclass.numtheory import pi_part
from piclass.subgroups import enumerate_subgroups_up_to_conjugacy, normal_lattice
from piclass.suite import _nonempty_subsets

PARTITIONS = {3: 3, 4: 5, 5: 7, 6: 11}  # p(n): the classes of S_n
ALTERNATING_CLASSES = {4: 4, 5: 5, 6: 7}


def _prime_sets(group):
    primes = sorted(group_primes(group))
    return {frozenset([p]) for p in primes} | {frozenset(primes)}


def test_product_rule_and_closed_forms(census_entries):
    t0 = time.perf_counter()
    by_name = dict(census_entries)
    products = [s for s in census_specs() if s.kind == "product"]
    for spec in products:
        g = by_name[spec.name]
        a, b = (by_name[f.name] for f in spec.factors)
        k = conjugacy_classes(g).k
        assert k == conjugacy_classes(a).k * conjugacy_classes(b).k, spec.name
        for pi in _prime_sets(g):
            assert d_pi(g, pi).d_pi == d_pi(a, pi).d_pi * d_pi(b, pi).d_pi, (spec.name, pi)

    for n, count in PARTITIONS.items():
        assert conjugacy_classes(build(symmetric(n))).k == count, f"S{n}"
    for n, count in ALTERNATING_CLASSES.items():
        assert conjugacy_classes(build(alternating(n))).k == count, f"A{n}"
    for m in range(6, 17, 2):
        n = m // 2
        count = n // 2 + 3 if n % 2 == 0 else (n + 3) // 2
        assert conjugacy_classes(by_name[f"D{m}"]).k == count, f"D{m}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0, f"runtime {elapsed:.2f}s exceeds 15s"
    print(f"product rule on {len(products)} census products, closed forms; {elapsed:.2f}s")


def test_product_class_sizes_and_k_pi(census_entries):
    """A class of A x B is a pair of classes, one of A and one of B: its
    size is the product of theirs, its element order is the lcm of theirs,
    and it is a pi-class exactly when both are.  So the (class size,
    element order) pairs of A x B are the (s_a s_b, lcm(o_a, o_b)) over the
    factors' class pairs, with multiplicity, and k_pi(A x B) = k_pi(A)
    k_pi(B) for every pi, on every census product."""
    by_name = dict(census_entries)
    products = [s for s in census_specs() if s.kind == "product"]
    for spec in products:
        g = by_name[spec.name]
        a, b = (by_name[f.name] for f in spec.factors)
        classes_a, classes_b = (conjugacy_classes(f).classes for f in (a, b))
        assert Counter((c.size, c.order) for c in conjugacy_classes(g).classes) == Counter(
            (x.size * y.size, lcm(x.order, y.order)) for x in classes_a for y in classes_b
        ), spec.name
        for pi in _nonempty_subsets(group_primes(g)):
            assert k_pi(g, pi) == k_pi(a, pi) * k_pi(b, pi), (spec.name, pi)


def test_normal_products_and_their_quotients(census_entries):
    """For normal subgroups N_A of A and N_B of B, N_A x N_B is an entry of
    ``normal_lattice(A x B)``, and k_pi((A x B)/(N_A x N_B)) =
    k_pi(A/N_A) k_pi(B/N_B) for every pi, on the census products of order
    <= 72.  The product's element set puts A on the first points and B
    after them, as ``catalog.build`` lays out a product; every census
    degree is below 256, so images are bytes."""
    by_name = dict(census_entries)
    products = [s for s in census_specs() if s.kind == "product" and s.order <= 72]
    assert len(products) > 50
    for spec in products:
        g = by_name[spec.name]
        a, b = (by_name[f.name] for f in spec.factors)
        table, table_a, table_b = (conjugacy_classes(x) for x in (g, a, b))
        lattice = {entry.mask for entry in normal_lattice(g)}
        pis = _nonempty_subsets(group_primes(g))
        for n_a in normal_lattice(a):
            for n_b in normal_lattice(b):
                key = {bytes([*x, *(a.degree + j for j in y)])
                       for x in table_a.elements(n_a.mask) for y in table_b.elements(n_b.mask)}
                mask = table.normal_mask(key)
                assert mask in lattice, (spec.name, n_a.order, n_b.order)
                counts = (table.quotient_histogram(mask), table_a.quotient_histogram(n_a.mask),
                          table_b.quotient_histogram(n_b.mask))
                for pi in pis:
                    k, k_a, k_b = (pi_count(h, t.pi_bits(pi))
                                   for h, t in zip(counts, (table, table_a, table_b)))
                    assert k == k_a * k_b, (spec.name, n_a.order, n_b.order, sorted(pi))


def _hall_classes(group, pi) -> int:
    """The subgroup classes of Hall pi-order that the pi-sweep finds."""
    target = pi_part(group.order, pi)
    return sum(1 for h in enumerate_subgroups_up_to_conjugacy(group, pi=pi) if h.order == target)


def test_hall_classes_of_a_product_are_pairs(census_entries):
    """A Hall pi-subgroup H of A x B lies in the pi-group p_A(H) x p_B(H)
    of its projections, so it equals it, and each factor is a Hall
    pi-subgroup; (a, b) conjugates H_A x H_B factor by factor.  So the
    classes of Hall pi-order in ``enumerate_subgroups_up_to_conjugacy(A x
    B, pi=pi)`` number the product of the factors' counts, for every
    nonempty pi on every census product of order <= 72.  These products
    are solvable, so by Hall's theorem every count is 1."""
    by_name = dict(census_entries)
    products = [s for s in census_specs() if s.kind == "product" and s.order <= 72]
    assert len(products) > 50
    counts = Counter()
    for spec in products:
        g = by_name[spec.name]
        a, b = (by_name[f.name] for f in spec.factors)
        for pi in _nonempty_subsets(group_primes(g)):
            count = _hall_classes(g, pi)
            assert count == _hall_classes(a, pi) * _hall_classes(b, pi), (spec.name, sorted(pi))
            counts[count] += 1
    assert set(counts) == {1}, counts

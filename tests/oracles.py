"""Independent brute-force oracles the library is checked against.

Nothing here touches the BSGS machinery beyond listing a group's elements:
closures are multiplication BFS over raw image tuples (returned in the
library's layout, ``Permutation(points).images``), class partitions
conjugate by every element, normality is tested on the conjugates of
generators, and the commuting probability counts pairs.
numpy only vectorizes the O(|G|^2) loops; all arithmetic stays integral.
The exceptions are ``normal_subgroups_by_joins``, the lattice closed by
joins with the seeds as the library closes it, but on generators and
element sets in place of class bitsets, which fixes the order and the
generators the library must keep reproducing, and
``subgroup_classes_by_orbit_skip``, the subgroup-class sweep the library
ran before its double-coset skip rules and prime steps, which fixes the
conjugacy classes it must keep finding, and
``cyclic_pi_subgroup_classes_by_conjugates``, the cyclic pi-subgroups up to
conjugacy by the conjugates of each one, as the Hall check past the
subgroup cap found them before it read rational classes.  The routines after the
lattice redo, on element sets, the normal-subgroup queries the library
reads from class bitsets: normal cores, the Fitting subgroup, the socle
(from the library's lattice) and normal pi-complements.  Last come the
class-table routines the library ran before it closed over generating
classes only: the support of a class product from every pair of members,
the all-pairs class closure, and the eager coset rows it built
before it read one fusion block per class of G/N.  Then the per-pi class
counts the library summed before it counted classes per prime support:
element order -> classes of G, of N and of G/N, filtered by
``is_pi_number`` for each pi, with the order of x * N found by walking the
powers of x into N's element set, the classes of pi-elements tested one
class at a time, and the class power maps and rational
classes by ``Permutation`` powers.  Last, the element listing as
``Permutation.__mul__`` products of transversal elements, and the
Schreier-Sims chain as the library built it before it kept the table of
each u^-1: every Schreier generator and sift step a ``Permutation``
product with an inverse.  Likewise the conjugation orbit walk and the
Schreier stabilizer (normalizers, element centralizers, conjugacy
witnesses) as the library ran them before they shared the chain's Schreier
tree, on ``Permutation`` products and inverses, and the conjugates of a
subgroup by every element of the group.  ``pi_part_of_element`` splits an
element into its pi- and pi'-parts from its own order, as Sylow growth did
before it read one exponent from |G|, and ``sylow_subgroup_by_normalizers``
grows a Sylow subgroup through normalizer subgroups, as the library did
before it tested each element of G against the generators of P.
"""

import itertools
import math
from functools import reduce
from operator import mul

import numpy as np

from piclass.numtheory import pi_part
from piclass.perm import Permutation


def _images(points):
    """The library's images of the permutation with these images."""
    return Permutation(points).images


def naive_closure(gens):
    """All products of the generators, as the set of their images."""
    degree = gens[0].degree
    gen_images = [g.images for g in gens]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gim in gen_images:
                y = tuple(gim[p] for p in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return {_images(t) for t in seen}


def _element_matrix(elements):
    return np.array([list(e.images) for e in elements], dtype=np.int64)


def commuting_pair_count(elements) -> int:
    """|{(a, b) : ab = ba}| by direct counting, vectorized over b."""
    mat = _element_matrix(elements)
    total = 0
    for a in mat:
        ab = a[mat]  # rows a(b(x))
        ba = mat[:, a]  # rows b(a(x))
        total += int(np.all(ab == ba, axis=1).sum())
    return total


def brute_conjugacy_partition(elements):
    """Partition into conjugacy classes by conjugating with every element."""
    mat = _element_matrix(elements)
    inv = np.argsort(mat, axis=1)
    index = {tuple(int(v) for v in row): i for i, row in enumerate(mat)}
    unassigned = set(range(len(elements)))
    classes = []
    while unassigned:
        i = min(unassigned)
        x = mat[i]
        conj = np.take_along_axis(mat, x[inv], axis=1)  # rows g(x(g^-1(p)))
        members = {index[tuple(int(v) for v in row)] for row in conj}
        classes.append(frozenset(members))
        unassigned -= members
    return classes


def brute_centralizer(elements, x):
    return [g for g in elements if g * x == x * g]


def is_normal(group, sub):
    """True when ``sub`` is normal in ``group``: it holds g s g^-1 for every
    generator g of ``group`` and s of ``sub``, composed point by point on raw
    images, with no class table."""
    elements = sub.element_set()
    for g in group.generators:
        g_inv = [0] * g.degree
        for q, image in enumerate(g.images):
            g_inv[image] = q
        for s in sub.generators:
            if _images([g.images[s.images[q]] for q in g_inv]) not in elements:
                return False
    return True


def normal_subgroups_by_class_unions(group):
    """Normal subgroups as the class-unions closed under multiplication;
    a union whose size does not divide |G| is passed over (Lagrange).

    Exponential in the class count; only for small class tables.
    """
    from piclass.classes import conjugacy_classes

    table = conjugacy_classes(group)
    elements = group.element_list()
    class_of = {e.images: table.class_of(e) for e in elements}
    members = [[] for _ in range(table.k)]
    for e in elements:
        members[class_of[e.images]].append(e)
    identity_cls = table.class_of(Permutation.identity(group.degree))
    rest = [i for i in range(table.k) if i != identity_cls]
    out = []
    for mask in range(1 << len(rest)):
        chosen = {identity_cls} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if group.order % sum(len(members[c]) for c in chosen):
            continue
        subset = {e.images for c in chosen for e in members[c]}
        closed = all(
            _images([a[b[p]] for p in range(group.degree)]) in subset
            for a in subset for b in subset
        )
        if closed:
            out.append(frozenset(subset))
    return out


def all_subgroups_naive(group):
    """Every subgroup (not up to conjugacy) by one-element extensions of sets."""
    elements = group.element_list()
    ident = Permutation.identity(group.degree)
    start = frozenset([ident.images])
    found = {start}
    queue = [(start, [ident])]
    while queue:
        current_set, gens = queue.pop()
        for x in elements:
            if x.images in current_set:
                continue
            new_gens = gens + [x]
            closure = frozenset(naive_closure(new_gens))
            if closure not in found:
                found.add(closure)
                queue.append((closure, new_gens))
    return found


def k_pi_by_class_equation(group, pi):
    """k_pi(G) = (1/|G|) * sum of |C_G(x)| over the pi-elements x: each class
    x^G has |G : C_G(x)| members, so it contributes |G| to the sum."""
    from piclass.numtheory import is_pi_number

    elements = group.element_list()
    total = sum(len(brute_centralizer(elements, x))
                for x in elements if is_pi_number(x.order(), frozenset(pi)))
    assert total % group.order == 0
    return total // group.order


def conjugates_by_brute_force(group, key):
    """{g H g^-1 : g in G} for the subgroup H whose element set is ``key``:
    one conjugate per element of G, none found by walking an orbit."""
    from piclass.perm import conjugate_set, conjugation_pairs

    return {conjugate_set(pair, key) for pair in conjugation_pairs(group.element_list())}


def orbit_transversal(group, start, act):
    """The orbit of ``start`` under conjugation by ``group``, with a
    transversal, as the library walked it before it ran on
    ``perm.schreier_tree``: breadth first with the generators in list order,
    ``act(pair, key)`` conjugating by one generator (``conjugate_images`` or
    ``conjugate_set``), and u = g * u_x a ``Permutation`` product for the
    first key x and generator g that reach a key.  An insertion-ordered dict
    key -> u."""
    from piclass.perm import conjugation_pairs

    steps = list(zip(group.generators, conjugation_pairs(group.generators)))
    transversal = {start: Permutation.identity(group.degree)}
    orbit = [start]
    for key in orbit:
        u = transversal[key]
        for g, pair in steps:
            nkey = act(pair, key)
            if nkey not in transversal:
                transversal[nkey] = g * u
                orbit.append(nkey)
    return transversal


def schreier_stabilizer_by_products(group, start, act):
    """The stabilizer of ``start`` (as in ``orbit_transversal``) as the
    library grew it before it tested Schreier generators on images: every
    u_{g.x}^-1 * (g * u_x), trivial or not, a ``Permutation`` product with
    an inverse, in orbit order and generator order, reduced by the library's
    greedy ``_reduced_subgroup``; its order must be |G| / |orbit|."""
    from piclass.perm import conjugation_pairs
    from piclass.subgroups import _reduced_subgroup

    transversal = orbit_transversal(group, start, act)
    target = group.order // len(transversal)
    steps = list(zip(group.generators, conjugation_pairs(group.generators)))
    schreier = (transversal[act(pair, key)].inverse() * (g * u)
                for key, u in transversal.items() for g, pair in steps)
    stabilizer = _reduced_subgroup(group, (s.images for s in schreier))
    assert stabilizer.order == target
    return stabilizer


def subgroup_classes_by_orbit_skip(group, pi=None):
    """One handle per conjugacy class of subgroups (pi-subgroups with ``pi``
    set), by the sweep the library ran before its double-coset skip rules
    and its prime steps.

    Each class representative H is extended by every candidate (every
    pi-element with ``pi`` set) outside H, not only by the x with x^q in H,
    skipping only the H-conjugates of candidates already tried; a new
    subgroup is kept unless a conjugate of it was found before.  So it
    finds the library's classes, but may pick other representatives, on
    other generators.  Sorted by order and then element set, like the
    library.  Uncached.
    """
    from piclass.numtheory import is_pi_number
    from piclass.perm import conjugation_orbit, conjugation_pairs
    from piclass.subgroups import subgroup, trivial_subgroup

    pi = None if pi is None else frozenset(pi)
    elements = group.element_list()
    candidates = elements if pi is None else [x for x in elements if is_pi_number(x.order(), pi)]
    found = []
    seen = set()

    def register(handle):
        key = handle.element_set()
        if key not in seen:
            found.append(handle)
            seen.update(conjugates_by_brute_force(group, key))

    register(trivial_subgroup(group))
    for base in found:
        base_set = base.element_set()
        base_pairs = conjugation_pairs(base.generators)
        covered = set()
        for x in candidates:
            if x.images in base_set or x.images in covered:
                continue
            covered.update(conjugation_orbit(x.images, base_pairs))
            extended = subgroup(group, [*base.generators, x])
            if pi is None or is_pi_number(extended.order, pi):
                register(extended)
    return sorted(found, key=lambda h: (h.order, tuple(sorted(h.element_set()))))


def cyclic_pi_subgroup_classes_by_conjugates(group, pi):
    """One cyclic pi-subgroup <rep> per conjugacy class of them, as the Hall
    check past the subgroup cap found them before it read rational classes:
    the class representatives of pi-order in class order, each kept unless
    a conjugate of its cyclic subgroup was kept before.  Uncached."""
    from piclass.classes import conjugacy_classes
    from piclass.numtheory import is_pi_number
    from piclass.subgroups import conjugates, subgroup

    classes = []
    seen = set()
    for cls in conjugacy_classes(group).classes:
        if not is_pi_number(cls.order, pi):
            continue
        cyc = subgroup(group, [cls.rep])
        key = cyc.element_set()
        if key not in seen:
            seen.update(conjugates(group, cyc))
            classes.append(cyc)
    return classes


def normal_subgroups_by_joins(group):
    """Normal subgroups by ``join_subgroups`` with the seeds, keyed by element sets.

    Seeds are the normal closures of the class representatives.  The
    subgroups found are walked in insertion order: a seed is joined with the
    seeds after it and any other subgroup with every seed; the first handle
    built for an element set is kept.  Uncached.
    """
    from piclass.classes import conjugacy_classes
    from piclass.subgroups import join_subgroups, normal_closure, trivial_subgroup

    table = conjugacy_classes(group)
    whole_key = None  # element-set key for G itself is never materialized
    found = {}

    def key_of(handle):
        if handle.order == group.order:
            return whole_key
        return handle.element_set()

    def register(handle):
        k = key_of(handle)
        if k in found:
            return False
        found[k] = handle
        return True

    register(trivial_subgroup(group))
    seeds = []
    for cls in table.classes:
        closure = normal_closure(group, [cls.rep])
        if register(closure):
            seeds.append(closure)
    queue = list(seeds)
    for k, current in enumerate(queue):
        if current.order == group.order:
            continue
        for other in seeds[k + 1:] if k < len(seeds) else seeds:
            if other.order == group.order:
                continue
            # nested pairs join to the bigger one, already registered
            if (other.order % current.order == 0
                    and all(other.contains(g) for g in current.generators)):
                continue
            if (current.order % other.order == 0
                    and all(current.contains(g) for g in other.generators)):
                continue
            joined = join_subgroups(group, current, other)
            if register(joined):
                queue.append(joined)
    return sorted(
        found.values(),
        key=lambda h: (h.order, tuple(sorted(h.element_set())) if h.order < group.order else ()),
    )


def _generated(degree, elements):
    """Element set of the subgroup generated by ``elements``; an element
    becomes a generator only when it lies outside the closure so far."""
    gens = []
    closed = {Permutation.identity(degree).images}
    for x in elements:
        if x.images not in closed:
            gens.append(x)
            closed = naive_closure(gens)
    return frozenset(closed)


def _classes(group):
    elements = group.element_list()
    return [[elements[i] for i in sorted(cls)] for cls in brute_conjugacy_partition(elements)]


def normal_core_by_closures(group, prime_pred):
    """Element set of the largest normal subgroup whose order has only primes
    satisfying pred: generated by every conjugacy class whose normal closure
    (the subgroup the class generates) qualifies."""
    from piclass.numtheory import prime_factors

    def qualifies(n):
        return all(prime_pred(q) for q in prime_factors(n))

    picked = []
    for members in _classes(group):
        if qualifies(members[0].order()) and qualifies(len(_generated(group.degree, members))):
            picked.extend(members)
    return _generated(group.degree, picked)


def fitting_subgroup_by_closures(group):
    """Element set of F(G): generated by the largest normal p-subgroups."""
    from piclass.numtheory import prime_factors

    members = []
    for p in prime_factors(group.order):
        core = normal_core_by_closures(group, lambda q, p=p: q == p)
        members.extend(Permutation(im) for im in core)
    return _generated(group.degree, members)


def socle_by_element_sets(group):
    """Element set of the join of the normal subgroups that contain no
    smaller nontrivial one, by subset tests on element sets."""
    from piclass.subgroups import normal_subgroups

    normals = [n.element_set() for n in normal_subgroups(group) if n.order > 1]
    members = []
    for n in normals:
        if not any(len(m) < len(n) and m <= n for m in normals):
            members.extend(Permutation(im) for im in n)
    return _generated(group.degree, members)


def normal_pi_complement_by_element_scan(group, pi):
    """(exists, element set): the pi'-elements form a normal pi-complement
    exactly when they generate a subgroup of their own number."""
    from piclass.numtheory import is_pi_number, prime_factors

    complement_primes = frozenset(prime_factors(group.order)) - frozenset(pi)
    elements = [x for x in group.element_list()
                if is_pi_number(x.order(), complement_primes)]
    closed = _generated(group.degree, elements)
    if len(closed) == len(elements):
        return True, closed
    return False, None


def class_product_support_by_pairs(table, i, j):
    """Bitset of the classes met by C_i * C_j: the class (``class_of``) of
    x * y for every member x of class i and every member y of class j, each
    a ``Permutation`` product.  Uncached."""
    left = [Permutation._make(im) for im in table.members[i]]
    right = [Permutation._make(im) for im in table.members[j]]
    return sum({1 << table.class_of(x * y) for x in left for y in right})


def closure_by_all_pairs(table, mask):
    """Class bitset of the normal subgroup the classes of ``mask`` generate:
    every class reached is multiplied by every class reached (supports read
    from ``table``).  Uncached."""
    from piclass.classes import _bits

    todo = list(_bits(mask))
    done = []
    while todo:
        i = todo.pop()
        done.append(i)
        for j in done:
            new = table._support(i, j) & ~mask
            if new:
                mask |= new
                todo.extend(_bits(new))
    return mask


def coset_classes_by_rows(table, normal):
    """For the normal subgroup N with class set ``normal``: entry i is the
    bitset of classes met by C_i * N, the union of the supports of C_i * C_j
    over the classes j of N, built for every class i of G.  Uncached."""
    from piclass.classes import _bits

    in_normal = list(_bits(normal))
    rows = []
    for i in range(table.k):
        met = 0
        for j in in_normal:
            met |= table._support(i, j)
        rows.append(met)
    return rows


def order_counts(table):
    """Element order -> number of classes of G."""
    counts = {}
    for c in table.classes:
        counts[c.order] = counts.get(c.order, 0) + 1
    return counts


def normal_classes_by_support(table, normal):
    """Prime support in G's numbering (``table.prime_support``) -> number of
    classes of the normal subgroup ``normal`` of G, read from N's own class
    table."""
    from piclass.classes import conjugacy_classes

    counts = {}
    for c in conjugacy_classes(normal).classes:
        support = table.prime_support(c.order)
        counts[support] = counts.get(support, 0) + 1
    return counts


def quotient_order_counts(table, normal):
    """Element order -> number of classes of G/N, for the normal subgroup N
    with class set ``normal``: one class per fusion block, of order the
    least e >= 1 with x^e in N, x the representative of the block's first
    class."""
    from piclass.classes import _bits

    in_normal = set(table.elements(normal))
    counts = {}
    for block in table.fusion(normal):
        x = table.classes[next(_bits(block))].rep.images
        power, order = x, 1
        while power not in in_normal:
            power = _images([x[q] for q in power])
            order += 1
        counts[order] = counts.get(order, 0) + 1
    return counts


def pi_sum(counts, pi):
    """The classes counted in ``counts`` (element order -> classes) whose
    order is a pi-number."""
    from piclass.numtheory import is_pi_number

    pi = frozenset(pi)
    return sum(count for order, count in counts.items() if is_pi_number(order, pi))


def pi_classes_by_orders(table, pi):
    """Bitset of the classes of G whose element order is a pi-number, each
    class tested on its own with ``is_pi_number``."""
    from piclass.numtheory import is_pi_number

    pi = frozenset(pi)
    return sum(1 << i for i, cls in enumerate(table.classes) if is_pi_number(cls.order, pi))


def _powers(rep):
    """rep ** e for 0 <= e < |rep|, each a ``Permutation`` product, up to
    the first power that is the identity again: so ``len(_powers(rep))`` is
    the order of rep, read without ``Permutation.order``."""
    one = Permutation.identity(rep.degree)
    powers = [one]
    while (power := powers[-1] * rep) != one:
        powers.append(power)
    return powers


def power_classes(table, i):
    """Entry e is the class of rep_i ** e, for 0 <= e < |rep_i|."""
    return [table.class_of(x) for x in _powers(table.classes[i].rep)]


def rational_class_by_powers(table, i):
    """Bitset of the classes of the powers of rep_i that have rep_i's
    order n, the generators of <rep_i>: rep_i ** e has order n / gcd(e, n)."""
    powers = _powers(table.classes[i].rep)
    return sum({1 << table.class_of(x) for e, x in enumerate(powers)
                if math.gcd(e, len(powers)) == 1})


def elements_by_transversal_products(group):
    """The elements u_0 * u_1 * ... of the group's chain, one transversal
    element per level with orbit points ascending and the deepest level
    varying fastest, each a ``Permutation.__mul__`` product of the stored
    transversal images."""
    identity = Permutation.identity(group.degree)
    levels = [[Permutation(lvl.transversal[x]) for x in sorted(lvl.transversal)]
              for lvl in group._ensure_chain()]
    return [reduce(mul, choice, identity) for choice in itertools.product(*levels)]


class ChainLevel:
    """One level of ``chain_by_permutation_products``."""

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {}
        self.orbit = []


def moved_points(p):
    """The points p moves, ascending."""
    return [i for i, j in enumerate(p.images) if i != j]


def _sift_by_products(levels, h, start):
    for i in range(start, len(levels)):
        lvl = levels[i]
        x = h.images[lvl.point]
        if x == lvl.point:
            continue
        u = lvl.transversal.get(x)
        if u is None:
            return h, i
        h = u.inverse() * h
    return h, len(levels)


def chain_by_permutation_products(group):
    """The Schreier-Sims chain of ``group`` (its generators and base hint)
    as the library built it before it kept inverse tables and worked on
    images: every Schreier generator is ``uy.inverse() * (g * ux)`` and every
    sift step ``u.inverse() * h``, all ``Permutation`` products.  Same base
    choice, scan order and restarts, so the levels (point, strong
    generators, orbit, transversal) must equal the library's."""
    degree = group.degree
    gens = []
    seen = set()
    for g in group.generators:
        if not g.is_identity() and g.images not in seen:
            seen.add(g.images)
            gens.append(g)
    levels = []
    base_points = set()

    def add_level(point):
        levels.append(ChainLevel(point))
        base_points.add(point)

    def place(g):
        for lvl in levels:
            lvl.gens.append(g)
            if g.images[lvl.point] != lvl.point:
                return
        raise AssertionError("generator fixes the whole base")

    def rebuild_orbit(lvl):
        lvl.transversal = {lvl.point: Permutation.identity(degree)}
        lvl.orbit = [lvl.point]
        for x in lvl.orbit:
            ux = lvl.transversal[x]
            for g in lvl.gens:
                y = g.images[x]
                if y not in lvl.transversal:
                    lvl.transversal[y] = g * ux
                    lvl.orbit.append(y)

    for pt in group._base_hint:
        if 0 <= pt < degree and pt not in base_points:
            add_level(pt)
    for g in gens:
        if all(g.images[lvl.point] == lvl.point for lvl in levels):
            add_level(min(moved_points(g)))
    for g in gens:
        place(g)
    for lvl in levels:
        rebuild_orbit(lvl)

    i = len(levels) - 1
    while i >= 0:
        lvl = levels[i]
        clean = True
        for x in sorted(lvl.transversal):
            ux = lvl.transversal[x]
            for g in lvl.gens:
                uy = lvl.transversal[g.images[x]]
                sg = uy.inverse() * (g * ux)
                if sg.is_identity():
                    continue
                h, j = _sift_by_products(levels, sg, i + 1)
                if h.is_identity():
                    continue
                if j == len(levels):
                    add_level(min(moved_points(h)))
                place(h)
                for m in range(j + 1):
                    rebuild_orbit(levels[m])
                i = j
                clean = False
                break
            if not clean:
                break
        if clean:
            i -= 1
    return levels


def pi_part_of_element(x, pi):
    """The commuting (pi, pi')-factorization of x into powers of x.

    Returns (x_pi, x_pi') with x = x_pi * x_pi', both powers of x, the orders
    a pi-number and a pi'-number respectively.  The exponent for x_pi is the
    CRT solution e = 1 mod m_pi, e = 0 mod m_pi' on the element order m.
    """
    m = x.order()
    a = pi_part(m, frozenset(pi))
    b = m // a
    e = b * pow(b, -1, a)
    return x**e, x ** (m + 1 - e)


def sylow_subgroup_by_normalizers(group, p):
    """A Sylow p-subgroup as the library grew it before it tested the
    normalizer condition element by element: each step builds N_G(P) with
    the library's ``normalizer`` (P trivial: G itself) and adds the p-part
    y^e of the first y of N_G(P), in the order of its images list, with y
    and y^e outside P.  Uncached."""
    from piclass.perm import _power_images
    from piclass.subgroups import normalizer, subgroup, trivial_subgroup

    target = pi_part(group.order, frozenset([p]))
    rest = group.order // target
    e = rest * pow(rest, -1, target)
    current = trivial_subgroup(group)
    while current.order < target:
        norm = normalizer(group, current) if current.order > 1 else group
        for y in norm._element_images():
            if y in current.element_set():
                continue
            yp = _power_images(y, e)
            if yp not in current.element_set():
                current = subgroup(group, [*current.generators, Permutation._make(yp)])
                break
        else:
            raise AssertionError("Sylow growth stalled below the target order")
    return current

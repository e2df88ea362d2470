"""Independent brute-force oracles the library is checked against.

Nothing here touches the BSGS machinery: closures are multiplication BFS
over raw image tuples, class partitions conjugate by every element, and the
commuting probability counts pairs.  numpy only vectorizes the O(|G|^2)
loops; all arithmetic stays integral.  The one exception is
``normal_subgroups_by_joins``, the pairwise-join lattice the library used
before its class-algebra lattice; it fixes the order and the generators the
library must keep reproducing.
"""

import numpy as np

from piclass.perm import Permutation


def naive_closure(gens, cap=None):
    """All products of the generators as a set of image tuples."""
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
                    if cap is not None and len(seen) >= cap:
                        raise OverflowError("closure exceeded cap")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def naive_membership(gens, p):
    return p.images in naive_closure(gens)


def _element_matrix(elements):
    return np.array([e.images for e in elements], dtype=np.int64)


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


def normal_subgroups_by_class_unions(group, cap=100_000):
    """Normal subgroups as the class-unions closed under multiplication.

    Exponential in the class count; only for small class tables.
    """
    from piclass.classes import conjugacy_classes

    table = conjugacy_classes(group, cap)
    elements = group.element_list(cap)
    class_of = {e.images: table.class_of(e) for e in elements}
    members = [[] for _ in range(table.k)]
    for e in elements:
        members[class_of[e.images]].append(e)
    identity_cls = table.class_of(Permutation.identity(group.degree))
    rest = [i for i in range(table.k) if i != identity_cls]
    out = []
    for mask in range(1 << len(rest)):
        chosen = {identity_cls} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        subset = {e.images for c in chosen for e in members[c]}
        closed = all(
            tuple(a[b[p]] for p in range(group.degree)) in subset
            for a in subset for b in subset
        )
        if closed:
            out.append(frozenset(subset))
    return out


def all_subgroups_naive(group, cap=100_000):
    """Every subgroup (not up to conjugacy) by one-element extensions of sets."""
    elements = group.element_list(cap)
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


def normal_subgroups_by_joins(group, cap=100_000):
    """Normal subgroups by Schreier-Sims joins, keyed by element sets.

    Seeds are the normal closures of the class representatives, closed under
    pairwise joins (FIFO over the subgroups found, in insertion order); the
    first handle built for an element set is kept.  Uncached.
    """
    from piclass.classes import conjugacy_classes
    from piclass.subgroups import join_subgroups, normal_closure, trivial_subgroup

    table = conjugacy_classes(group, cap)
    whole_key = None  # element-set key for G itself is never materialized
    found = {}

    def key_of(handle):
        if handle.order == group.order:
            return whole_key
        return handle.element_set(cap)

    def register(handle):
        k = key_of(handle)
        if k in found:
            return False
        found[k] = handle
        return True

    register(trivial_subgroup(group))
    seeds = []
    for cls in table.classes:
        closure = normal_closure(group, [cls.rep], cap)
        if register(closure):
            seeds.append(closure)
    queue = list(seeds)
    while queue:
        current = queue.pop(0)
        for other in list(found.values()):
            if current.order == group.order:
                break
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
        key=lambda h: (h.order, tuple(sorted(h.element_set(cap))) if h.order < group.order else ()),
    )

"""Permutation groups backed by a base and strong generating set, or by
their element set.

The stabilizer chain is built with a deterministic Schreier-Sims: base points
are taken in ascending order among the points a generator (or sift residue)
moves, orbits are explored breadth-first with generators in list order, and
no randomization is used anywhere.  Two constructions from the same generator
list therefore produce identical chains, identical element enumeration order,
and identical random-element streams for a fixed seed.  Inside the library
an element is its images (``Permutation.images``: bytes up to degree 256,
the wide tuple type ``perm._Wide`` above, both composed by ``.translate``),
and every product of them goes through the kernel in ``perm``.  Each group
keeps one list of its element images (``_element_images``): chain order for
a group given by generators, sorted image order for one built with its
element set (every subgroup), which answers order and membership from the
set and builds no chain.  The chain's listing order reaches the report:
the first step of Sylow growth (``subgroups._sylow_subgroup``) walks G's
list, so it picks the Sylow generators that ``hall_generators`` prints.  A
``Permutation`` is made only where a public method returns one.

The chain is built on images, and no transversal element is inverted per
Schreier generator or per sift step.  Each level keeps, beside each
transversal element u, the table of u^-1 (``perm.schreier_tree``), built
once each time the level's orbit is rebuilt (Seress, *Permutation Group
Algorithms*, 2003, §4.1).  The tree serves the chain alone: the subgroup
stabilizers of ``subgroups`` are filters over a group's images list.  Each
strong generator's move (its images, table and inverse) is built once,
when it is placed.  A Schreier generator u_y^-1 * g * u_x is the identity
exactly when g * u_x = u_y, so it costs one product through g's table;
only the others are multiplied by u_y^-1 (``perm.schreier_generators``)
and sifted.  The sift (``_sift``) is one product through a level's table
of u^-1 per step.  The stored chain keeps its strong generators and
transversal elements as images, and element enumeration and random
elements compose them as images.
"""

import random
from itertools import compress
from math import prod

from .errors import DegreeMismatchError
from .perm import (
    Images,
    Permutation,
    _identity_images,
    _inverse_images,
    compose_images,
    conjugation_pairs,
    left_multiplier,
    left_products,
    schreier_generators,
    schreier_tree,
)


class _Level:
    """One level of the chain: its base point, the strong generators that
    fix the earlier base points, the orbit of the point, the transversal
    (orbit point y -> u_y with u_y(point) = y) and the table of each u_y^-1
    (``perm.schreier_tree``), read by ``_sift``.  Generators and transversal
    elements are images."""

    __slots__ = ("point", "gens", "transversal", "orbit", "inverses")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Images] = []
        self.transversal: dict[int, Images] = {}
        self.orbit: list[int] = []
        self.inverses: dict[int, Images] = {}


def _sift(levels: list[_Level], h: Images, start: int) -> tuple[Images, int]:
    """Sift the images h through ``levels[start:]``: the residue, and the
    index of the level whose orbit misses it (``len(levels)`` when it passes
    them all).  Each step is one product u^-1 * h through the table of u^-1
    the level keeps."""
    for i in range(start, len(levels)):
        lvl = levels[i]
        x = h[lvl.point]
        if x == lvl.point:
            continue
        uinv = lvl.inverses.get(x)
        if uinv is None:
            return h, i
        h = compose_images(uinv, h)
    return h, len(levels)


class PermGroup:
    """A finite permutation group on {0..degree-1} given by generators.

    ``base_hint`` seeds the base with the given points (in order) before the
    automatic ascending choice kicks in; it exists so tests can regenerate
    the chain with a different base and compare invariants.  ``elements``
    is the element set as images, when the caller already has it; it
    is trusted, not checked against the generators.
    """

    def __init__(self, generators, degree: int | None = None, base_hint=(),
                 elements: frozenset | None = None):
        generators = tuple(generators)
        if not generators:
            raise ValueError("a group needs at least one generator (identity for the trivial group)")
        if degree is None:
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}"
                )
        self.degree = degree
        self.generators = generators
        self._base_hint = tuple(base_hint)
        self._levels: list[_Level] | None = None
        self._element_set: frozenset[Images] | None = elements
        self._order: int | None = None if elements is None else len(elements)
        self.cache: dict = {}

    def cached(self, key, build, *args):
        """``build(*args)``, built on the first call for ``key`` and kept in
        ``self.cache``: the one place the library keeps what it derives from
        a group.  Pass the builder and its arguments, not a closure, so a
        hit makes no function object.  Keys by module: ``group``
        ``"elements"``, ``"conjugation_pairs"``, ``"moving_pairs"``;
        ``classes`` ``"class_table"``; ``invariants`` ``("d_pi", pi)``;
        ``subgroups`` ``"conjugates"`` (one dict: each orbit under every set
        in it), ``"normal_lattice"``, ``"normal_subgroups"``,
        ``("sylow_subgroup", p)``, ``"sorted_images"``, ``("hall_search", pi,
        budget, subgroup_cap, seed)``, ``"prime_roots"`` and
        ``("subgroup_classes", pi)``, pi None for all subgroups.  Every pi in
        a key is validated."""
        if key not in self.cache:
            self.cache[key] = build(*args)
        return self.cache[key]

    # -- stabilizer chain ------------------------------------------------

    def _ensure_chain(self):
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _build_chain(self):
        degree = self.degree
        ident = _identity_images(degree)
        gens: list[Images] = []
        seen = {ident}
        for g in self.generators:
            if g.images not in seen:
                seen.add(g.images)
                gens.append(g.images)

        levels: list[_Level] = []
        base_points: set[int] = set()
        move_of = {}  # strong generator -> its schreier_tree move

        def add_level(point: int):
            levels.append(_Level(point))
            base_points.add(point)

        def place(g: Images):
            # g joins every level group it belongs to: levels 0..j where
            # base[j] is the first base point g moves.
            move_of[g] = (g, left_multiplier(g), _inverse_images(g))
            for lvl in levels:
                lvl.gens.append(g)
                if g[lvl.point] != lvl.point:
                    return
            raise AssertionError("generator fixes the whole base")

        def moves(lvl: _Level) -> list:
            return [move_of[g] for g in lvl.gens]

        def rebuild_orbit(lvl: _Level):
            lvl.orbit, lvl.transversal, lvl.inverses = schreier_tree(lvl.point, moves(lvl), degree)

        def first_moved(g: Images) -> int:
            return next(p for p in range(degree) if g[p] != p)

        for pt in self._base_hint:
            if 0 <= pt < degree and pt not in base_points:
                add_level(pt)
        for g in gens:
            if all(g[lvl.point] == lvl.point for lvl in levels):
                add_level(first_moved(g))
        for g in gens:
            place(g)
        for lvl in levels:
            rebuild_orbit(lvl)

        # Verify Schreier generators level by level, deepest first; a
        # non-identity residue becomes a new strong generator and sends
        # verification back to its level.
        i = len(levels) - 1
        while i >= 0:
            lvl = levels[i]
            for s in schreier_generators(sorted(lvl.transversal), moves(lvl),
                                         lvl.transversal, lvl.inverses):
                h, j = _sift(levels, s, i + 1)
                if h != ident:
                    if j == len(levels):
                        add_level(first_moved(h))
                    place(h)
                    for m in range(j + 1):
                        rebuild_orbit(levels[m])
                    i = j
                    break
            else:
                i -= 1

        self._levels = levels
        self._order = prod(len(lvl.orbit) for lvl in levels)

    # -- queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        if self._order is None:
            self._build_chain()
        return self._order

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._ensure_chain())

    def _residue(self, p: Permutation) -> Images:
        """The images of p's residue after sifting through the chain."""
        if p.degree != self.degree:
            raise DegreeMismatchError(f"element degree {p.degree} != group degree {self.degree}")
        return _sift(self._ensure_chain(), p.images, 0)[0]

    def sift(self, p: Permutation) -> Permutation:
        """Residue of p after sifting through the chain; identity iff p in G."""
        return Permutation._make(self._residue(p))

    def contains(self, p: Permutation) -> bool:
        if self._element_set is None:
            return self._residue(p) == _identity_images(self.degree)
        return p.images in self._element_set

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def _chain_images(self) -> list[Images]:
        """The transversal products u_0 * u_1 * ... of the chain as images,
        with orbit points taken in ascending order at every level and the
        deepest level varying fastest.  They are built from the deepest
        level up: the products of levels j, j+1, ... are the left products
        (``perm.left_products``) of each u_j in turn with the products of
        the levels below, so each transversal element's table is built once
        and each product is one translate."""
        products = [_identity_images(self.degree)]
        for lvl in reversed(self._ensure_chain()):
            longer = []  # the products of this level and the levels below
            for x in sorted(lvl.transversal):
                longer += left_products(lvl.transversal[x], products)
            products = longer
        return products

    def elements(self):
        """Deterministic iterator over all elements, exactly ``order`` of
        them, in the order of ``_element_images``, so a group built with its
        element set builds no chain.  No cap is checked here; a run checks
        its one element cap as it starts (``Config.check_element_cap``)."""
        yield from map(Permutation._make, self._element_images())

    def _element_images(self) -> list[Images]:
        """All elements as images: the given element set in sorted image
        order, otherwise in the chain's order (kept when ``element_set``
        reads it).  The library reads elements from this list."""
        if self._element_set is None:
            return self.cached("elements", self._chain_images)
        return self.cached("elements", sorted, self._element_set)

    def element_list(self) -> list[Permutation]:
        """All elements, in the order of ``_element_images``."""
        return list(map(Permutation._make, self._element_images()))

    def element_set(self) -> frozenset[Images]:
        """The images of all elements; for a group given by generators
        alone, read once from the cached images list."""
        if self._element_set is None:
            self._element_set = frozenset(self._element_images())
        return self._element_set

    def conjugation_pairs(self) -> list[tuple[Images, Images]]:
        """The conjugation pair of each generator, in list order
        (``perm.conjugation_pairs``): each generator is inverted once per
        group."""
        return self.cached("conjugation_pairs", conjugation_pairs, self.generators)

    def moving_pairs(self) -> list[tuple[Images, Images]]:
        """The conjugation pairs of the generators that do not commute with
        every generator, in list order.  The others are central, so
        conjugating by them fixes every element and every element set: the
        class sweep and the conjugates of a subgroup walk these alone.  An
        abelian group, empty here (``is_abelian``), builds no pairs."""
        return self.cached("moving_pairs", self._moving_pairs)

    def _moving_pairs(self) -> list[tuple[Images, Images]]:
        if len(self.generators) == 1:  # one generator commutes with itself
            return []
        gens = [g.images for g in self.generators]
        moving = [any(compose_images(a, b) != compose_images(b, a) for b in gens) for a in gens]
        return list(compress(self.conjugation_pairs(), moving)) if any(moving) else []

    def random_element(self, rng: random.Random) -> Permutation:
        """Uniformly random element: independent uniform picks, one per level."""
        g = _identity_images(self.degree)
        for lvl in self._ensure_chain():
            pts = sorted(lvl.transversal)
            g = compose_images(g, lvl.transversal[pts[rng.randrange(len(pts))]])
        return Permutation._make(g)

    def is_abelian(self) -> bool:
        """Abelian exactly when every generator commutes with every other."""
        return not self.moving_pairs()

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"

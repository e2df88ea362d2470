"""Permutations of {0..n-1} as immutable image sequences.

Composition convention, fixed globally: (a * b)(x) = a(b(x)), i.e. apply b
first, then a.  Every other module relies on this choice.

Layout: ``Permutation.images`` is ``bytes`` when the degree is at most 256,
so every point is one byte, and the wide type ``_Wide``, a tuple of ints,
above that; both compose by ``.translate``, so no kernel function asks
which layout it holds, and the layout is decided only in ``_pack``,
``_inverse_images`` and ``_Wide``.  Permutations of one degree share a
layout, and bytes compare bytewise, so images compare and sort exactly as
the int tuples would; bytes also cache their hash, so a set or dict lookup
of an element hashes it once.

This module owns the permutation kernel and builds every table; only the
class-product supports of ``classes`` read one (``_table``) outside it.  A
product fixes its left factor: a * b is ``b.translate(table)`` for the
table of a, built once per fixed a (``left_multiplier``,
``left_products``): on bytes the 256-byte padding of a, on ``_Wide`` a
itself.  The inverse is ``bytes.maketrans`` on bytes.  ``powers`` lists
x, x^2, ... in one call, each power one product through x's table, built
once; the class power walks, the prime roots and the double cosets of
subgroup-class enumeration read their powers from it.
``schreier_tree`` is the stabilizer chain's orbit-with-transversal walk,
on points; no other walk keeps a transversal.  It keeps the table of each
u^-1 beside u: u_y^-1 = u_x^-1 * g^-1 is g^-1 read through the table of
u_x^-1, with g^-1 carried by g's move, so the tree inverts nothing.
``schreier_generators`` scans a tree's Schreier generators for the chain.
A conjugation g x g^-1 is two translates, one through x's table and one
through g's (``conjugate_images``, ``conjugate_set``), and the conjugation
walks (``conjugation_orbit``, ``conjugation_orbits``) build each table
once; the conjugates of an element set walk a plain orbit with no
transversal (``conjugation_set_orbit``).  ``Permutation.__mul__`` and the
conjugations are built on them; no other module composes images by hand
but ``classes``.  An element's order is the lcm of its cycle lengths
(``Permutation.order``).
"""

import math
import re
from collections import defaultdict
from collections.abc import Callable
from operator import index, itemgetter

from .errors import DegreeMismatchError

_CYCLE_GAP = re.compile(r"\)\s*\(")

_BYTES_MAX_DEGREE = 256  # images are bytes up to this degree, _Wide above it


class _Wide(tuple):
    """The images of a permutation of degree above 256: a tuple of ints that
    composes like bytes, so a * b is ``b.translate(table of a)`` on both
    layouts.  Its table is itself: ``_TAILS`` pads it with (), which
    ``__add__`` answers with the same object, so every table of wide
    images is wide and none is copied."""

    __slots__ = ()

    def translate(self, table) -> "_Wide":
        """table[self[q]] for each point q, as ``bytes.translate`` reads it."""
        return _Wide(itemgetter(*self)(table))

    def __add__(self, tail) -> "_Wide":
        return _Wide(tuple.__add__(self, tail)) if tail else self


Images = bytes | tuple[int, ...]

# _TAILS[n]: the points n..255, which pad n images to a 256-byte table; ()
# above 256
_TAILS = defaultdict(tuple, enumerate(bytes(range(n, _BYTES_MAX_DEGREE))
                                      for n in range(_BYTES_MAX_DEGREE + 1)))

_IDENTITY_IMAGES: dict[int, Images] = {}


def _pack(images) -> Images:
    """The images of a sequence of points, in the layout of its degree."""
    return bytes(images) if len(images) <= _BYTES_MAX_DEGREE else _Wide(images)


def _inverse_images(images: Images) -> Images:
    if type(images) is bytes:
        # the table sending images[i] to i holds the inverse in its first n bytes
        return bytes.maketrans(images, _identity_images(len(images)))[:len(images)]
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return _Wide(inv)


def _power_images(images: Images, k: int) -> Images:
    """Images of x^k for k >= 0, by repeated squaring."""
    result = _identity_images(len(images))
    while k:
        if k & 1:
            result = compose_images(result, images)
        images = compose_images(images, images)
        k >>= 1
    return result


def _cycles(images: Images) -> list[tuple[int, ...]]:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cycle = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        out.append(tuple(cycle))
    return out


def _identity_images(n: int) -> Images:
    images = _IDENTITY_IMAGES.get(n)
    if images is None:
        images = _IDENTITY_IMAGES[n] = _pack(range(n))
    return images


class Permutation:
    """A bijection on {0..n-1}, stored as its images: bytes up to degree 256,
    a ``_Wide`` tuple of ints above it."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        try:
            images = tuple(map(index, images))
        except TypeError:
            raise ValueError(f"not a permutation: non-integer image in {images!r}") from None
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
        self.images = _pack(images)

    @classmethod
    def _make(cls, images: Images) -> "Permutation":
        # Internal fast path: caller guarantees images is a bijection in the
        # layout of its degree.
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._make(_identity_images(n))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from disjoint cycles given as point sequences."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ValueError(f"point out of range: {pt} (degree {degree})")
                if pt in seen:
                    raise ValueError(f"point repeated across cycles: {pt}")
                seen.add(pt)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls._make(_pack(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a * b)(x) = a(b(x))
        a = self.images
        if len(a) != len(other.images):
            raise DegreeMismatchError(
                f"degree mismatch: {len(a)} vs {len(other.images)}"
            )
        return Permutation._make(compose_images(a, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._make(_inverse_images(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        return Permutation._make(_power_images(self.images, k))

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def order(self) -> int:
        """Least m >= 1 with p**m = identity: the lcm of the cycle lengths."""
        return math.lcm(1, *map(len, _cycles(self.images)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by that point."""
        return _cycles(self.images)

    def cycle_string(self) -> str:
        """Disjoint-cycle notation over 0-based points; identity is ``()``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self.cycle_string()}"


def conjugate(g: Permutation, x: Permutation) -> Permutation:
    """g * x * g^-1.  An x of another degree than g raises
    ``DegreeMismatchError``, as g * x does."""
    if len(x.images) != len(g.images):
        raise DegreeMismatchError(f"degree mismatch: {len(g.images)} vs {len(x.images)}")
    return Permutation._make(conjugate_images(conjugation_pairs([g])[0], x.images))


# -- the kernel: composition and conjugation on images ------------------------
#
# The table of a is the sequence that a * b reads a's images from: a padded
# with the fixed points n..255 (``_TAILS[n]``, empty above 256), so that
# a * b = b.translate(table) on either layout.  Every walk fixes the left
# factor and builds its table once.  A conjugation pair (table of g, images
# of g^-1) is all that x -> g x g^-1 needs: g x g^-1 = g * (x * g^-1), that
# is g^-1 read through x's table, then through g's.


def _table(a: Images) -> Images:
    return a + _TAILS[len(a)]


def compose_images(a: Images, b: Images) -> Images:
    """Images of a * b: a[b[q]] for each point q."""
    return b.translate(a + _TAILS[len(a)])


def left_multiplier(a: Images) -> Callable[[Images], Images]:
    """The map b -> a * b, with a's table built once for many b."""
    table = _table(a)
    return lambda b: b.translate(table)


def powers(x: Images, last: int | None = None) -> list[Images]:
    """[x, x^2, ..., x^last], each power one product through x's table,
    built once; with no ``last``, through x^(|x| - 1), the power before the
    identity comes back (none for the identity)."""
    ident = _identity_images(len(x))
    table = x + _TAILS[len(x)]
    out = []
    power = x
    if last is None:
        while power != ident:
            out.append(power)
            power = power.translate(table)
    else:
        for _ in range(last):
            out.append(power)
            power = power.translate(table)
    return out


def left_products(a: Images, bs) -> list[Images]:
    """[a * b for b in bs], in the order of ``bs``, with a's table built once."""
    table = _table(a)
    return [b.translate(table) for b in bs]


def schreier_tree(start: int, moves, n: int):
    """The orbit of the point ``start`` under a group of degree n, with a
    transversal.

    Each move stands for a generator g: g's images, the map u -> g * u
    (``left_multiplier(g)``) and the images of g^-1.  Breadth first, moves
    in list order: u_start is the identity and u_y = g * u_x for the first
    point x and move g with y = g[x].  Returns the orbit, the dict
    y -> u_y and the dict y -> table of u_y^-1, so that u_y^-1 * h is
    ``compose_images(inverses[y], h)``.  The table of u_y^-1 = u_x^-1 * g^-1
    is g^-1 read through the table of u_x^-1, so nothing is inverted here."""
    ident = _identity_images(n)
    tail = _TAILS[n]
    orbit = [start]
    transversal = {start: ident}
    inverses = {start: ident + tail}
    for x in orbit:
        ux = transversal[x]
        for g, times_g, ginv in moves:
            y = g[x]
            if y not in transversal:
                transversal[y] = times_g(ux)
                inverses[y] = ginv.translate(inverses[x]) + tail
                orbit.append(y)
    return orbit, transversal, inverses


def schreier_generators(points, moves, transversal, inverses):
    """The nontrivial Schreier generators u_y^-1 * g * u_x (y = g.x) of a
    ``schreier_tree``, as images, lazily: for each point x in ``points``
    and each move g in list order.  A generator is the identity exactly
    when g * u_x = u_y, one product through g's table; only the others are
    multiplied through the table of u_y^-1."""
    for x in points:
        ux = transversal[x]
        for g, times_g, _ in moves:
            gux = times_g(ux)
            y = g[x]
            if gux != transversal[y]:
                yield compose_images(inverses[y], gux)


def conjugation_pair(images: Images) -> tuple[Images, Images]:
    """The conjugation pair (table of g, images of g^-1) of the element g
    with these images."""
    return _table(images), _inverse_images(images)


def conjugation_pairs(generators) -> list[tuple[Images, Images]]:
    """The conjugation pair of each generator, in list order."""
    return [conjugation_pair(g.images) for g in generators]


def conjugate_images(pair, xim: Images) -> Images:
    """Images of g x g^-1, for the conjugation pair of g and x given by xim."""
    gtable, ginv = pair
    return ginv.translate(xim + _TAILS[len(xim)]).translate(gtable)


def conjugate_set(pair, key: frozenset) -> frozenset:
    """g K g^-1 for a set K of images (a subgroup's element set)."""
    gtable, ginv = pair
    tail = _TAILS[len(ginv)]
    return frozenset([ginv.translate(t + tail).translate(gtable) for t in key])


def _walk(xim: Images, pairs, seen: dict, label) -> list[Images]:
    """The conjugation orbit of xim, breadth first with the pairs in list
    order; each conjugate found is recorded as ``seen[y] = label``, and a
    conjugate already in ``seen`` is not walked again."""
    seen[xim] = label
    orbit = [xim]
    tail = _TAILS[len(xim)]
    for cur in orbit:
        table = cur + tail
        for gtable, ginv in pairs:
            y = ginv.translate(table).translate(gtable)
            if y not in seen:
                seen[y] = label
                orbit.append(y)
    return orbit


def conjugation_orbit(xim: Images, pairs) -> list[Images]:
    """The conjugates of xim under the group the pairs come from.

    Breadth-first, pairs in list order, so the order of the list is fixed by
    the input.  Each conjugate cur gets its table once, and each step is
    two translates.
    """
    return _walk(xim, pairs, {}, None)


def conjugation_orbits(elements, pairs) -> tuple[list[list[Images]], dict[Images, int]]:
    """The orbits of the conjugation action on ``elements`` (images of a set
    the pairs' group permutes), each walked from its first element in list
    order, and the dict from each element to the number of its orbit.  The
    dict is also the walks' record of elements seen, so an element is
    hashed once per lookup and no orbit keeps a set of its own.  With no
    pairs (every generator central) each element is its own orbit."""
    if not pairs:
        return [[xim] for xim in elements], {xim: i for i, xim in enumerate(elements)}
    index: dict[Images, int] = {}
    orbits = []
    for xim in elements:
        if xim not in index:
            orbits.append(_walk(xim, pairs, index, len(orbits)))
    return orbits, index


def conjugation_set_orbit(key: frozenset, pairs) -> set[frozenset]:
    """The conjugates of the element set ``key`` (a subgroup's) under the
    group the pairs come from: a breadth-first walk, pairs in list order,
    each step one ``conjugate_set``.  It keeps no transversal, so no orbit
    point costs an inverse."""
    seen = {key}
    orbit = [key]
    for cur in orbit:
        for pair in pairs:
            y = conjugate_set(pair, cur)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return seen


def parse_cycle_text(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(0 1 2)(3 4)`` over 0-based points.

    ``()`` denotes the identity.  Points may be separated by spaces or commas.
    """
    s = _CYCLE_GAP.sub(")(", text.strip())
    if not s:
        raise ValueError("empty permutation text")
    if s == "()":
        return Permutation.identity(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"expected cycle notation, got {text!r}")
    cycles = []
    for chunk in s[1:-1].split(")("):
        parts = chunk.replace(",", " ").split()
        if not parts:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            cycle = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad point in {text!r}") from None
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"point repeated within a cycle: {text!r}")
        cycles.append(cycle)
    return Permutation.from_cycles(degree, cycles)

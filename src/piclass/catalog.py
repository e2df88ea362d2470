"""Concrete group constructions and the census.

Families: cyclic C{n}, dihedral D{m} (m = group order, even, >= 6),
quaternion Q8 (regular representation on 8 points, the smallest faithful
one), symmetric S{n}, alternating A{n}, direct products acting on the
disjoint union of the factors' points.  Groups given by raw generators
come in as group files (``parse_group_file``).  The census is read from a
``Config``: its family ranges and order cap (``census_specs``) and its
degree cap (``census``).

Group file format
-----------------
Line 1: ``degree <n>``.  Every further non-blank line is one generator in
disjoint-cycle notation over 0-based points, fixed points omitted, ``()``
for the identity.  Blank lines and lines starting with ``#`` are ignored.
Serialization is canonical (cycles start at their least point and are sorted
by it), so parse -> serialize -> parse is the identity on the parsed group.
"""

import re
from math import factorial, prod
from typing import NamedTuple

from .config import DEFAULT_CONFIG, DEFAULT_MAX_DEGREE, Config
from .errors import CapExceededError, GroupFileError
from .group import PermGroup
from .perm import Permutation, parse_cycle_text


class GroupSpec(NamedTuple):
    """A buildable description of a catalog group."""

    kind: str  # cyclic | dihedral | quaternion | symmetric | alternating | product
    n: int = 0
    factors: tuple["GroupSpec", ...] = ()

    @property
    def name(self) -> str:
        if self.kind == "cyclic":
            return f"C{self.n}"
        if self.kind == "dihedral":
            return f"D{self.n}"
        if self.kind == "quaternion":
            return "Q8"
        if self.kind == "symmetric":
            return f"S{self.n}"
        if self.kind == "alternating":
            return f"A{self.n}"
        return " x ".join(f.name for f in self.factors)

    @property
    def order(self) -> int:
        """Closed-form order."""
        if self.kind in ("cyclic", "dihedral"):
            return self.n
        if self.kind == "quaternion":
            return 8
        if self.kind in ("symmetric", "alternating"):
            return factorial(self.n) // (2 if self.kind == "alternating" else 1)
        return prod(f.order for f in self.factors)

    @property
    def degree(self) -> int:
        """Closed-form degree of the group ``build`` makes."""
        if self.kind == "dihedral":
            return self.n // 2
        if self.kind == "quaternion":
            return 8
        if self.kind == "product":
            return sum(f.degree for f in self.factors)
        return self.n


def cyclic(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError(f"cyclic parameter must be >= 1, got {n}")
    return GroupSpec("cyclic", n=n)


def dihedral(order: int) -> GroupSpec:
    if order < 6 or order % 2:
        raise ValueError(f"dihedral order must be an even integer >= 6, got {order}")
    return GroupSpec("dihedral", n=order)


def quaternion() -> GroupSpec:
    return GroupSpec("quaternion", n=8)


def symmetric(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError(f"symmetric parameter must be >= 1, got {n}")
    return GroupSpec("symmetric", n=n)


def alternating(n: int) -> GroupSpec:
    if n < 3:
        raise ValueError(f"alternating parameter must be >= 3, got {n}")
    return GroupSpec("alternating", n=n)


def product(*factors: GroupSpec) -> GroupSpec:
    if len(factors) < 2:
        raise ValueError("a product needs at least two factors")
    return GroupSpec("product", factors=tuple(factors))


# Quaternion units 1,-1,i,-i,j,-j,k,-k as (sign, axis) with axis in 1,i,j,k.
_QUAT_AXES = "1ijk"
_QUAT_TABLE = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def _quat_mul(a, b):
    sign, axis = _QUAT_TABLE[(a[1], b[1])]
    return (a[0] * b[0] * sign, axis)


def _quaternion_group() -> PermGroup:
    units = [(s, ax) for ax in _QUAT_AXES for s in (1, -1)]
    index = {u: i for i, u in enumerate(units)}
    gens = []
    for g in ((1, "i"), (1, "j")):
        gens.append(Permutation([index[_quat_mul(g, u)] for u in units]))
    return PermGroup(gens, degree=8)


def build(spec: GroupSpec, max_degree: int = DEFAULT_MAX_DEGREE) -> PermGroup:
    """Realize a spec as a PermGroup of its advertised order and degree."""
    n = spec.degree
    if n > max_degree:
        raise CapExceededError("degree", n, max_degree)
    if spec.kind == "cyclic":
        return PermGroup([Permutation.from_cycles(n, [list(range(n))])], degree=n)
    if spec.kind == "dihedral":
        rot = Permutation.from_cycles(n, [list(range(n))])
        refl = Permutation([(n - i) % n for i in range(n)])
        return PermGroup([rot, refl], degree=n)
    if spec.kind == "quaternion":
        return _quaternion_group()
    if spec.kind == "symmetric":
        if n == 1:
            return PermGroup([Permutation.identity(1)], degree=1)
        if n == 2:
            return PermGroup([Permutation.from_cycles(2, [[0, 1]])], degree=2)
        return PermGroup(
            [Permutation.from_cycles(n, [[0, 1]]), Permutation.from_cycles(n, [list(range(n))])],
            degree=n,
        )
    if spec.kind == "alternating":
        if n == 3:
            return PermGroup([Permutation.from_cycles(3, [[0, 1, 2]])], degree=3)
        three = Permutation.from_cycles(n, [[0, 1, 2]])
        if n % 2:
            big = Permutation.from_cycles(n, [list(range(n))])
        else:
            big = Permutation.from_cycles(n, [list(range(1, n))])
        return PermGroup([three, big], degree=n)
    if spec.kind == "product":
        gens = []
        offset = 0
        for f in spec.factors:
            for gen in build(f, max_degree).generators:
                images = list(range(n))
                for i, j in enumerate(gen.images):
                    images[offset + i] = offset + j
                gens.append(Permutation(images))
            offset += f.degree
        return PermGroup(gens, degree=n)
    raise ValueError(f"unknown spec kind: {spec.kind}")


_NAME_RE = re.compile(r"^([CDSA])(\d+)$|^(Q8)$")


def parse_name(name: str) -> GroupSpec:
    """Parse a census name like ``S4``, ``D8``, ``Q8`` or ``D8 x C3``."""
    parts = [p.strip() for p in name.split(" x ")] if " x " in name else [name.strip()]
    if len(parts) == 1 and "x" in name and " x " not in name:
        # tolerate "D8xC3"
        parts = [p.strip() for p in name.split("x")]
    specs = []
    for part in parts:
        m = _NAME_RE.match(part)
        if not m:
            raise ValueError(f"unknown group name: {part!r}")
        if m.group(3):
            specs.append(quaternion())
            continue
        family, param = m.group(1), int(m.group(2))
        if family == "C":
            specs.append(cyclic(param))
        elif family == "D":
            specs.append(dihedral(param))
        elif family == "S":
            specs.append(symmetric(param))
        else:
            specs.append(alternating(param))
    return specs[0] if len(specs) == 1 else product(*specs)


# -- group files ----------------------------------------------------------


def parse_group_file(text: str, max_degree: int = DEFAULT_MAX_DEGREE) -> PermGroup:
    degree = None
    gens: list[Permutation] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if degree is None:
            m = re.match(r"^degree\s+(\d+)$", stripped)
            if not m:
                raise GroupFileError("expected 'degree <n>' header", lineno)
            degree = int(m.group(1))
            if degree < 1:
                raise GroupFileError("degree must be >= 1", lineno)
            if degree > max_degree:
                raise CapExceededError("degree", degree, max_degree)
            continue
        try:
            gens.append(parse_cycle_text(stripped, degree))
        except ValueError as exc:
            raise GroupFileError(str(exc), lineno) from None
    if degree is None:
        raise GroupFileError("missing 'degree <n>' header")
    if not gens:
        gens = [Permutation.identity(degree)]
    return PermGroup(gens, degree=degree)


def serialize_group_file(group: PermGroup) -> str:
    lines = [f"degree {group.degree}"]
    lines.extend(g.cycle_string() for g in group.generators)
    return "\n".join(lines) + "\n"


# -- census ---------------------------------------------------------------


def census_specs(config: Config = DEFAULT_CONFIG) -> list[GroupSpec]:
    """Deterministic census: base families, then pairwise direct products.

    The base families run up to the config's ranges.  Products pair every
    base spec (trivial group excluded) with itself and with every later one;
    base specs and products alike stay within ``config.max_order``.
    """
    base = [cyclic(n) for n in range(1, config.cyclic_max + 1)]
    base += [dihedral(m) for m in range(6, config.dihedral_max_order + 1, 2)]
    if config.include_quaternion:
        base.append(quaternion())
    base += [symmetric(n) for n in range(3, config.symmetric_max + 1)]
    base += [alternating(n) for n in range(4, config.alternating_max + 1)]
    base = [s for s in base if s.order <= config.max_order]
    out = list(base)
    factors = [s for s in base if s.order > 1]
    for i, a in enumerate(factors):
        for b in factors[i:]:
            if a.order * b.order <= config.max_order:
                # canonical product form: larger-order factor first
                first, second = (a, b) if a.order >= b.order else (b, a)
                out.append(product(first, second))
    return out


def census(config: Config = DEFAULT_CONFIG):
    """Yield (name, PermGroup) pairs for the configured census, in order,
    each built under ``config.max_degree``."""
    for spec in census_specs(config):
        yield spec.name, build(spec, config.max_degree)

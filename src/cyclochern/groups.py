"""Finite groups given by multiplication tables, and their actions on finite sets.

Groups are always explicit Cayley tables (no presentations); elements and
points are referred to by index.  This keeps every downstream computation
unambiguous and exactly checkable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product


class StructureError(ValueError):
    """Raised when group/action tables violate the defining axioms."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an order, a Cayley table and element names.

    ``mul[g][h]`` is the index of g*h.  The identity index and the inverse
    table are derived and validated on construction.
    """

    mul: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()
    id: int = field(init=False, default=0)
    inv: tuple[int, ...] = field(init=False, default=())

    def __post_init__(self):
        n = len(self.mul)
        if any(len(row) != n for row in self.mul):
            raise StructureError("multiplication table is not square")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"g{k}" for k in range(n)))
        if len(self.names) != n:
            raise StructureError("names length does not match order")
        ident = None
        for e in range(n):
            if all(self.mul[e][g] == g and self.mul[g][e] == g for g in range(n)):
                ident = e
                break
        if ident is None:
            raise StructureError("no two-sided identity")
        object.__setattr__(self, "id", ident)
        inv = []
        for g in range(n):
            gi = [h for h in range(n) if self.mul[g][h] == ident and self.mul[h][g] == ident]
            if len(gi) != 1:
                raise StructureError(f"element {g} has no unique inverse")
            inv.append(gi[0])
        object.__setattr__(self, "inv", tuple(inv))
        for a, b, c in product(range(n), repeat=3):
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise StructureError(f"associativity fails at ({a},{b},{c})")

    @property
    def order(self) -> int:
        return len(self.mul)

    def elements(self) -> range:
        return range(self.order)

    def op(self, g: int, h: int) -> int:
        return self.mul[g][h]

    def compose(self, *gs: int) -> int:
        out = self.id
        for g in gs:
            out = self.mul[out][g]
        return out


@dataclass(frozen=True)
class GAction:
    """An action of ``group`` on a finite point set, as a table act[g][x]."""

    group: FiniteGroup
    points: tuple[str, ...]
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, m = self.group.order, len(self.points)
        if len(self.act) != n or any(len(row) != m for row in self.act):
            raise StructureError("action table has wrong shape")
        if m and list(self.act[self.group.id]) != list(range(m)):
            raise StructureError("identity does not act trivially")
        for g, h in product(range(n), repeat=2):
            gh = self.group.mul[g][h]
            for x in range(m):
                if self.act[gh][x] != self.act[g][self.act[h][x]]:
                    raise StructureError(f"action fails at (g={g},h={h},x={x})")

    @property
    def n_points(self) -> int:
        return len(self.points)

    def apply(self, g: int, x: int) -> int:
        return self.act[g][x]

    def apply_inv(self, g: int, x: int) -> int:
        return self.act[self.group.inv[g]][x]


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes, stabilizers (centralizers) and fixed point sets."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    stabilizer: tuple[tuple[int, ...], ...]
    fixed: tuple[tuple[int, ...], ...]

    def class_rep(self, g: int) -> int:
        return self.classes[self.class_of[g]][0]


def conjugacy_analysis(action: GAction) -> ConjugacyData:
    """Conjugacy classes of G, centralizers G_phi and fixed sets X^phi."""
    G = action.group
    n = G.order
    seen = [False] * n
    classes = []
    class_of = [0] * n
    for g in range(n):
        if seen[g]:
            continue
        cls = sorted({G.compose(h, g, G.inv[h]) for h in range(n)})
        for c in cls:
            seen[c] = True
            class_of[c] = len(classes)
        classes.append(tuple(cls))
    stab = tuple(
        tuple(h for h in range(n) if G.mul[h][g] == G.mul[g][h]) for g in range(n)
    )
    fixed = tuple(
        tuple(x for x in range(action.n_points) if action.act[g][x] == x)
        for g in range(n)
    )
    return ConjugacyData(tuple(classes), tuple(class_of), stab, fixed)


def orbits(group_elements, act_rows, n_points: int) -> list[tuple[int, ...]]:
    """Orbits of the listed group elements (given their action rows) on points."""
    seen = [False] * n_points
    out = []
    for x in range(n_points):
        if seen[x]:
            continue
        orb = sorted({act_rows[g][x] for g in group_elements})
        for y in orb:
            seen[y] = True
        out.append(tuple(orb))
    return out


# -- constructors ----------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(mul, tuple(f"r{k}" if k else "e" for k in range(n)))


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def symmetric_group(n: int) -> tuple[FiniteGroup, GAction]:
    """S_n with its natural action on {0, ..., n-1}."""
    perms = sorted(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    mul = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    names = tuple("".join(map(str, p)) for p in perms)
    group = FiniteGroup(mul, names)
    act = tuple(tuple(p[x] for x in range(n)) for p in perms)
    return group, GAction(group, tuple(str(x) for x in range(n)), act)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    nb = b.order
    mul = tuple(
        tuple(a.mul[ga][ha] * nb + b.mul[gb][hb] for ha in a.elements() for hb in b.elements())
        for ga in a.elements()
        for gb in b.elements()
    )
    names = tuple(f"{na},{nbm}" for na in a.names for nbm in b.names)
    return FiniteGroup(mul, names)

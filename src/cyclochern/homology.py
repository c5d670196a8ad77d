"""Periodic cyclic homology of finite algebras by exact rank computation.

HC_n is the homology of the total complex of the first-quadrant (b, B)
bicomplex: Tot_n = C_n + C_{n-2} + ...  with differential b + B, where B is
dropped on the top (column-zero) summand: it is never computed there, so
assembly evaluates b and B only on the columns the truncated complex keeps.
(b+B)^2 = 0 holds exactly there, and HP_i is read off as the stabilized
value of HC_{2q+i}; the stabilization check across q_max and q_max+1 is
part of every report.

Three flavors of the complex ship for a crossed product C(X) x| G:

* full        -- all basis tensors of the crossed product (per conjugacy
                 block), capped in size;
* g-normalized -- the conjugacy block of the G-normalized quotient, with
                 the differential computed through crossed-product chains
                 and re-expressed via the explicit chi/mu coordinates;
* twisted     -- G_phi-invariant chains over C(X) with the phi-twisted
                 differential b_phi + B_phi.

Agreement of the three (and with the fixed-point orbit count prediction)
is the Brylinski-Nistor verification.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .algebra import CrossedProductAlgebra, FiniteAlgebra
from .chains import (
    Chain,
    chi_tilde,
    connes_B,
    hochschild_b,
    mu_phi,
    twisted_B,
    twisted_b,
)
from .linalg import sparse_rank
from .scalars import ONE, Scalar, ZERO


class SizeCapError(ValueError):
    """A chain space exceeded the configured size cap."""


FULL_ROUTE_PRODUCT_CAP = 6      # |X| * |G| cap for the full flavor (default suite)
DEFAULT_DIM_CAP = 200_000       # hard cap on any enumerated chain-space dimension


# ---------------------------------------------------------------------------
# flavors


class _Flavor:
    """Interface: an ordered basis per degree plus the action of b and B.

    `b_terms` and `B_terms` return nonzero coefficients keyed by the basis
    keys of the target degree.
    """

    label = "flavor"

    def space(self, m: int) -> list:
        raise NotImplementedError

    def b_terms(self, m: int, key) -> dict:
        """b of a degree-m basis vector (m >= 1), over degree m-1 keys."""
        raise NotImplementedError

    def B_terms(self, m: int, key) -> dict:
        """B of a degree-m basis vector, over degree m+1 keys."""
        raise NotImplementedError


class FullFlavor(_Flavor):
    """All basis tensors of a FiniteAlgebra, optionally one conjugacy block."""

    def __init__(self, algebra: FiniteAlgebra, block: int | None = None,
                 dim_cap: int = DEFAULT_DIM_CAP):
        self.algebra = algebra
        self.block = block
        self.dim_cap = dim_cap
        self.label = f"full[{algebra.name}]" + (f"/block{block}" if block is not None else "")
        self._spaces: dict[int, list] = {}

    def space(self, m: int) -> list:
        if m < 0:
            return []
        if m not in self._spaces:
            d = self.algebra.dim
            if d ** (m + 1) > self.dim_cap * 8:
                raise SizeCapError(
                    f"C_{m} of {self.algebra.name} has dimension {d ** (m + 1)}")
            tuples = product(range(d), repeat=m + 1)
            if self.block is not None:
                alg = self.algebra
                keys = [t for t in tuples if alg.block_of_tuple(t) == self.block]
            else:
                keys = list(tuples)
            if len(keys) > self.dim_cap:
                raise SizeCapError(
                    f"C_{m} of {self.algebra.name} has dimension {len(keys)}")
            self._spaces[m] = keys
        return self._spaces[m]

    def b_terms(self, m: int, key) -> dict:
        return hochschild_b(Chain(self.algebra, m, {key: ONE})).terms

    def B_terms(self, m: int, key) -> dict:
        return connes_B(Chain(self.algebra, m, {key: ONE})).terms


class TwistedFlavor(_Flavor):
    """G_phi-invariant chains over C(X) with the phi-twisted differential.

    Basis vectors are orbit sums of point tuples under the diagonal
    stabilizer action; coordinates of an invariant chain are read off at
    the orbit representative (the least tuple of the orbit).
    """

    def __init__(self, cpa: CrossedProductAlgebra, phi: int,
                 dim_cap: int = DEFAULT_DIM_CAP):
        self.cpa = cpa
        self.phi = phi
        self.stab = cpa.conjugacy.stabilizer[phi]
        self.dim_cap = dim_cap
        self.label = f"twisted[{cpa.name}]/phi{phi}"
        self._spaces: dict[int, list] = {}
        self._orbits: dict[int, dict] = {}

    def space(self, m: int) -> list:
        if m < 0:
            return []
        if m not in self._spaces:
            nx = self.cpa.n_points
            if nx ** (m + 1) > self.dim_cap * 8:
                raise SizeCapError(f"C_{m}(C(X)) has dimension {nx ** (m + 1)}")
            act = self.cpa.action
            reps = []
            orbits: dict = {}
            for t in product(range(nx), repeat=m + 1):
                if t in orbits:
                    continue
                orb = {tuple(act.apply(psi, x) for x in t) for psi in self.stab}
                entry = (min(orb), Scalar(Fraction(1, len(orb))))
                for u in orb:
                    orbits[u] = entry
                reps.append(entry[0])
            self._spaces[m] = reps
            self._orbits[m] = orbits
        return self._spaces[m]

    def orbits(self, m: int) -> dict:
        """Degree-m orbit table: point tuple -> (orbit representative, 1/|orbit|)."""
        self.space(m)
        return self._orbits[m]

    def _at_reps(self, m: int, chain: Chain) -> dict:
        orbits = self.orbits(m)
        return {t: c for t, c in chain.terms.items() if orbits[t][0] == t}

    def _orbit_sum_chain(self, m: int, rep: tuple) -> Chain:
        act = self.cpa.action
        terms = {}
        for psi in self.stab:
            terms[tuple(act.apply(psi, x) for x in rep)] = ONE
        return Chain(self.cpa.point_algebra, m, terms)

    def b_terms(self, m: int, key) -> dict:
        chain = twisted_b(self.cpa.action, self.phi, self._orbit_sum_chain(m, key))
        return self._at_reps(m - 1, chain)

    def B_terms(self, m: int, key) -> dict:
        chain = twisted_B(self.cpa.action, self.phi, self._orbit_sum_chain(m, key))
        return self._at_reps(m + 1, chain)


class GNormalizedFlavor(_Flavor):
    """One conjugacy block of the G-normalized quotient of the crossed product.

    The basis is chi of the invariant orbit basis; b and B are computed on
    honest crossed-product chains and the result is mapped back through mu,
    so this route exercises the quotient and the chi/mu intertwining.
    """

    def __init__(self, cpa: CrossedProductAlgebra, phi: int,
                 dim_cap: int = DEFAULT_DIM_CAP):
        self.cpa = cpa
        self.phi = phi
        self.twisted = TwistedFlavor(cpa, phi, dim_cap)
        self.label = f"gnorm[{cpa.name}]/phi{phi}"

    def space(self, m: int) -> list:
        return self.twisted.space(m)

    def _chi(self, m: int, key) -> Chain:
        return chi_tilde(self.cpa, self.phi, self.twisted._orbit_sum_chain(m, key))

    def _coords(self, m: int, crossed: Chain) -> dict:
        """Coordinates of mu(crossed) at the degree-m orbit representatives."""
        return mu_phi(self.cpa, self.phi, crossed, self.twisted.orbits(m)).terms

    def b_terms(self, m: int, key) -> dict:
        return self._coords(m - 1, hochschild_b(self._chi(m, key)))

    def B_terms(self, m: int, key) -> dict:
        return self._coords(m + 1, connes_B(self._chi(m, key)))


# ---------------------------------------------------------------------------
# truncated complexes and homology dims


@dataclass
class TruncatedComplex:
    """Assembled boundary columns for the two top total degrees of a flavor."""

    flavor_label: str
    parity: int
    q_max: int
    tot_dims: dict
    d_columns: dict  # n -> list of sparse columns (dict offset -> Scalar)

    @property
    def top_degree(self) -> int:
        return 2 * self.q_max + self.parity


def _tot_summands(n: int) -> list[int]:
    return list(range(n, -1, -2))


def _tot_offsets(flavor: _Flavor, n: int):
    offsets, total = {}, 0
    for m in _tot_summands(n):
        keys = flavor.space(m)
        index = {k: i for i, k in enumerate(keys)}
        offsets[m] = (total, index)
        total += len(keys)
    return offsets, total


def _d_column(flavor: _Flavor, n: int, m: int, key, target_offsets) -> dict:
    """Column of b+B applied to a degree-m basis vector inside Tot_n.

    b and B land in different summands of Tot_{n-1} and each returns
    distinct nonzero terms, so every term fills its own row.
    """
    col: dict[int, Scalar] = {}
    if m >= 1:
        base, index = target_offsets[m - 1]
        for t, c in flavor.b_terms(m, key).items():
            col[base + index[t]] = c
    if m < n:  # B is dropped on the top summand
        base, index = target_offsets[m + 1]
        for t, c in flavor.B_terms(m, key).items():
            col[base + index[t]] = c
    return col


def assemble(flavor: _Flavor, parity: int, q_max: int,
             check_d2: bool = True) -> TruncatedComplex:
    """Build the boundary columns around total degree n = 2 q_max + parity.

    Verifies (b+B)^2 = 0 exactly on every assembled column pair.
    """
    n = 2 * q_max + parity
    offsets = {}
    dims = {}
    for level in (n - 1, n, n + 1):
        if level >= 0:
            offsets[level], dims[level] = _tot_offsets(flavor, level)
        else:
            offsets[level], dims[level] = ({}, 0)
    cols = {}
    for level in (n, n + 1):
        target = offsets[level - 1]
        out = []
        for m in _tot_summands(level):
            for key in flavor.space(m):
                out.append(_d_column(flavor, level, m, key, target))
        cols[level] = out
    if check_d2:
        _verify_d2(flavor, n, offsets, cols)
    return TruncatedComplex(flavor.label, parity, q_max, dims, cols)


def _verify_d2(flavor: _Flavor, n: int, offsets, cols):
    # Apply d_n to every column of d_{n+1}; the composite must vanish.
    col_by_offset = cols[n]
    for col in cols[n + 1]:
        acc: dict[int, Scalar] = {}
        for off, v in col.items():
            for r, w in col_by_offset[off].items():
                s = acc.get(r, ZERO) + v * w
                if s:
                    acc[r] = s
                else:
                    acc.pop(r, None)
        if acc:
            raise AssertionError(f"(b+B)^2 != 0 in flavor {flavor.label}")


def homology_dims(tc: TruncatedComplex) -> int:
    """dim HC at the top total degree = dim Tot_n - rank d_n - rank d_{n+1}."""
    n = tc.top_degree
    rank_n = sparse_rank(tc.d_columns[n], tc.tot_dims[n - 1])
    rank_n1 = sparse_rank(tc.d_columns[n + 1], tc.tot_dims[n])
    return tc.tot_dims[n] - rank_n - rank_n1


def flavor_hp(flavor: _Flavor, parity: int, q_max: int) -> tuple[int, int, bool]:
    """(dim at q_max, dim at q_max+1, stable flag)."""
    d0 = homology_dims(assemble(flavor, parity, q_max))
    d1 = homology_dims(assemble(flavor, parity, q_max + 1))
    return d0, d1, d0 == d1


# ---------------------------------------------------------------------------
# predictions and reports


def bn_predict_block(cpa: CrossedProductAlgebra, class_idx: int, parity: int) -> int:
    """Fixed-point orbit count: #(G_phi-orbits on X^phi) for parity 0, else 0."""
    if parity == 1:
        return 0
    phi = cpa.conjugacy.classes[class_idx][0]
    stab = cpa.conjugacy.stabilizer[phi]
    fixed = set(cpa.conjugacy.fixed[phi])
    count = 0
    seen = set()
    for x in sorted(fixed):
        if x in seen:
            continue
        orb = {cpa.action.apply(psi, x) for psi in stab}
        if not orb <= fixed:
            raise AssertionError("stabilizer does not preserve the fixed set")
        seen |= orb
        count += 1
    return count


def bn_predict(cpa: CrossedProductAlgebra, parity: int = 0) -> dict[int, int]:
    return {c: bn_predict_block(cpa, c, parity)
            for c in range(len(cpa.conjugacy.classes))}


@dataclass
class BlockReport:
    class_label: str
    computed: int
    computed_next: int
    predicted: int
    stable: bool


@dataclass
class HomologyReport:
    scenario: str
    flavor: str
    parity: int
    q_max: int
    blocks: list
    total_computed: int = field(init=False)
    total_predicted: int = field(init=False)

    def __post_init__(self):
        self.total_computed = sum(b.computed for b in self.blocks)
        self.total_predicted = sum(b.predicted for b in self.blocks)

    @property
    def all_stable(self) -> bool:
        return all(b.stable for b in self.blocks)

    @property
    def matches_prediction(self) -> bool:
        return all(b.computed == b.predicted for b in self.blocks) and self.all_stable


def hp_report(cpa: CrossedProductAlgebra, flavor_kind: str, parity: int,
              q_max: int, scenario_label: str = "",
              dim_cap: int = DEFAULT_DIM_CAP) -> HomologyReport:
    """Per-conjugacy-class HP dims for one flavor, with stabilization."""
    conj = cpa.conjugacy
    blocks = []
    for c, cls in enumerate(conj.classes):
        phi = cls[0]
        if flavor_kind == "full":
            flav: _Flavor = FullFlavor(cpa, block=c, dim_cap=dim_cap)
        elif flavor_kind == "g-normalized":
            flav = GNormalizedFlavor(cpa, phi, dim_cap=dim_cap)
        elif flavor_kind == "twisted":
            flav = TwistedFlavor(cpa, phi, dim_cap=dim_cap)
        else:
            raise ValueError(f"unknown flavor {flavor_kind!r}")
        d0, d1, stable = flavor_hp(flav, parity, q_max)
        blocks.append(BlockReport(cpa.group.names[phi], d0, d1,
                                  bn_predict_block(cpa, c, parity), stable))
    return HomologyReport(scenario_label or cpa.name, flavor_kind, parity, q_max, blocks)


def verify_pi_star(cpa: CrossedProductAlgebra, parity: int, q_max: int,
                   scenario_label: str = "", dim_cap: int = DEFAULT_DIM_CAP):
    """Full vs G-normalized dims per conjugacy block (the pi_* isomorphism)."""
    full = hp_report(cpa, "full", parity, q_max, scenario_label, dim_cap)
    gnorm = hp_report(cpa, "g-normalized", parity, q_max, scenario_label, dim_cap)
    agree = all(f.computed == g.computed for f, g in zip(full.blocks, gnorm.blocks))
    return agree, full, gnorm


def full_route_allowed(cpa: CrossedProductAlgebra,
                       cap: int = FULL_ROUTE_PRODUCT_CAP) -> bool:
    return cpa.dim <= cap

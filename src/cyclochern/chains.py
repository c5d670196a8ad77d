"""Chain and cochain operator calculus for finite unital algebras.

Chains are sparse tensors over the algebra basis, cochains are functionals
stored by their values on basis tuples.  The operators b, T, A, B0, B, S
follow the usual mixed-complex conventions (cyclic sign (-1)^m on T), the
crossed-product specific maps (theta, G-normalization, twisted complexes,
chi/mu/Lambda) live further down.  Everything is a pure function; chains are
treated as immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from .algebra import (
    AlgebraElement,
    CrossedProductAlgebra,
    FiniteAlgebra,
    PointAlgebra,
    ValidationError,
)
from .groups import StructureError
from .scalars import ONE, Scalar, ZERO


class DomainDegreeError(ValueError):
    """Operator applied outside its legal degree range."""


class BlockMismatchError(ValueError):
    """Chain support lies outside the required conjugacy block."""


# ---------------------------------------------------------------------------
# containers


class Chain:
    """Degree-m sparse chain: terms map (m+1)-tuples of basis indices to scalars."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: FiniteAlgebra, degree: int, terms=None):
        self.algebra = algebra
        self.degree = degree
        self.terms = {t: c for t, c in (terms or {}).items() if c}
        for t in self.terms:
            if len(t) != degree + 1:
                raise ValueError(f"tuple {t} has wrong length for degree {degree}")

    def __add__(self, other: Chain) -> Chain:
        _same_space(self, other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            acc = out.get(t)
            acc = c if acc is None else acc + c
            if acc:
                out[t] = acc
            else:
                out.pop(t, None)
        return Chain(self.algebra, self.degree, out)

    def __neg__(self) -> Chain:
        return Chain(self.algebra, self.degree, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other: Chain) -> Chain:
        return self + (-other)

    def scale(self, s) -> Chain:
        s = s if isinstance(s, Scalar) else Scalar(s)
        if not s:
            return Chain(self.algebra, self.degree)
        return Chain(self.algebra, self.degree, {t: s * c for t, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return (self.algebra is other.algebra and self.degree == other.degree
                and self.terms == other.terms)

    def __repr__(self):
        return f"Chain(deg={self.degree}, {len(self.terms)} terms)"


class Cochain:
    """Degree-m cochain as its values on basis tuples (extended linearly)."""

    __slots__ = ("algebra", "degree", "values")

    def __init__(self, algebra: FiniteAlgebra, degree: int, values=None):
        self.algebra = algebra
        self.degree = degree
        self.values = {t: v for t, v in (values or {}).items() if v}

    def __add__(self, other: Cochain) -> Cochain:
        _same_space(self, other)
        out = dict(self.values)
        for t, v in other.values.items():
            acc = out.get(t)
            acc = v if acc is None else acc + v
            if acc:
                out[t] = acc
            else:
                out.pop(t, None)
        return Cochain(self.algebra, self.degree, out)

    def __neg__(self) -> Cochain:
        return Cochain(self.algebra, self.degree, {t: -v for t, v in self.values.items()})

    def __sub__(self, other: Cochain) -> Cochain:
        return self + (-other)

    def scale(self, s) -> Cochain:
        s = s if isinstance(s, Scalar) else Scalar(s)
        return Cochain(self.algebra, self.degree, {t: s * v for t, v in self.values.items()})

    def __call__(self, chain: Chain) -> Scalar:
        return pair(self, chain)

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.algebra is other.algebra and self.degree == other.degree
                and self.values == other.values)

    def __repr__(self):
        return f"Cochain(deg={self.degree}, {len(self.values)} values)"


def _same_space(a, b):
    if a.algebra is not b.algebra or a.degree != b.degree:
        raise StructureError("operands live in different (co)chain spaces")


@dataclass
class PeriodicChain:
    """Finitely truncated even/odd tower of chains; degrees 2q+parity, q <= q_max."""

    parity: int
    q_max: int
    components: list

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if len(self.components) != self.q_max + 1:
            raise ValueError("expected one component per q = 0..q_max")
        for q, comp in enumerate(self.components):
            if comp.degree != 2 * q + self.parity:
                raise ValueError("component degree mismatch")


@dataclass
class PeriodicCochain:
    parity: int
    q_max: int
    components: list

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        for q, comp in enumerate(self.components):
            if comp.degree != 2 * q + self.parity:
                raise ValueError("component degree mismatch")


def pair(cochain: Cochain, chain: Chain) -> Scalar:
    if cochain.degree != chain.degree:
        raise DomainDegreeError("pairing needs matching degrees")
    acc = ZERO
    for t, c in chain.terms.items():
        v = cochain.values.get(t)
        if v:
            acc = acc + v * c
    return acc


def pairing(phi: PeriodicCochain, eta: PeriodicChain) -> Scalar:
    """<phi, eta> = sum_q <phi_{2q+i}, eta_{2q+i}>; parities must match."""
    if phi.parity != eta.parity:
        raise DomainDegreeError("parity mismatch in periodic pairing")
    acc = ZERO
    for q in range(min(phi.q_max, eta.q_max) + 1):
        acc = acc + pair(phi.components[q], eta.components[q])
    return acc


def all_tuples(dim: int, length: int):
    return product(range(dim), repeat=length)


# ---------------------------------------------------------------------------
# chain operators


def _add_term(out: dict, t: tuple, c: Scalar):
    acc = out.get(t)
    acc = c if acc is None else acc + c
    if acc:
        out[t] = acc
    else:
        out.pop(t, None)


def hochschild_b(x):
    """Hochschild boundary (chains) / coboundary (cochains)."""
    if isinstance(x, Cochain):
        return co_b(x)
    if x.degree < 1:
        raise DomainDegreeError("hochschild_b needs chain degree >= 1")
    A = x.algebra
    m = x.degree
    out: dict = {}
    sign_m = ONE if m % 2 == 0 else -ONE
    for t, c in x.terms.items():
        for j in range(m):
            cj = c if j % 2 == 0 else -c
            for k, s in A.mul_table[t[j]][t[j + 1]]:
                _add_term(out, t[:j] + (k,) + t[j + 2:], cj * s)
        cm = sign_m * c
        for k, s in A.mul_table[t[m]][t[0]]:
            _add_term(out, (k,) + t[1:m], cm * s)
    return Chain(A, m - 1, out)


def cyclic_T(x):
    if isinstance(x, Cochain):
        return co_T(x)
    m = x.degree
    if m % 2:
        return Chain(x.algebra, m, {(t[m],) + t[:m]: -c for t, c in x.terms.items()})
    return Chain(x.algebra, m, {(t[m],) + t[:m]: c for t, c in x.terms.items()})


def op_A(x):
    """Cyclic symmetrizer A = 1 + T + ... + T^m."""
    if isinstance(x, Cochain):
        return co_A(x)
    acc = x
    cur = x
    for _ in range(x.degree):
        cur = cyclic_T(cur)
        acc = acc + cur
    return acc


def op_B0(x):
    if isinstance(x, Cochain):
        return co_B0(x)
    A = x.algebra
    out: dict = {}
    for t, c in x.terms.items():
        for u, uc in A.unit.items():
            _add_term(out, (u,) + t, c * uc)
    return Chain(A, x.degree + 1, out)


def connes_B(x):
    """B = (1 - T) B0 A on chains, B = A B0 (1 - T) on cochains."""
    if isinstance(x, Cochain):
        y = x - co_T(x)
        y = co_B0(y)
        return co_A(y)
    y = op_B0(op_A(x))
    return y - cyclic_T(y)


def _contract(A: FiniteAlgebra, t: tuple, j: int):
    """Multiply slots j, j+1; yields (tuple, coeff)."""
    for k, s in A.mul_table[t[j]][t[j + 1]]:
        yield t[:j] + (k,) + t[j + 2:], s


def s_prefactor(m: int) -> Fraction:
    """The 1/(m(m-1)) normalization of the chain periodicity operator."""
    return Fraction(1, m * (m - 1))


def periodicity_S(x):
    """Connes periodicity operator; chain degree drops by 2 (needs m >= 2).

    Implemented with the stated normalization verbatim.  As an operator it
    is meaningful on cyclic cocycles/cycles: there it produces cyclic
    (co)cycles whose class agrees with the input under periodicity (checked
    against the supertrace cocycles); it does not literally commute with b
    on arbitrary cyclic chains.
    """
    if isinstance(x, Cochain):
        return co_S(x)
    m = x.degree
    if m < 2:
        raise DomainDegreeError("periodicity_S needs chain degree >= 2")
    A = x.algebra
    out: dict = {}
    coeff = Scalar(s_prefactor(m))
    # sum over contraction pairs 0 <= l < j <= m-1 with sign (-1)^{l+j};
    # adjacent pairs produce the triple products a^{j-1} a^j a^{j+1}
    for t, c in x.terms.items():
        for j in range(1, m):
            for l in range(0, j):
                cl = c if (l + j) % 2 == 0 else -c
                for t1, s1 in _contract(A, t, j):
                    for t2, s2 in _contract(A, t1, l):
                        _add_term(out, t2, cl * s1 * s2)
    out = {t: coeff * c for t, c in out.items()}
    return Chain(A, m - 2, out)


def cyclic_projection(x: Chain) -> Chain:
    """Average of the cyclic action; lands in the cyclic chains (T eta = eta)."""
    return op_A(x).scale(Fraction(1, x.degree + 1))


# ---------------------------------------------------------------------------
# cochain operators (independent implementations of the dual formulas)


def _phi_on_slots(phi: Cochain, slots) -> Scalar:
    """Evaluate phi on a tensor whose slots are sparse (idx, coeff) lists."""
    acc = ZERO
    for combo in product(*slots):
        idxs = tuple(k for k, _ in combo)
        v = phi.values.get(idxs)
        if not v:
            continue
        c = ONE
        for _, s in combo:
            c = c * s
        acc = acc + v * c
    return acc


def _tabulate(A: FiniteAlgebra, degree: int, value_at, tuples) -> Cochain:
    """The degree-`degree` cochain with value `value_at(t)` at each t in
    `tuples`, or at every basis tuple when `tuples` is None."""
    if tuples is None:
        tuples = all_tuples(A.dim, degree + 1)
    out: dict = {}
    for t in tuples:
        v = value_at(t)
        if v:
            out[t] = v
    return Cochain(A, degree, out)


def co_b(phi: Cochain, tuples=None) -> Cochain:
    """b phi, evaluated on `tuples` ((m+2)-tuples; all of them if None)."""
    A = phi.algebra
    m = phi.degree

    def at(t):
        acc = ZERO
        for j in range(m + 1):
            sgn = 1 if j % 2 == 0 else -1
            for k, s in A.mul_table[t[j]][t[j + 1]]:
                v = phi.values.get(t[:j] + (k,) + t[j + 2:])
                if v:
                    acc = acc + (s * v if sgn > 0 else -(s * v))
        sgn_last = 1 if (m + 1) % 2 == 0 else -1
        for k, s in A.mul_table[t[m + 1]][t[0]]:
            v = phi.values.get((k,) + t[1:m + 1])
            if v:
                acc = acc + (s * v if sgn_last > 0 else -(s * v))
        return acc

    return _tabulate(A, m + 1, at, tuples)


def co_T(phi: Cochain) -> Cochain:
    m = phi.degree
    # T phi (a^0..a^m) = (-1)^m phi(a^m, a^0, .., a^{m-1})
    if m % 2:
        return Cochain(phi.algebra, m, {t[1:] + (t[0],): -v for t, v in phi.values.items()})
    return Cochain(phi.algebra, m, {t[1:] + (t[0],): v for t, v in phi.values.items()})


def co_A(phi: Cochain) -> Cochain:
    acc = phi
    cur = phi
    for _ in range(phi.degree):
        cur = co_T(cur)
        acc = acc + cur
    return acc


def co_B0(phi: Cochain, tuples=None) -> Cochain:
    """B0 phi, evaluated on `tuples` (m-tuples; all of them if None)."""
    A = phi.algebra
    unit_slot = tuple(A.unit.items())

    def at(t):
        acc = ZERO
        for u, uc in unit_slot:
            v = phi.values.get((u,) + t)
            if v:
                acc = acc + uc * v
        return acc

    return _tabulate(A, phi.degree - 1, at, tuples)


def co_S(phi: Cochain, tuples=None) -> Cochain:
    """S phi, evaluated on `tuples` ((m+3)-tuples; all of them if None)."""
    A = phi.algebra
    m = phi.degree
    coeff = Scalar(Fraction(1, (m + 1) * (m + 2)))

    def at(t):
        acc = ZERO
        for j in range(1, m + 2):
            for l in range(0, j):
                sl = 1 if (l + j) % 2 == 0 else -1
                for t1, s1 in _contract(A, t, j):
                    for t2, s2 in _contract(A, t1, l):
                        v = phi.values.get(t2)
                        if v:
                            w = s1 * s2 * v
                            acc = acc + (w if sl > 0 else -w)
        return coeff * acc if acc else acc

    return _tabulate(A, m + 2, at, tuples)


def cochain_is_normalized(phi: Cochain) -> bool:
    """Vanishing on tuples with the unit in any slot >= 1."""
    A = phi.algebra
    unit_slot = tuple(A.unit.items())
    for t in all_tuples(A.dim, phi.degree):
        for j in range(1, phi.degree + 1):
            slots = [((i, ONE),) for i in t[:j]] + [unit_slot] + [((i, ONE),) for i in t[j:]]
            if _phi_on_slots(phi, slots):
                return False
    return True


# ---------------------------------------------------------------------------
# normalized quotient (unit in a slot >= 1)


def normalized_project(x: Chain) -> Chain:
    """Canonical representative modulo N_m = span{tensors with 1 in slot >= 1}.

    Realized by the splitting A = C*1 (+) ker(l) with l the coefficient of the
    first basis vector carried by the unit; equality of projections is
    equality in the normalized quotient.
    """
    A = x.algebra
    if not A.unit:
        return x
    i0 = min(A.unit)
    u0 = A.unit[i0]
    # pi_W(b_{i0}) = b_{i0} - (1/u0) * unit ; other basis vectors fixed.
    corr = {i: -(u0.inverse() * c) for i, c in A.unit.items()}
    _add = _add_term
    cur = x.terms
    for j in range(1, x.degree + 1):
        nxt: dict = {}
        for t, c in cur.items():
            if t[j] != i0:
                _add(nxt, t, c)
                continue
            for i, cc in corr.items():
                if i == i0:
                    s = ONE + cc
                    if s:
                        _add(nxt, t, c * s)
                else:
                    _add(nxt, t[:j] + (i,) + t[j + 1:], c * cc)
        cur = nxt
    return Chain(A, x.degree, cur)


# ---------------------------------------------------------------------------
# crossed-product machinery: theta, G-normalization, twisted complexes


def _require_crossed(algebra) -> CrossedProductAlgebra:
    if not isinstance(algebra, CrossedProductAlgebra):
        raise StructureError("operation requires a crossed-product algebra")
    return algebra


def theta(x: Chain) -> Chain:
    """Inhomogeneization: pushes all group letters into the last slot."""
    A = _require_crossed(x.algebra)
    G = A.group
    m = x.degree
    out: dict = {}
    for t, c in x.terms.items():
        pref = G.id
        new = []
        for j in range(m + 1):
            xj, gj = A.basis_pair(t[j])
            if j < m:
                new.append(A.basis_index(A.action.apply(pref, xj), G.id))
                pref = G.mul[pref][gj]
            else:
                new.append(A.basis_index(A.action.apply(pref, xj), G.mul[pref][gj]))
        _add_term(out, tuple(new), c)
    return Chain(A, m, out)


def psi_star(psi: int, x: Chain) -> Chain:
    """Diagonal conjugation psi_*: each slot a -> u_psi a u_psi^{-1}."""
    A = _require_crossed(x.algebra)
    G = A.group
    out: dict = {}
    for t, c in x.terms.items():
        new = tuple(
            A.basis_index(A.action.apply(psi, xg[0]), G.compose(psi, xg[1], G.inv[psi]))
            for xg in map(A.basis_pair, t)
        )
        _add_term(out, new, c)
    return Chain(A, x.degree, out)


def psi_star_mj(psi: int, j: int, x: Chain) -> Chain:
    """The generator psi_{*;m,j} of the G-normalization relations."""
    A = _require_crossed(x.algebra)
    G = A.group
    m = x.degree
    if not 0 <= j <= m:
        raise DomainDegreeError("slot out of range")
    psi_inv = G.inv[psi]
    out: dict = {}
    for t, c in x.terms.items():
        pairs = [A.basis_pair(i) for i in t]
        if j < m:
            xj, gj = pairs[j]
            xj1, gj1 = pairs[j + 1]
            new = list(t)
            new[j] = A.basis_index(xj, G.mul[gj][psi_inv])
            new[j + 1] = A.basis_index(A.action.apply(psi, xj1), G.mul[psi][gj1])
        elif m == 0:
            # degenerate wrap: u_psi a^0 u_psi^{-1}
            x0, g0 = pairs[0]
            new = [A.basis_index(A.action.apply(psi, x0),
                                 G.compose(psi, g0, psi_inv))]
        else:
            x0, g0 = pairs[0]
            xm, gm = pairs[m]
            new = list(t)
            new[0] = A.basis_index(A.action.apply(psi, x0), G.mul[psi][g0])
            new[m] = A.basis_index(xm, G.mul[gm][psi_inv])
        _add_term(out, tuple(new), c)
    return Chain(A, m, out)


def g_normalize(x: Chain) -> Chain:
    """Canonical representative modulo the G-normalization subspace N^G_m.

    N^G_m = ker(theta) + sum_psi (psi_* - id) theta(C_m), so averaging the
    diagonal G-action over theta's image is an exact projection with kernel
    N^G_m; equal classes get identical representatives.
    """
    A = _require_crossed(x.algebra)
    G = A.group
    y = theta(x)
    out: dict = {}
    for psi in G.elements():
        inv_psi = G.inv[psi]
        for t, c in y.terms.items():
            new = tuple(
                A.basis_index(A.action.apply(psi, xg[0]), G.compose(psi, xg[1], inv_psi))
                for xg in map(A.basis_pair, t)
            )
            _add_term(out, new, c)
    return Chain(A, x.degree, out).scale(Fraction(1, G.order))


def co_g_normalize(phi: Cochain) -> Cochain:
    """Transpose of g_normalize: phi o P.  Fixes exactly the G-normalized
    cochains (those invariant under moving u_psi across slots and around
    the cycle) and annihilates the complement."""
    A = _require_crossed(phi.algebra)
    out: dict = {}
    for t in all_tuples(A.dim, phi.degree + 1):
        v = pair(phi, g_normalize(Chain(A, phi.degree, {t: ONE})))
        if v:
            out[t] = v
    return Cochain(A, phi.degree, out)


def cochain_is_g_normalized(phi: Cochain) -> bool:
    """The two defining conditions: invariance under u_psi moves in the
    middle slots and the begin/end wrap."""
    A = _require_crossed(phi.algebra)
    m = phi.degree
    for psi in A.group.elements():
        for j in range(m + 1):
            for t in all_tuples(A.dim, m + 1):
                moved = psi_star_mj(psi, j, Chain(A, m, {t: ONE}))
                if pair(phi, moved) != phi.values.get(t, ZERO):
                    return False
    return True


# -- twisted complex over C(X) ----------------------------------------------


def _point_algebra_of(x: Chain) -> PointAlgebra:
    if not isinstance(x.algebra, PointAlgebra):
        raise StructureError("twisted operators act on chains over C(X)")
    return x.algebra


def twisted_b(action, phi: int, x: Chain) -> Chain:
    A = _point_algebra_of(x)
    m = x.degree
    if m < 1:
        raise DomainDegreeError("twisted_b needs degree >= 1")
    if not 0 <= phi < action.group.order:
        raise StructureError("phi outside the group")
    out: dict = {}
    sign_m = ONE if m % 2 == 0 else -ONE
    for t, c in x.terms.items():
        for j in range(m):
            if t[j] == t[j + 1]:
                cj = c if j % 2 == 0 else -c
                _add_term(out, t[:j] + (t[j],) + t[j + 2:], cj)
        # (-1)^m (f^m o phi) f^0 (x) ... : delta_{phi^{-1} x_m} * delta_{x_0}
        if action.apply_inv(phi, t[m]) == t[0]:
            _add_term(out, t[:m], sign_m * c)
    return Chain(A, m - 1, out)


def twisted_T(action, phi: int, x: Chain) -> Chain:
    A = _point_algebra_of(x)
    m = x.degree
    sign = ONE if m % 2 == 0 else -ONE
    out: dict = {}
    for t, c in x.terms.items():
        _add_term(out, (action.apply_inv(phi, t[m]),) + t[:m], sign * c)
    return Chain(A, m, out)


def twisted_A(action, phi: int, x: Chain) -> Chain:
    acc = x
    cur = x
    for _ in range(x.degree):
        cur = twisted_T(action, phi, cur)
        acc = acc + cur
    return acc


def twisted_B(action, phi: int, x: Chain) -> Chain:
    y = op_B0(twisted_A(action, phi, x))
    return y - twisted_T(action, phi, y)


def point_action(psi: int, action, x: Chain) -> Chain:
    """Diagonal action psi_* (f^0 (x) .. (x) f^m) = f^0 o psi^{-1} (x) ..."""
    A = _point_algebra_of(x)
    out: dict = {}
    for t, c in x.terms.items():
        _add_term(out, tuple(action.apply(psi, i) for i in t), c)
    return Chain(A, x.degree, out)


def lambda_phi(cpa: CrossedProductAlgebra, phi: int, x: Chain) -> Chain:
    """Average over the stabilizer G_phi (uniform measure)."""
    stab = cpa.conjugacy.stabilizer[phi]
    act = cpa.action
    out: dict = {}
    for psi in stab:
        for t, c in x.terms.items():
            _add_term(out, tuple(act.apply(psi, i) for i in t), c)
    return Chain(x.algebra, x.degree, out).scale(Fraction(1, len(stab)))


def chi_tilde(cpa: CrossedProductAlgebra, phi: int, x: Chain) -> Chain:
    """f^0 (x) ... (x) f^m  ->  f^0 (x) ... (x) f^m u_phi (raw chain)."""
    if x.algebra is not cpa.point_algebra:
        raise StructureError("chi expects a chain over the scenario's C(X)")
    G = cpa.group
    m = x.degree
    out: dict = {}
    for t, c in x.terms.items():
        new = tuple(cpa.basis_index(i, G.id) for i in t[:m]) + (cpa.basis_index(t[m], phi),)
        _add_term(out, new, c)
    return Chain(cpa, m, out)


def chi_phi(cpa: CrossedProductAlgebra, phi: int, x: Chain) -> Chain:
    """chi as a map into the G-normalized quotient (canonical representative)."""
    return g_normalize(chi_tilde(cpa, phi, x))


def mu_phi(cpa: CrossedProductAlgebra, phi: int, x: Chain, orbits=None) -> Chain:
    """Inverse of chi on the conjugacy block of phi (lands in G_phi-invariants).

    With `orbits`, a table mapping every point tuple to its G_phi-orbit
    representative and 1/|orbit| (`TwistedFlavor.orbits`), only the
    coordinates at the representatives are returned: the value at r is
    sum_{rep(t)=r} c_t / |orbit(r)|, the averaged chain's coefficient at r,
    because lambda(delta_t) = orbitsum(t) / |orbit(t)|.
    """
    if x.algebra is not cpa:
        raise StructureError("mu expects a chain over the crossed product")
    G = cpa.group
    conj = cpa.conjugacy
    m = x.degree
    target = conj.class_of[phi]
    acc: dict = {}
    for t, c in x.terms.items():
        if cpa.block_of_tuple(t) != target:
            raise BlockMismatchError("term outside the conjugacy block of phi")
        pairs = [cpa.basis_pair(i) for i in t]
        word = G.compose(*(g for _, g in pairs))
        kappa = cpa.kappa_for(phi, word)
        pref = G.id
        pts = []
        for xj, gj in pairs:
            pts.append(cpa.action.apply(pref, xj))
            pref = G.mul[pref][gj]
        moved = tuple(cpa.action.apply(kappa, p) for p in pts)
        _add_term(acc, moved if orbits is None else orbits[moved][0], c)
    if orbits is None:
        return lambda_phi(cpa, phi, Chain(cpa.point_algebra, m, acc))
    return Chain(cpa.point_algebra, m, {r: c * orbits[r][1] for r, c in acc.items()})


# ---------------------------------------------------------------------------
# Chern character and the antisymmetrization map


def matrix_mul(a, b):
    n = len(a)
    return [[_matdot(a, b, i, j) for j in range(n)] for i in range(n)]


def _matdot(a, b, i, j):
    acc = a[i][0] * b[0][j]
    for k in range(1, len(a)):
        acc = acc + a[i][k] * b[k][j]
    return acc


def matrix_identity(algebra: FiniteAlgebra, n: int):
    one, zero = algebra.one(), algebra.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def chern_character(e, q_max: int) -> PeriodicChain:
    """Ch(e) for an exact idempotent matrix e over a FiniteAlgebra.

    Ch_0 = tr[e]; Ch_{2q} = (-1)^q (2q)!/q! tr[(e - 1/2) (x) e^{(x) 2q}].
    Components are returned as raw tensors; (b+B)Ch(e) = 0 holds after
    projecting to the normalized quotient.
    """
    n = len(e)
    algebra = e[0][0].algebra
    ee = matrix_mul(e, e)
    residual = [[ee[i][j] - e[i][j] for j in range(n)] for i in range(n)]
    if any(not r.is_zero() for row in residual for r in row):
        err = ValidationError("matrix is not idempotent")
        err.residual = residual
        raise err
    half_unit = [[b.scale(Fraction(1, 2)) for b in row] for row in matrix_identity(algebra, n)]
    e_half = [[e[i][j] - half_unit[i][j] for j in range(n)] for i in range(n)]

    comps = [_trace_tensor(algebra, n, [e])]
    for q in range(1, q_max + 1):
        coeff = Fraction(factorial(2 * q), factorial(q))
        if q % 2:
            coeff = -coeff
        comps.append(_trace_tensor(algebra, n, [e_half] + [e] * (2 * q)).scale(coeff))
    return PeriodicChain(0, q_max, comps)


def trace_powers_chain(algebra: FiniteAlgebra, e, k: int) -> Chain:
    """tr[e^{(x)(k+1)}] as a degree-k chain (used by the pairing shortcut)."""
    return _trace_tensor(algebra, len(e), [e] * (k + 1))


def chern_pairing(phi: Cochain, e) -> Scalar:
    """<phi, Ch(e)> for a cyclic 2q-cocycle via the shortcut formula

        <phi, Ch(e)> = (-1)^q (2q)!/q! <phi, tr[e^{(x)(2q+1)}]>.

    This computes the homology-level pairing for any cyclic cocycle,
    normalized or not (Ch(e) itself is a cycle only in the normalized
    quotient); for normalized cocycles it coincides with the componentwise
    pairing against Ch_{2q}(e).
    """
    if phi.degree % 2:
        raise DomainDegreeError("Chern pairing needs an even cyclic cocycle")
    q = phi.degree // 2
    algebra = e[0][0].algebra
    coeff = Fraction(factorial(2 * q), factorial(q))
    if q % 2:
        coeff = -coeff
    return Scalar(coeff) * pair(phi, trace_powers_chain(algebra, e, 2 * q))


def _trace_tensor(algebra: FiniteAlgebra, n: int, mats) -> Chain:
    """tr[m_0 (x) ... (x) m_k] expanded to a sparse chain over the algebra.

    Dynamic programming over matrix index paths keeps the expansion linear
    in the number of surviving tensor terms.
    """
    k = len(mats)
    # paths[(i_start, i_cur)] = dict partial tuple -> Scalar
    paths = {}
    for i in range(n):
        for j in range(n):
            entry = mats[0][i][j]
            if entry.is_zero():
                continue
            d = paths.setdefault((i, j), {})
            for bi, c in entry.coeffs.items():
                _add_term(d, (bi,), c)
    for step in range(1, k):
        nxt: dict = {}
        for (i0, icur), terms in paths.items():
            row = mats[step][icur]
            for j in range(n):
                entry = row[j]
                if entry.is_zero():
                    continue
                d = nxt.setdefault((i0, j), {})
                for t, c in terms.items():
                    for bi, cc in entry.coeffs.items():
                        _add_term(d, t + (bi,), c * cc)
        paths = nxt
    out: dict = {}
    for (i0, icur), terms in paths.items():
        if i0 != icur:
            continue
        for t, c in terms.items():
            _add_term(out, t, c)
    return Chain(algebra, k - 1, out)


ANTISYMMETRIZE_CAP = 6


def antisymmetrize(f0: AlgebraElement, *fs: AlgebraElement) -> Chain:
    """beta(f^0, ..., f^m) = sum_sigma eps(sigma) f^0 (x) f^{sigma(1)} (x) ...

    Right inverse of the chain-to-form symbol map; factorial growth capped.
    """
    m = len(fs)
    if m > ANTISYMMETRIZE_CAP:
        raise DomainDegreeError(f"antisymmetrize capped at m <= {ANTISYMMETRIZE_CAP}")
    algebra = f0.algebra
    out = Chain(algebra, m)
    for perm in permutations(range(m)):
        sign = _perm_sign(perm)
        tensor: dict = {(): ONE}
        for a in (f0,) + tuple(fs[p] for p in perm):
            nxt: dict = {}
            for t, c in tensor.items():
                for bi, cc in a.coeffs.items():
                    _add_term(nxt, t + (bi,), c * cc)
            tensor = nxt
        out = out + Chain(algebra, m, tensor).scale(sign)
    return out


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def random_sparse_chain(algebra: FiniteAlgebra, degree: int, rng, n_terms: int = 4,
                        complex_parts: bool = True) -> Chain:
    out: dict = {}
    for _ in range(n_terms):
        t = tuple(rng.randrange(algebra.dim) for _ in range(degree + 1))
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if complex_parts else 0
        _add_term(out, t, Scalar(re, im))
    return Chain(algebra, degree, out)

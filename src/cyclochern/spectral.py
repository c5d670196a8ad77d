"""Finite-dimensional twisted spectral triples over exact scalars.

A triple is a graded unital *-representation of a FiniteAlgebra together
with an odd self-adjoint rational matrix D and a twisting automorphism
sigma.  The supertrace cocycles tau_2q, their transgression cochains, the
invertible double, conformal deformations, unitary conjugation, Grassmannian
connections and the half-integer index map all live here; every identity is
an exact matrix computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import (
    AlgebraAutomorphism,
    AlgebraElement,
    FiniteAlgebra,
    UnitalizedAlgebra,
    ValidationError,
    identity_automorphism,
    inner_automorphism,
)
from .chains import Chain, Cochain, all_tuples
from .linalg import (
    Matrix,
    column_space_basis,
    identity,
    mat_conj_transpose,
    mat_eq,
    mat_inverse,
    mat_mul,
    mat_sub,
    solve_in_span,
    zeros,
)
from .scalars import ONE, Scalar, ZERO


class SingularOperatorError(ValueError):
    """D is not invertible; route through the invertible double instead."""


@dataclass(frozen=True)
class GradedSpace:
    """Z2-graded space; basis ordered plus-part first."""

    dim_plus: int
    dim_minus: int

    @property
    def dim(self) -> int:
        return self.dim_plus + self.dim_minus

    def sign(self, i: int) -> int:
        return 1 if i < self.dim_plus else -1

    def gamma(self) -> Matrix:
        return [[(ONE if i < self.dim_plus else -ONE) if i == j else ZERO
                 for j in range(self.dim)] for i in range(self.dim)]


def supertrace(space: GradedSpace, m: Matrix) -> Scalar:
    acc = ZERO
    for i in range(space.dim_plus):
        acc = acc + m[i][i]
    for i in range(space.dim_plus, space.dim):
        acc = acc - m[i][i]
    return acc


def _is_even(space: GradedSpace, m: Matrix) -> bool:
    p = space.dim_plus
    return all(not m[i][j] for i in range(space.dim) for j in range(space.dim)
               if (i < p) != (j < p))


def _is_odd(space: GradedSpace, m: Matrix) -> bool:
    p = space.dim_plus
    return all(not m[i][j] for i in range(space.dim) for j in range(space.dim)
               if (i < p) == (j < p))


class TwistedTriple:
    """(A, H, D)_sigma with exact matrices; all axioms validated on build."""

    def __init__(self, algebra: FiniteAlgebra, space: GradedSpace, rep,
                 D: Matrix, sigma: AlgebraAutomorphism | None = None,
                 validate: bool = True, label: str = ""):
        self.algebra = algebra
        self.space = space
        self.rep = list(rep)  # matrix per basis index
        self.D = D
        self.sigma = sigma if sigma is not None else identity_automorphism(algebra)
        self.label = label
        self._d_inv: Matrix | None = None
        self._double_w: tuple[GradedSpace, list[Matrix]] | None = None
        if validate:
            self.validate()

    # -- structure --------------------------------------------------------

    def pi(self, a: AlgebraElement) -> Matrix:
        n = self.space.dim
        out = zeros(n, n)
        for i, c in a.coeffs.items():
            m = self.rep[i]
            for r in range(n):
                row = m[r]
                orow = out[r]
                for s in range(n):
                    if row[s]:
                        orow[s] = orow[s] + c * row[s]
        return out

    def validate(self):
        A, n = self.algebra, self.space.dim
        if len(self.rep) != A.dim:
            raise ValidationError("one representation matrix per basis vector")
        if not mat_eq(self.pi(A.one()), identity(n)):
            raise ValidationError("representation is not unital")
        for i in range(A.dim):
            if not _is_even(self.space, self.rep[i]):
                raise ValidationError(f"pi(b_{i}) is not even")
            if not mat_eq(self.pi(A.basis_element(i).involution()),
                          mat_conj_transpose(self.rep[i])):
                raise ValidationError(f"pi(b_{i}^*) != pi(b_{i})^*")
            for j in range(A.dim):
                if not mat_eq(self.pi(A.basis_element(i) * A.basis_element(j)),
                              mat_mul(self.rep[i], self.rep[j])):
                    raise ValidationError(f"pi not multiplicative at ({i},{j})")
        if not _is_odd(self.space, self.D):
            raise ValidationError("D must be odd for the grading")
        if not mat_eq(self.D, mat_conj_transpose(self.D)):
            raise ValidationError("D must be self-adjoint")
        sigma_inv = self.sigma.inverse()
        for i in range(A.dim):
            b = A.basis_element(i)
            if self.sigma.apply(b).involution() != sigma_inv.apply(b.involution()):
                raise ValidationError("sigma(a)^* != sigma^{-1}(a^*)")

    def d_inverse(self) -> Matrix:
        if self._d_inv is None:
            try:
                self._d_inv = mat_inverse(self.D)
            except ZeroDivisionError:
                raise SingularOperatorError(
                    "D is singular; use invertible_double() for tau_bar") from None
        return self._d_inv

    def is_invertible(self) -> bool:
        try:
            self.d_inverse()
            return True
        except SingularOperatorError:
            return False

    # -- twisted commutators and cocycles ----------------------------------

    def twisted_commutator(self, a: AlgebraElement) -> Matrix:
        return mat_sub(mat_mul(self.D, self.pi(a)), mat_mul(self.pi(self.sigma.apply(a)), self.D))

    def _omega_basis(self) -> list[Matrix]:
        """W_i = D^{-1} [D, b_i]_sigma for each basis vector."""
        dinv = self.d_inverse()
        return [mat_mul(dinv, self.twisted_commutator(self.algebra.basis_element(i)))
                for i in range(self.algebra.dim)]

    def tau(self, q: int) -> Cochain:
        """tau_2q(a^0..a^2q) = c_q Str(D^{-1}[D,a^0]_s ... D^{-1}[D,a^2q]_s)."""
        w = self._omega_basis()
        return _dense_str_cochain(self.algebra, self.space, w, w, 2 * q, tau_coefficient(q))

    def transgression(self, q: int):
        """The cochain pair (phi_{2q+1}, psi_{2q+1}) with the frozen constant.

        With lambda_q = (-1)^{q+1} q! / (4 (2q+1)!) both identities
        tau_{2q+2} = b(phi - psi) and tau_{2q} = -B(phi - psi) hold exactly;
        the constant was pinned once against the q=0 instance and is
        required to work for every q.
        """
        lam = transgression_coefficient(q)
        dinv = self.d_inverse()
        comm = [self.twisted_commutator(self.algebra.basis_element(i))
                for i in range(self.algebra.dim)]
        w = [mat_mul(dinv, c) for c in comm]
        v = [mat_mul(c, dinv) for c in comm]
        heads_phi = [self.pi(self.algebra.basis_element(i)) for i in range(self.algebra.dim)]
        heads_psi = [self.pi(self.sigma.apply(self.algebra.basis_element(i)))
                     for i in range(self.algebra.dim)]
        phi = _dense_str_cochain(self.algebra, self.space, heads_phi, w, 2 * q + 1, lam)
        psi = _dense_str_cochain(self.algebra, self.space, heads_psi, v, 2 * q + 1, lam)
        return phi, psi


def tau_coefficient(q: int) -> Scalar:
    c = Fraction(factorial(q), 2 * factorial(2 * q))
    return Scalar(-c if q % 2 else c)


def transgression_coefficient(q: int) -> Scalar:
    lam = Fraction(factorial(q), 4 * factorial(2 * q + 1))
    return Scalar(lam if q % 2 else -lam)


def _str_of_product(gamma: list[int], p: Matrix, f: Matrix) -> Scalar:
    """Str(p f) = sum_{r,s} gamma_r p[r][s] f[s][r] without forming p f (n^2 work)."""
    acc = ZERO
    for r, sign in enumerate(gamma):
        row = ZERO
        for x, frow in zip(p[r], f):
            if x:
                y = frow[r]
                if y:
                    row = row + x * y
        if row:
            acc = acc + row if sign > 0 else acc - row
    return acc


def _gamma(space: GradedSpace) -> list[int]:
    return [space.sign(i) for i in range(space.dim)]


def _dense_str_cochain(algebra: FiniteAlgebra, space: GradedSpace, heads, factors,
                       degree: int, scale: Scalar) -> Cochain:
    """Cochain t -> scale * Str(heads[t0] factors[t1] ... factors[t_m]).

    Depth-first over tuples reusing prefix products P = heads[t0] ...
    factors[t_{m-1}]; the last factor is contracted into the supertrace,
    Str(P F) = sum_{r,s} gamma_r P[r][s] F[s][r], instead of multiplied in.
    With d = dim A and n = dim H that is d + ... + d^m matrix products
    (n^3 each) and d^{m+1} contractions (n^2 each).  Degree 0 takes
    Str(heads[t0]) directly.
    """
    d = algebra.dim
    gamma = _gamma(space)
    values: dict = {}

    def rec(depth: int, prefix: Matrix, idxs: tuple):
        if depth == degree:
            for i in range(d):
                v = scale * _str_of_product(gamma, prefix, factors[i])
                if v:
                    values[idxs + (i,)] = v
            return
        for i in range(d):
            rec(depth + 1, mat_mul(prefix, factors[i]), idxs + (i,))

    for i in range(d):
        if degree == 0:
            v = scale * supertrace(space, heads[i])
            if v:
                values[(i,)] = v
        else:
            rec(1, heads[i], (i,))
    return Cochain(algebra, degree, values)


# ---------------------------------------------------------------------------
# invertible double


def _double_order(t: TwistedTriple) -> list[int]:
    """Basis order putting H~+ = H1+ (+) H2- first, then H~- = H1- (+) H2+."""
    n, p = t.space.dim, t.space.dim_plus
    plus = list(range(p)) + list(range(n + p, 2 * n))
    minus = list(range(p, n)) + list(range(n, n + p))
    return plus + minus


def _double_reorder_matrix(t: TwistedTriple, m: Matrix) -> Matrix:
    """diag(m, m) on H (+) H, in the canonical graded order of the double."""
    n = t.space.dim
    order = _double_order(t)

    def entry(i, j):
        oi, oj = order[i], order[j]
        bi, ii = divmod(oi, n)
        bj, jj = divmod(oj, n)
        return m[ii][jj] if bi == bj else ZERO

    return [[entry(i, j) for j in range(2 * n)] for i in range(2 * n)]


def invertible_double(t: TwistedTriple) -> TwistedTriple:
    """(A~, H + H, [[D, 1], [1, -D]])_sigma~ ; the double is always invertible."""
    n = t.space.dim
    p = t.space.dim_plus
    order = _double_order(t)
    space = GradedSpace(n, n)

    def reorder(m: Matrix) -> Matrix:
        return [[m[order[i]][order[j]] for j in range(2 * n)] for i in range(2 * n)]

    def block(m11, m12, m21, m22) -> Matrix:
        out = zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                out[i][j] = m11[i][j]
                out[i][n + j] = m12[i][j]
                out[n + i][j] = m21[i][j]
                out[n + i][n + j] = m22[i][j]
        return out

    eye, zer = identity(n), zeros(n, n)
    D2 = reorder(block(t.D, eye, eye, [[-x for x in row] for row in t.D]))
    unital = UnitalizedAlgebra(t.algebra)
    rep = [reorder(block(t.rep[i], zer, zer, zer)) for i in range(t.algebra.dim)]
    rep.append(identity(2 * n))
    images = [unital.include(img) for img in t.sigma.images]
    images.append(unital.basis_element(unital.dim - 1))
    sigma2 = AlgebraAutomorphism(unital, images, check=False)
    return TwistedTriple(unital, space, rep, D2, sigma2,
                         label=f"double({t.label})" if t.label else "double")


def _double_omega(t: TwistedTriple) -> tuple[GradedSpace, list[Matrix]]:
    """(graded space of the double, W~_i = D~^{-1}[D~, b_i]_sigma~ per basis vector of A).

    Built, with its double validated, once per triple and cached on it.
    """
    if t._double_w is None:
        dbl = invertible_double(t)
        dinv = dbl.d_inverse()
        w = [mat_mul(dinv, dbl.twisted_commutator(dbl.algebra.basis_element(i)))
             for i in range(t.algebra.dim)]
        t._double_w = (dbl.space, w)
    return t._double_w


def tau_bar(t: TwistedTriple, q: int) -> Cochain:
    """Restriction to A of tau_2q of the invertible double (a cochain on A)."""
    space, w = _double_omega(t)
    return _dense_str_cochain(t.algebra, space, w, w, 2 * q, tau_coefficient(q))


def tau_bar_pair_chain(t: TwistedTriple, q: int, chain: Chain) -> Scalar:
    """<tau_bar_2q, chain> evaluated lazily on the chain support."""
    if chain.degree != 2 * q:
        raise ValueError("chain degree must be 2q")
    space, w = _double_omega(t)
    c_q = tau_coefficient(q)
    acc = ZERO
    cache: dict[tuple, Matrix] = {}

    def prod(idx: tuple) -> Matrix:
        if idx in cache:
            return cache[idx]
        if len(idx) == 1:
            m = w[idx[0]]
        else:
            m = mat_mul(prod(idx[:-1]), w[idx[-1]])
        cache[idx] = m
        return m

    for tup, c in chain.terms.items():
        acc = acc + c * (c_q * supertrace(space, prod(tup)))
    return acc


def tau_bar_chern_pairing(t: TwistedTriple, q: int, e) -> Scalar:
    """<tau_bar_2q, Ch(e)> for an N x N matrix e over A, by multilinearity.

    The cyclic-cocycle shortcut pairs with tr[e^{(x)(2q+1)}] =
    sum e_{i0 i1} (x) e_{i1 i2} (x) ... (x) e_{i2q i0}, and tau_bar_2q =
    c_q Str(W~(a^0) ... W~(a^2q)) is multilinear, so

        <tau_bar_2q, Ch(e)> = (-1)^q (2q)!/q! c_q Str(WW(e)^{2q+1}),

    where WW(e) is the block matrix with blocks W~(e_ab) = sum_i (e_ab)_i W~_i
    (size N dim H~) and Str sums the supertraces of its diagonal blocks.  That
    is 2q - 1 matrix products and one contraction, against one product per
    tuple of the expanded chain, (terms of e)^{2q+1} of them.
    `tau_bar_pair_chain` of `chains.trace_powers_chain` is the oracle.
    """
    space, w = _double_omega(t)
    n, N = space.dim, len(e)
    big = zeros(N * n, N * n)
    for a in range(N):
        for b in range(N):
            for i, c in e[a][b].coeffs.items():
                for r, wrow in enumerate(w[i]):
                    row = big[a * n + r]
                    for s, x in enumerate(wrow):
                        if x:
                            row[b * n + s] = row[b * n + s] + c * x
    power = big if q else identity(N * n)
    for _ in range(2 * q - 1):
        power = mat_mul(power, big)
    value = _str_of_product(_gamma(space) * N, power, big)
    coeff = Fraction(factorial(2 * q), factorial(q))
    if q % 2:
        coeff = -coeff
    return Scalar(coeff) * (tau_coefficient(q) * value)


# ---------------------------------------------------------------------------
# deformations and equivalences


def algebra_inverse(t: TwistedTriple, k: AlgebraElement) -> AlgebraElement:
    """Inverse of k inside A (via the left regular representation)."""
    A = t.algebra
    d = A.dim
    m = zeros(d, d)
    for j in range(d):
        col = k * A.basis_element(j)
        for i, c in col.coeffs.items():
            m[i][j] = c
    try:
        minv = mat_inverse(m)
    except ZeroDivisionError:
        raise ValidationError("element is not invertible in A") from None
    one = A.one()
    out: dict = {}
    for i in range(d):
        acc = ZERO
        for j, c in one.coeffs.items():
            if minv[i][j]:
                acc = acc + minv[i][j] * c
        if acc:
            out[i] = acc
    return AlgebraElement(A, out)


def conformal_deform(t: TwistedTriple, k_root: AlgebraElement) -> tuple[TwistedTriple, AlgebraElement, AlgebraElement]:
    """Deform by the positive element k = k_root^* k_root: D -> kDk.

    Returns (deformed triple, k, k_inverse).  The new twist is
    sigma_hat(a) = k sigma(k a k^{-1}) k^{-1}; validity (in particular
    sigma_hat(a)^* = sigma_hat^{-1}(a^*)) is re-checked on construction.
    """
    k = k_root.involution() * k_root
    k_inv = algebra_inverse(t, k)
    K = t.pi(k)
    D2 = mat_mul(mat_mul(K, t.D), K)
    conj = inner_automorphism(t.algebra, k, k_inv)
    sigma_hat = conj.compose(t.sigma).compose(conj)
    triple = TwistedTriple(t.algebra, t.space, t.rep, D2, sigma_hat,
                           label=f"conf({t.label})" if t.label else "conf")
    return triple, k, k_inv


def conjugated_cochain(phi: Cochain, k: AlgebraElement, k_inv: AlgebraElement) -> Cochain:
    """phi(k a^0 k^{-1}, ..., k a^m k^{-1}) as a stored cochain."""
    A = phi.algebra
    conj = [(k * A.basis_element(i) * k_inv).coeffs for i in range(A.dim)]
    out: dict = {}
    for tup in all_tuples(A.dim, phi.degree + 1):
        acc = ZERO
        stack = [(0, (), ONE)]
        while stack:
            depth, partial, coeff = stack.pop()
            if depth == len(tup):
                v = phi.values.get(partial)
                if v:
                    acc = acc + coeff * v
                continue
            for i, c in conj[tup[depth]].items():
                stack.append((depth + 1, partial + (i,), coeff * c))
        if acc:
            out[tup] = acc
    return Cochain(A, phi.degree, out)


def unitary_conjugate(t: TwistedTriple, U: Matrix) -> TwistedTriple:
    """Equivalent triple (U^* D U, U^* pi U); must be even and unitary."""
    n = t.space.dim
    Us = mat_conj_transpose(U)
    if not mat_eq(mat_mul(Us, U), identity(n)):
        raise ValidationError("U is not unitary")
    if not _is_even(t.space, U):
        raise ValidationError("U is not even")
    rep = [mat_mul(Us, mat_mul(m, U)) for m in t.rep]
    D2 = mat_mul(Us, mat_mul(t.D, U))
    return TwistedTriple(t.algebra, t.space, rep, D2, t.sigma,
                         label=f"U*({t.label})U" if t.label else "conjugated")


# ---------------------------------------------------------------------------
# sigma-connections and the index


@dataclass
class ConnectionOperators:
    """The two chiral blocks of D_nabla for a Grassmannian sigma-connection."""

    plus_domain: list    # basis of e(H^N)^+
    plus_target: list    # basis of sigma(e)(H^N)^-
    plus_matrix: Matrix  # coordinates of the map between those bases
    minus_domain: list
    minus_target: list
    minus_matrix: Matrix


def _matrix_rep(t: TwistedTriple, e, sigma_first: bool = False):
    """pi applied entrywise to a matrix over A (N x N blocks of size n)."""
    N = len(e)
    n = t.space.dim
    out = zeros(N * n, N * n)
    for bi in range(N):
        for bj in range(N):
            entry = t.sigma.apply(e[bi][bj]) if sigma_first else e[bi][bj]
            m = t.pi(entry)
            for i in range(n):
                for j in range(n):
                    if m[i][j]:
                        out[bi * n + i][bj * n + j] = m[i][j]
    return out


def d_nabla(t: TwistedTriple, e) -> ConnectionOperators:
    """D_nabla = sigma(e) (D (x) 1_N) restricted to e(H)^N, split by chirality."""
    N = len(e)
    n = t.space.dim
    pe = _matrix_rep(t, e)
    pse = _matrix_rep(t, e, sigma_first=True)
    DN = zeros(N * n, N * n)
    for b in range(N):
        for i in range(n):
            for j in range(n):
                if t.D[i][j]:
                    DN[b * n + i][b * n + j] = t.D[i][j]
    full = mat_mul(pse, DN)

    def graded_indices(sign: int):
        return [b * n + i for b in range(N) for i in range(n)
                if t.space.sign(i) == sign]

    def subspace_basis(proj: Matrix, sign: int):
        cols = [[proj[r][c] for r in range(N * n)] for c in graded_indices(sign)]
        if not cols:
            return []
        as_matrix = [[col[r] for col in cols] for r in range(N * n)]
        return column_space_basis(as_matrix)

    def restricted(domain, target):
        if not domain:
            return []
        rows = []
        for v in domain:
            w = [sum((full[r][s] * v[s] for s in range(N * n) if v[s]), start=Scalar(0))
                 for r in range(N * n)]
            coords = solve_in_span(target, w)
            if coords is None:
                raise ValidationError("D_nabla image escapes sigma(e)H^N")
            rows.append(coords)
        # rows are images per domain vector; transpose to a matrix
        if not target:
            return [[] for _ in range(0)]
        return [[rows[j][i] for j in range(len(domain))] for i in range(len(target))]

    dom_p = subspace_basis(pe, 1)
    tgt_p = subspace_basis(pse, -1)
    dom_m = subspace_basis(pe, -1)
    tgt_m = subspace_basis(pse, 1)
    return ConnectionOperators(dom_p, tgt_p, restricted(dom_p, tgt_p),
                               dom_m, tgt_m, restricted(dom_m, tgt_m))


@dataclass(frozen=True)
class IndexValue:
    """Half-integer index; denominator is 1 or 2 by construction."""

    value: Fraction

    def __post_init__(self):
        if self.value.denominator not in (1, 2):
            raise ValidationError("index must be a half integer")

    def is_integer(self) -> bool:
        return self.value.denominator == 1


def _fredholm_index(matrix: Matrix, dom_dim: int, tgt_dim: int) -> int:
    if dom_dim == 0:
        return -tgt_dim
    if tgt_dim == 0:
        return dom_dim
    rank = len(column_space_basis(matrix)) if matrix and matrix[0] else 0
    return (dom_dim - rank) - (tgt_dim - rank)


def index(t: TwistedTriple, e) -> IndexValue:
    """ind D_nabla = (ind+ - ind-)/2 with ind+- = dim ker - dim coker."""
    ops = d_nabla(t, e)
    ip = _fredholm_index(ops.plus_matrix, len(ops.plus_domain), len(ops.plus_target))
    im = _fredholm_index(ops.minus_matrix, len(ops.minus_domain), len(ops.minus_target))
    return IndexValue(Fraction(ip - im, 2))


def verify_index_pairing(t: TwistedTriple, e, q: int):
    """Residual <tau_bar_2q, Ch(e)> - ind D_nabla; zero on the shipped suite."""
    pairing_value = tau_bar_chern_pairing(t, q, e)
    ind = index(t, e)
    residual = pairing_value - Scalar(ind.value)
    return residual, pairing_value, ind

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochern.algebra import ValidationError
from cyclochern.chains import (
    chern_pairing,
    cochain_is_normalized,
    co_b,
    co_T,
    connes_B,
    trace_powers_chain,
)
from cyclochern.linalg import mat, mat_inverse, mat_mul
from cyclochern.scalars import Scalar
from cyclochern.spectral import (
    GradedSpace,
    SingularOperatorError,
    TwistedTriple,
    conformal_deform,
    conjugated_cochain,
    d_nabla,
    index,
    invertible_double,
    tau_bar,
    tau_bar_chern_pairing,
    tau_bar_pair_chain,
    tau_coefficient,
    transgression_coefficient,
    unitary_conjugate,
    verify_index_pairing,
)
from cyclochern.suite import asym_triple, micro_triple, scalar_triple, z2_swap_scenario


@pytest.fixture(scope="module")
def micro():
    return micro_triple()[0]


@pytest.fixture(scope="module")
def asym():
    return asym_triple()


@pytest.fixture(scope="module")
def deformed(micro):
    return conformal_deform(micro, micro.algebra.function_element([2, 3]))[0]


def test_coefficients_literal():
    assert tau_coefficient(0) == Scalar(Fraction(1, 2))
    assert tau_coefficient(1) == Scalar(Fraction(-1, 4))
    assert tau_coefficient(2) == Scalar(Fraction(1, 24))
    # transgression constant, frozen: (-1)^{q+1} q! / (4 (2q+1)!)
    assert transgression_coefficient(0) == Scalar(Fraction(-1, 4))
    assert transgression_coefficient(1) == Scalar(Fraction(1, 24))
    assert transgression_coefficient(2) == Scalar(Fraction(-1, 240))


def test_twisted_commutator_leibniz(micro):
    rng = random.Random(5)
    cpa = micro.algebra
    for _ in range(30):
        a = cpa.element({rng.randrange(4): Scalar(rng.randint(-3, 3), rng.randint(0, 2))})
        b = cpa.element({rng.randrange(4): Scalar(rng.randint(-3, 3))})
        lhs = micro.twisted_commutator(a * b)
        rhs_parts = mat_mul(micro.twisted_commutator(a), micro.pi(b))
        rhs2 = mat_mul(micro.pi(micro.sigma.apply(a)), micro.twisted_commutator(b))
        rhs = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(rhs_parts, rhs2)]
        assert lhs == rhs
    # [D, 1]_sigma = 0
    assert all(not v for row in micro.twisted_commutator(cpa.one()) for v in row)


def test_sigma_id_reduces_to_plain_commutator():
    t = asym_triple()
    rng = random.Random(7)
    a = t.algebra.element({0: Scalar(2), 1: Scalar(-1)})
    comm = t.twisted_commutator(a)
    pa = t.pi(a)
    plain = [[sum((t.D[i][k] * pa[k][j] - pa[i][k] * t.D[k][j] for k in range(6)),
                  start=Scalar(0)) for j in range(6)] for i in range(6)]
    assert comm == plain


def test_tau_cyclic_cocycle_normalized(micro):
    for q in (0, 1, 2):
        tau = micro.tau(q)
        assert co_b(tau).is_zero()
        assert co_T(tau) == tau
    assert cochain_is_normalized(micro.tau(1))


def test_tau_requires_invertible():
    cpa = z2_swap_scenario()
    space = GradedSpace(2, 2)
    rep = micro_triple()[0].rep
    D0 = mat([[0] * 4 for _ in range(4)])
    t = TwistedTriple(cpa, space, rep, D0)
    with pytest.raises(SingularOperatorError):
        t.tau(1)
    # but the double always works
    dbl = invertible_double(t)
    assert dbl.is_invertible()


def test_transgression_identities(micro, asym):
    for t in (micro, asym):
        taus = {q: t.tau(q) for q in (0, 1, 2)}
        for q in (0, 1):
            phi, psi = t.transgression(q)
            diff = phi - psi
            assert (co_b(diff) - taus[q + 1]).is_zero()
            assert (connes_B(diff) + taus[q]).is_zero()


def test_transgression_trivial_for_scalars():
    t = scalar_triple()
    phi, psi = t.transgression(0)
    # A = scalars: [D, a] = 0 for sigma = id, so everything degenerates
    assert co_b(phi - psi) == t.tau(1)


def test_double_squares(micro):
    dbl = invertible_double(micro)
    D2 = mat_mul(dbl.D, dbl.D)
    # eigen-block structure: D~^2 - 1 is the doubled D^2
    n = micro.space.dim
    for i in range(2 * n):
        assert D2[i][i] != Scalar(0)  # strictly positive diagonal-ish sanity


def test_tau_bar_restriction_not_normalized(asym):
    tb = tau_bar(asym, 1)
    # the restriction through the double is generally not normalized
    assert not cochain_is_normalized(tb)
    # but it is a cyclic cocycle
    assert co_b(tb).is_zero()
    assert co_T(tb) == tb


def test_tau_bar_pairing_matches_tau_for_invertible(micro):
    e = [[micro.algebra.delta_u(0, 0)]]
    for q in (1, 2):
        assert tau_bar_chern_pairing(micro, q, e) == chern_pairing(micro.tau(q), e)


def test_conformal_deform_transport(micro):
    cpa = micro.algebra
    k_root = cpa.function_element([2, 3])
    deformed, k, k_inv = conformal_deform(micro, k_root)
    for q in (0, 1):
        assert deformed.tau(q) == conjugated_cochain(micro.tau(q), k, k_inv)
    # k = 1 is the identity deformation
    same, _, _ = conformal_deform(micro, cpa.one())
    assert same.D == micro.D
    for q in (0, 1):
        assert same.tau(q) == micro.tau(q)


def test_conformal_deform_rejects_singular(micro):
    cpa = micro.algebra
    with pytest.raises(ValidationError):
        conformal_deform(micro, cpa.delta_u(0, 0))  # not invertible in A


def test_unitary_conjugation(micro):
    c, s = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
    z, o = Scalar(0), Scalar(1)
    U = [[c, -s, z, z], [s, c, z, z], [z, z, o, z], [z, z, z, o]]
    conj = unitary_conjugate(micro, U)
    for q in (0, 1, 2):
        assert conj.tau(q) == micro.tau(q)
    with pytest.raises(ValidationError):
        unitary_conjugate(micro, [[o, o, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]])


def test_d_nabla_shape_and_identity(asym):
    # e = 1: D_nabla = D, index 0 for invertible D
    e = [[asym.algebra.one()]]
    ops = d_nabla(asym, e)
    assert len(ops.plus_domain) == 3 and len(ops.plus_target) == 3
    assert index(asym, e).value == 0


def test_designed_asymmetric_index(asym):
    e = [[asym.algebra.delta_u(0, 0)]]
    ind = index(asym, e)
    assert ind.value == 1
    assert ind.is_integer()
    for q in (1, 2):
        resid, pairing_value, ind2 = verify_index_pairing(asym, e, q)
        assert not resid
        assert pairing_value == Scalar(1)


def test_index_additivity(asym):
    cpa = asym.algebra
    e = cpa.delta_u(0, 0)
    z = cpa.zero()
    e2 = [[e, z], [z, e]]
    assert index(asym, e2).value == 2


def test_grassmannian_matrix_identity(micro):
    # the block map equals sigma(e)(D (x) 1_N) restricted to e H^N
    cpa = micro.algebra
    e = [[cpa.delta_u(0, 0)]]
    ops = d_nabla(micro, e)
    # domain/target dims match the ranks of pi(e) on each chirality
    assert len(ops.plus_domain) == 1 and len(ops.minus_domain) == 1


def test_ribbon_scenarios_integer_index(micro, asym):
    # sigma admits a square root on the shipped suite; indices are integers
    for t, e in ((micro, [[micro.algebra.delta_u(0, 0)]]),
                 (asym, [[asym.algebra.delta_u(0, 0)]]),
                 (micro, [[micro.algebra.one()]])):
        assert index(t, e).is_integer()


def _gaussian_element(algebra, data):
    """An element with at most two basis terms and small Gaussian-integer coefficients."""
    coeff = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    terms = data.draw(st.dictionaries(st.integers(0, algebra.dim - 1), coeff, max_size=2))
    return algebra.element({i: c for i, c in terms.items() if c})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_chern_pairing_multilinear_matches_tuple_route(micro, asym, deformed, data):
    """Str of the block matrix power equals the pairing of tau_bar with the
    expanded chain tr[e^{(x)(2q+1)}], for any N x N matrix e over A."""
    t = data.draw(st.sampled_from([micro, asym, deformed]))
    n = data.draw(st.integers(1, 2))
    q = data.draw(st.integers(0, 2))
    e = [[_gaussian_element(t.algebra, data) for _ in range(n)] for _ in range(n)]
    coeff = Scalar(Fraction((-1) ** q * factorial(2 * q), factorial(q)))
    chain = trace_powers_chain(t.algebra, e, 2 * q)
    assert tau_bar_chern_pairing(t, q, e) == coeff * tau_bar_pair_chain(t, q, chain)


def _str_table(signs, w, q):
    """{tuple: c_q Str(W_t0 ... W_tm)} over all tuples of length 2q+1, nonzero only."""
    prods = {(i,): m for i, m in enumerate(w)}
    for length in range(2, 2 * q + 2):
        for tup in product(range(len(w)), repeat=length):
            prods[tup] = mat_mul(prods[tup[:-1]], w[tup[-1]])
    out = {}
    for tup in product(range(len(w)), repeat=2 * q + 1):
        p = prods[tup]
        v = tau_coefficient(q) * sum((g * p[r][r] for r, g in enumerate(signs)),
                                     start=Scalar(0))
        if v:
            out[tup] = v
    return out


def test_tau_and_tau_bar_match_plain_products(micro, asym, deformed):
    """Every value of tau(q) and tau_bar(t, q), q <= 2, equals c_q Str(W_t0 ... W_tm)
    with W_i = D^{-1}[D, b_i]_sigma formed and multiplied by mat_mul alone; the
    double's W_i run over the basis of A only."""
    for t in (micro, asym, deformed):
        for tri in (t, invertible_double(t)):
            dinv = mat_inverse(tri.D)
            w = [mat_mul(dinv, tri.twisted_commutator(tri.algebra.basis_element(i)))
                 for i in range(t.algebra.dim)]
            signs = [tri.space.sign(i) for i in range(tri.space.dim)]
            for q in (0, 1, 2):
                got = t.tau(q) if tri is t else tau_bar(t, q)
                assert got.values == _str_table(signs, w, q)

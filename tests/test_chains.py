import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochern.chains import (
    BlockMismatchError,
    Chain,
    Cochain,
    DomainDegreeError,
    antisymmetrize,
    chern_character,
    chi_phi,
    chi_tilde,
    co_B0,
    co_S,
    co_b,
    co_T,
    connes_B,
    cyclic_T,
    g_normalize,
    hochschild_b,
    lambda_phi,
    mu_phi,
    normalized_project,
    op_A,
    op_B0,
    pair,
    pairing,
    periodicity_S,
    PeriodicChain,
    PeriodicCochain,
    psi_star,
    random_sparse_chain,
    s_prefactor,
    theta,
    trace_powers_chain,
    twisted_B,
    twisted_b,
)
from cyclochern.scalars import ONE, Scalar
from cyclochern.suite import s3_scenario, z2_swap_scenario, z3_rotation_scenario
from cyclochern.verify import _is_cyclic_coboundary


@pytest.fixture(scope="module")
def swap():
    return z2_swap_scenario()


@pytest.fixture(scope="module")
def z3rot():
    return z3_rotation_scenario()


@pytest.fixture(scope="module")
def s3():
    return s3_scenario()


def basis_chain(cpa, *idxs):
    return Chain(cpa, len(idxs) - 1, {tuple(idxs): ONE})


def test_b_on_degree_one(swap):
    # b(a0 (x) a1) = a0 a1 - a1 a0
    i, j = swap.basis_index(0, 1), swap.basis_index(1, 1)
    eta = basis_chain(swap, i, j)
    prod_ij = swap.basis_element(i) * swap.basis_element(j)
    prod_ji = swap.basis_element(j) * swap.basis_element(i)
    expect = Chain(swap, 0, {(k,): c for k, c in (prod_ij - prod_ji).coeffs.items()})
    assert hochschild_b(eta) == expect


def test_b_degree_zero_raises(swap):
    with pytest.raises(DomainDegreeError):
        hochschild_b(basis_chain(swap, 0))


def test_T_sign(swap):
    eta = basis_chain(swap, 1, 2)
    assert cyclic_T(eta) == Chain(swap, 1, {(2, 1): -ONE})


def test_B_on_degree_zero(swap):
    # with T(a (x) b) = -b (x) a, B = (1-T) B0 A gives 1 (x) a + a (x) 1
    i = swap.basis_index(0, 1)
    eta = basis_chain(swap, i)
    out = connes_B(eta)
    expect = {}
    for u, cu in swap.unit.items():
        expect[(u, i)] = cu
        expect[(i, u)] = cu
    assert out == Chain(swap, 1, expect)


def test_identities_random(swap, s3):
    rng = random.Random(9)
    for cpa in (swap, s3):
        for degree in range(1, 6):
            eta = random_sparse_chain(cpa, degree, rng, 4)
            if degree >= 2:
                assert hochschild_b(hochschild_b(eta)).is_zero()
            assert connes_B(connes_B(eta)).is_zero()
            assert (hochschild_b(connes_B(eta)) + connes_B(hochschild_b(eta))).is_zero()
            cur = eta
            for _ in range(degree + 1):
                cur = cyclic_T(cur)
            assert cur == eta
            assert op_A(eta - cyclic_T(eta)).is_zero()


def test_S_prefactor_and_zero(swap):
    assert s_prefactor(3) == Fraction(1, 6)
    assert periodicity_S(Chain(swap, 4)).is_zero()
    with pytest.raises(DomainDegreeError):
        periodicity_S(basis_chain(swap, 0, 1))


def _draw_terms(data, dim: int, length: int, max_size: int) -> dict:
    tuples = st.tuples(*[st.integers(0, dim - 1)] * length)
    scalars = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    return data.draw(st.dictionaries(tuples, scalars, max_size=max_size))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_S_transposes(swap, z3rot, data):
    """co_b, co_B0 and co_S evaluated on a chain's support equal their full
    tables there, and pair with the chain as b, B0 and S do."""
    cpa = data.draw(st.sampled_from([swap, z3rot]))
    m = data.draw(st.integers(0, 2 if cpa.dim <= 4 else 1))
    phi = Cochain(cpa, m, _draw_terms(data, cpa.dim, m + 1, 12))
    ops = [(co_b, hochschild_b, m + 1), (co_S, periodicity_S, m + 2)]
    if m >= 1:
        ops.append((co_B0, op_B0, m - 1))
    for co_op, op, degree in ops:
        eta = Chain(cpa, degree, _draw_terms(data, cpa.dim, degree + 1, 4))
        full = co_op(phi)
        on_support = co_op(phi, eta.terms)
        assert on_support.values == {t: v for t, v in full.values.items() if t in eta.terms}
        assert pair(on_support, eta) == pair(full, eta) == pair(phi, op(eta))


def test_theta_formula(swap):
    # theta(f0 u_phi (x) f1 u_psi) = f0 (x) (f1 o phi^{-1}) u_{phi psi}
    eta = basis_chain(swap, swap.basis_index(0, 1), swap.basis_index(0, 1))
    out = theta(eta)
    expect = basis_chain(swap, swap.basis_index(0, 0), swap.basis_index(1, 0))
    assert out == expect
    # fixed point of theta: already inhomogeneous
    eta2 = basis_chain(swap, swap.basis_index(0, 0), swap.basis_index(1, 1))
    assert theta(eta2) == eta2


def test_g_normalize_properties(swap, s3):
    rng = random.Random(13)
    for cpa in (swap, s3):
        for degree in (1, 2, 3):
            eta = random_sparse_chain(cpa, degree, rng, 4)
            assert g_normalize(eta - theta(eta)).is_zero()
            psi = rng.randrange(cpa.group.order)
            assert g_normalize(psi_star(psi, eta) - eta).is_zero()
            assert g_normalize(Chain(cpa, degree)).is_zero()
            assert g_normalize(g_normalize(eta)) == g_normalize(eta)


def test_twisted_ops_examples(swap):
    pa = swap.point_algebra
    act = swap.action
    # b_phi(f0 (x) f1) = f0 f1 - (f1 o phi) f0 on indicator functions
    eta = Chain(pa, 1, {(0, 1): ONE})
    out = twisted_b(act, 1, eta)
    # delta_a delta_b = 0; (delta_b o s) delta_a = delta_a
    assert out == Chain(pa, 0, {(0,): -ONE})
    # phi = id recovers the untwisted boundary
    rng = random.Random(17)
    for _ in range(20):
        eta = random_sparse_chain(pa, 2, rng, 3)
        assert twisted_b(act, 0, eta) == hochschild_b(eta)
    # identities on invariant chains
    for phi in (0, 1):
        for _ in range(10):
            eta = lambda_phi(swap, phi, random_sparse_chain(pa, 2, rng, 3))
            assert (twisted_b(act, phi, twisted_B(act, phi, eta))
                    + twisted_B(act, phi, twisted_b(act, phi, eta))).is_zero()


def test_chi_mu_inverse_pair(swap, s3):
    rng = random.Random(19)
    for cpa in (swap, s3):
        pa = cpa.point_algebra
        for cls in cpa.conjugacy.classes:
            phi = cls[0]
            for degree in (1, 2):
                eta = random_sparse_chain(pa, degree, rng, 3)
                lam = lambda_phi(cpa, phi, eta)
                assert mu_phi(cpa, phi, chi_tilde(cpa, phi, lam)) == lam
                x = chi_tilde(cpa, phi, eta)
                assert g_normalize(chi_tilde(cpa, phi, mu_phi(cpa, phi, x))) == g_normalize(x)


def test_chi_id_example(swap):
    pa = swap.point_algebra
    eta = Chain(pa, 1, {(0, 1): ONE})
    out = chi_phi(swap, swap.group.id, eta)
    expected = g_normalize(chi_tilde(swap, swap.group.id, eta))
    assert out == expected


def test_mu_rejects_wrong_block(swap):
    x = basis_chain(swap, swap.basis_index(0, 1), swap.basis_index(0, 0))  # block <s>
    with pytest.raises(BlockMismatchError):
        mu_phi(swap, swap.group.id, x)


def test_twisted_rejects_bad_phi(swap):
    pa = swap.point_algebra
    eta = Chain(pa, 1, {(0, 1): ONE})
    from cyclochern.groups import StructureError
    with pytest.raises(StructureError):
        twisted_b(swap.action, 5, eta)


def test_antisymmetrize(swap):
    pa = swap.point_algebra
    f0, f1, f2 = pa.basis_element(0), pa.basis_element(1), pa.basis_element(0)
    # m = 1: beta(f0, f1) = f0 (x) f1
    assert antisymmetrize(f0, f1) == Chain(pa, 1, {(0, 1): ONE})
    # m = 2: f0 (x) f1 (x) f2 - f0 (x) f2 (x) f1
    out = antisymmetrize(f0, f1, f2)
    assert out == Chain(pa, 2, {(0, 1, 0): ONE, (0, 0, 1): -ONE})
    # swapping two inputs negates the output
    assert antisymmetrize(f0, f2, f1) == out.scale(-1)
    with pytest.raises(DomainDegreeError):
        antisymmetrize(f0, *([f1] * 7))


def test_normalized_projection(swap):
    rng = random.Random(23)
    one_items = list(swap.unit.items())
    for degree in (1, 2):
        eta = random_sparse_chain(swap, degree, rng, 4)
        # inserting the unit into a slot >= 1 is killed
        ins = Chain(swap, degree + 1, {})
        for t, c in eta.terms.items():
            for u, cu in one_items:
                ins = ins + Chain(swap, degree + 1, {t[:1] + (u,) + t[1:]: c * cu})
        assert normalized_project(ins).is_zero()
        assert normalized_project(normalized_project(eta)) == normalized_project(eta)


def test_chern_character_basics(swap):
    e = [[swap.delta_u(0, 0)]]
    ch = chern_character(e, 2)
    assert ch.parity == 0
    assert ch.components[0] == Chain(swap, 0, {(swap.basis_index(0, 0),): ONE})
    # Ch_2 = -2 (e - 1/2) (x) e (x) e; for e = delta_a u_id this expands to
    # -2[(1/2) delta_a - (1/2) delta_b] (x) e (x) e: coefficients -1 and +1
    i_a, i_b = swap.basis_index(0, 0), swap.basis_index(1, 0)
    assert ch.components[1] == Chain(swap, 2, {
        (i_a, i_a, i_a): Scalar(-1),
        (i_b, i_a, i_a): Scalar(1),
    })
    # (b+B) Ch = 0 in the normalized quotient
    for q in range(2):
        resid = normalized_project(connes_B(ch.components[q])
                                   + hochschild_b(ch.components[q + 1]))
        assert resid.is_zero()


def test_chern_rejects_non_idempotent(swap):
    from cyclochern.algebra import ValidationError
    bad = [[swap.delta_u(0, 1)]]
    with pytest.raises(ValidationError) as err:
        chern_character(bad, 1)
    assert hasattr(err.value, "residual")


def test_pairing_parity_and_shortcut(swap):
    rng = random.Random(29)
    e = [[swap.delta_u(0, 0)]]
    # shortcut equals componentwise pairing for a random *cyclic* cocycle
    # (build one by symmetrizing then projecting to cocycles is heavy; use
    # the normalized tau cocycles in the spectral tests instead -- here we
    # check parity handling and linearity of the raw pairing)
    chain0 = PeriodicChain(0, 1, [random_sparse_chain(swap, 0, rng, 2),
                                  random_sparse_chain(swap, 2, rng, 2)])
    cochain1 = PeriodicCochain(1, 0, [Cochain(swap, 1, {})])
    with pytest.raises(DomainDegreeError):
        pairing(cochain1, chain0)
    zero_pairing = pairing(PeriodicCochain(0, 1, [Cochain(swap, 0, {}), Cochain(swap, 2, {})]),
                           chain0)
    assert not zero_pairing


def test_trace_powers_chain(swap):
    e = [[swap.delta_u(0, 0)]]
    tp = trace_powers_chain(swap, e, 2)
    i = swap.basis_index(0, 0)
    assert tp == Chain(swap, 2, {(i, i, i): ONE})


def test_B_simplification_on_normalized(swap):
    """On normalized cochains B = A B0 exactly; on chains B = B0 A mod N.

    (The B0(1-T) shorthand only coincides in degrees where A acts trivially.)
    """
    import itertools
    from cyclochern.chains import co_A, co_B0, cochain_is_normalized

    rng = random.Random(41)

    def co_normalize(phi):
        out = {}
        for t in itertools.product(range(swap.dim), repeat=phi.degree + 1):
            v = pair(phi, normalized_project(Chain(swap, phi.degree, {t: Scalar(1)})))
            if v:
                out[t] = v
        return Cochain(swap, phi.degree, out)

    for deg in (1, 2):
        raw = Cochain(swap, deg,
                      {t: Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
                       for t in itertools.product(range(4), repeat=deg + 1)})
        phi = co_normalize(raw)
        assert cochain_is_normalized(phi)
        assert connes_B(phi) == co_A(co_B0(phi))
        eta = random_sparse_chain(swap, deg, rng, 4)
        assert normalized_project(connes_B(eta)) == normalized_project(op_B0(op_A(eta)))


def test_chern_of_unit_normalizes_away(swap):
    ch = chern_character([[swap.one()]], 2)
    assert ch.components[0] == Chain(swap, 0, dict(
        ((u,), c) for u, c in swap.unit.items()))
    for q in (1, 2):
        assert normalized_project(ch.components[q]).is_zero()


def test_boundary_pairing_vanishes_on_chern_cycle(swap):
    # <(b+B) psi, Ch(e)> = 0 for normalized psi, since Ch(e) is a cycle in
    # the normalized quotient and normalized cochains kill N
    import itertools
    from cyclochern.chains import co_b, cochain_is_normalized

    rng = random.Random(43)

    def co_normalize(phi):
        out = {}
        for t in itertools.product(range(swap.dim), repeat=phi.degree + 1):
            v = pair(phi, normalized_project(Chain(swap, phi.degree, {t: Scalar(1)})))
            if v:
                out[t] = v
        return Cochain(swap, phi.degree, out)

    e = [[swap.delta_u(0, 0)]]
    ch = chern_character(e, 2)
    psi1 = co_normalize(Cochain(swap, 1,
                                {t: Scalar(rng.randint(-2, 2))
                                 for t in itertools.product(range(4), repeat=2)}))
    assert cochain_is_normalized(psi1)
    total = pair(co_b(psi1), ch.components[1]) + pair(connes_B(psi1), ch.components[0])
    assert not total


def test_g_normalized_cochain_conditions(swap):
    from cyclochern.chains import co_g_normalize, cochain_is_g_normalized

    rng = random.Random(31)
    for degree in (1, 2):
        raw = Cochain(swap, degree,
                      {t: Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
                       for t in __import__("itertools").product(range(swap.dim),
                                                                repeat=degree + 1)})
        proj = co_g_normalize(raw)
        # the dual projection lands in the G-normalized cochains and fixes them
        assert cochain_is_g_normalized(proj)
        assert co_g_normalize(proj) == proj
        # ... and annihilates the complement: raw - proj projects to zero
        assert co_g_normalize(raw - proj).is_zero()
        # b and B preserve the G-normalized subspace
        assert cochain_is_g_normalized(co_b(proj))
        assert cochain_is_g_normalized(connes_B(proj))


def test_cross_block_pairings_vanish(swap):
    rng = random.Random(37)
    # cochain supported in the block of the swap, chain in the identity block
    t_swap = (swap.basis_index(0, 1), swap.basis_index(0, 0))
    t_id = (swap.basis_index(0, 0), swap.basis_index(1, 0))
    phi = Cochain(swap, 1, {t_swap: Scalar(3)})
    eta = Chain(swap, 1, {t_id: Scalar(5)})
    assert not pair(phi, eta)
    assert not pair(phi, g_normalize(eta))


def test_S_class_level_on_cyclic_cocycles():
    # the homologically meaningful S checks live on the supertrace cocycles
    from cyclochern.suite import asym_triple
    t = asym_triple()
    tau0, tau2 = t.tau(0), t.tau(1)
    s0 = co_S(tau0)
    assert co_T(s0) == s0 and co_b(s0).is_zero()
    assert _is_cyclic_coboundary(t.algebra, s0 - tau2)

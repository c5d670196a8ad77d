import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochern.algebra import MatrixAlgebra
from cyclochern.chains import (
    Chain,
    chi_tilde,
    connes_B,
    hochschild_b,
    mu_phi,
    twisted_B,
    twisted_b,
)
from cyclochern.homology import (
    FullFlavor,
    GNormalizedFlavor,
    SizeCapError,
    TwistedFlavor,
    assemble,
    bn_predict,
    flavor_hp,
    full_route_allowed,
    homology_dims,
    hp_report,
    verify_pi_star,
)
from cyclochern.scalars import ONE, Scalar
from cyclochern.suite import (
    s3_scenario,
    trivial_point_scenario,
    z2_swap_scenario,
    z2_trivial_point_scenario,
    z2z2_scenario,
    z3_rotation_scenario,
)


def test_hp_of_ground_field():
    flavor = FullFlavor(trivial_point_scenario())
    assert flavor_hp(flavor, 0, 0) == (1, 1, True)
    assert flavor_hp(flavor, 1, 0) == (0, 0, True)


def test_morita_oracle_matrix_algebra():
    # HP of M_2(C) computed by the same engine equals HP of C, and matches
    # the swap crossed product (which is isomorphic to M_2).
    m2 = FullFlavor(MatrixAlgebra(2))
    assert flavor_hp(m2, 0, 1)[0] == 1
    assert flavor_hp(m2, 1, 0)[0] == 0
    swap_total = hp_report(z2_swap_scenario(), "full", 0, 1).total_computed
    assert swap_total == 1


def test_group_algebra_z2():
    rep = hp_report(z2_trivial_point_scenario(), "full", 0, 1)
    assert rep.total_computed == 2
    assert rep.matches_prediction


def test_bn_predictions():
    assert sum(bn_predict(z2_swap_scenario()).values()) == 1
    assert sum(bn_predict(z2_trivial_point_scenario()).values()) == 2
    assert sum(bn_predict(z3_rotation_scenario()).values()) == 1
    assert sum(bn_predict(s3_scenario()).values()) == 2
    assert sum(bn_predict(z2z2_scenario()).values()) == 4
    # parity 1 predictions vanish
    assert sum(bn_predict(s3_scenario(), parity=1).values()) == 0


def test_chain_space_dimensions():
    cpa = z2_swap_scenario()
    full = FullFlavor(cpa)
    assert len(full.space(2)) == 4 ** 3
    tw = TwistedFlavor(cpa, 1)
    assert len(tw.space(1)) <= 2 ** 2  # orbit count cannot exceed tuple count


def test_assemble_verifies_d_squared():
    cpa = z2_swap_scenario()
    tc = assemble(FullFlavor(cpa), 0, 1)
    assert tc.top_degree == 2
    assert homology_dims(tc) >= 0


def test_twisted_equals_gnormalized_per_block():
    cpa = s3_scenario()
    for c, cls in enumerate(cpa.conjugacy.classes):
        phi = cls[0]
        tw = flavor_hp(TwistedFlavor(cpa, phi), 0, 1)
        gn = flavor_hp(GNormalizedFlavor(cpa, phi), 0, 1)
        assert tw[0] == gn[0]
        assert tw[2] and gn[2]


def test_pi_star_isomorphism_small():
    for ctor in (z2_swap_scenario, z2_trivial_point_scenario):
        agree, full, gnorm = verify_pi_star(ctor(), 0, 1)
        assert agree
        agree1, _, _ = verify_pi_star(ctor(), 1, 0)
        assert agree1


def test_pi_star_z3_with_raised_cap():
    # the Z3 regular scenario exceeds the default full-route cap; at the
    # smallest truncation the full flavor is still feasible per block and
    # must agree with the G-normalized quotient
    cpa = z3_rotation_scenario()
    agree, full, gnorm = verify_pi_star(cpa, 0, 0, dim_cap=20000)
    assert agree
    assert full.all_stable and gnorm.all_stable
    assert full.total_computed == 1


def test_size_cap_error_names_dimension():
    cpa = s3_scenario()
    flavor = FullFlavor(cpa, dim_cap=100)
    with pytest.raises(SizeCapError) as err:
        flavor.space(3)
    assert "dimension" in str(err.value)


def test_full_route_cap():
    assert full_route_allowed(z2_swap_scenario())
    assert not full_route_allowed(s3_scenario())


@pytest.fixture(scope="module")
def small_scenarios():
    return [z2_swap_scenario(), z3_rotation_scenario()]


def _orbit_rep(cpa, phi, t):
    return min(tuple(cpa.action.apply(psi, x) for x in t)
               for psi in cpa.conjugacy.stabilizer[phi])


def _at_reps(cpa, phi, terms):
    return {t: c for t, c in terms.items() if t == _orbit_rep(cpa, phi, t)}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mu_on_orbit_table_is_averaged_chain_at_reps(small_scenarios, data):
    cpa = data.draw(st.sampled_from(small_scenarios))
    c = data.draw(st.integers(0, len(cpa.conjugacy.classes) - 1))
    phi = cpa.conjugacy.classes[c][0]
    m = data.draw(st.integers(0, 2 if cpa.dim <= 4 else 1))
    block = FullFlavor(cpa, block=c).space(m)
    parts = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    terms = data.draw(st.dictionaries(st.sampled_from(block),
                                      st.builds(Scalar, parts, parts), max_size=6))
    x = Chain(cpa, m, terms)
    restricted = mu_phi(cpa, phi, x, TwistedFlavor(cpa, phi).orbits(m))
    assert restricted.terms == _at_reps(cpa, phi, mu_phi(cpa, phi, x).terms)


def _oracle_terms(cpa, kind, phi, m, key):
    """(b, B) of a basis vector by the full operators, read off at the
    representatives found by the minimum over the stabilizer."""
    if kind == "full":
        chain = Chain(cpa, m, {key: ONE})
        return (hochschild_b(chain).terms if m >= 1 else {}), connes_B(chain).terms
    orbit_sum = Chain(cpa.point_algebra, m,
                      {tuple(cpa.action.apply(psi, x) for x in key): ONE
                       for psi in cpa.conjugacy.stabilizer[phi]})
    if kind == "twisted":
        b = twisted_b(cpa.action, phi, orbit_sum).terms if m >= 1 else {}
        return _at_reps(cpa, phi, b), _at_reps(cpa, phi, twisted_B(cpa.action, phi, orbit_sum).terms)
    crossed = chi_tilde(cpa, phi, orbit_sum)
    b = mu_phi(cpa, phi, hochschild_b(crossed)).terms if m >= 1 else {}
    return _at_reps(cpa, phi, b), _at_reps(cpa, phi, mu_phi(cpa, phi, connes_B(crossed)).terms)


def _oracle_columns(flavor, cpa, kind, phi, level):
    """Columns of b+B on Tot_level, with B dropped on the top summand."""
    target, total = {}, 0
    for m in range(level - 1, -1, -2):
        target[m] = (total, {k: i for i, k in enumerate(flavor.space(m))})
        total += len(flavor.space(m))
    cols = []
    for m in range(level, -1, -2):
        for key in flavor.space(m):
            b, B = _oracle_terms(cpa, kind, phi, m, key)
            col = {}
            for deg, part in ((m - 1, b), (m + 1, B if m < level else {})):
                for t, c in part.items():
                    base, index = target[deg]
                    col[base + index[t]] = col.get(base + index[t], Scalar(0)) + c
            cols.append({r: v for r, v in col.items() if v})
    return cols


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_assembled_columns_match_full_operator_oracle(small_scenarios, data):
    cpa = data.draw(st.sampled_from(small_scenarios))
    c = data.draw(st.integers(0, len(cpa.conjugacy.classes) - 1))
    phi = cpa.conjugacy.classes[c][0]
    kinds = ["twisted", "g-normalized"] + (["full"] if full_route_allowed(cpa) else [])
    kind = data.draw(st.sampled_from(kinds))
    parity, q = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    flavor = {"full": lambda: FullFlavor(cpa, block=c),
              "twisted": lambda: TwistedFlavor(cpa, phi),
              "g-normalized": lambda: GNormalizedFlavor(cpa, phi)}[kind]()
    tc = assemble(flavor, parity, q)
    n = 2 * q + parity
    for level in (n, n + 1):
        assert tc.d_columns[level] == _oracle_columns(flavor, cpa, kind, phi, level)

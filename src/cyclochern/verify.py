"""Named verification suites over scenarios, triples, and geometries.

Each check returns a Check record; suites are lists of checks.  The CLI
`verify` command and the acceptance tests both run these, so a green CLI
run and a green test suite are the same statement.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CrossedProductAlgebra, sigma_from_cocycle, ValidationError
from .chains import (
    Chain,
    Cochain,
    chern_character,
    chi_tilde,
    co_S,
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
    periodicity_S,
    psi_star,
    psi_star_mj,
    random_sparse_chain,
    theta,
    twisted_B,
    twisted_b,
)
from .scalars import Scalar
from .spectral import (
    TwistedTriple,
    conformal_deform,
    conjugated_cochain,
    index,
    invertible_double,
    tau_bar_chern_pairing,
    tau_coefficient,
    unitary_conjugate,
    verify_index_pairing,
)
from .linalg import mat_eq, mat_mul, identity
from .scalars import ONE


@dataclass
class Check:
    name: str
    passed: bool
    residual: str = "0"
    details: str = ""

    def as_dict(self):
        out = {"name": self.name, "passed": bool(self.passed), "residual": self.residual}
        if self.details:
            out["details"] = self.details
        return out


def _all_zero(name, chains) -> Check:
    bad = [c for c in chains if not c.is_zero()]
    return Check(name, not bad, details=f"{len(bad)} nonzero" if bad else "")


def _is_cyclic_coboundary(algebra, target: Cochain) -> bool:
    """Exact solvability of b(x) = target over cyclic cochains x."""
    from itertools import product as iproduct
    from .chains import co_T, co_b
    from .linalg import _echelon

    deg = target.degree - 1
    cols, seen = [], set()
    for tt in iproduct(range(algebra.dim), repeat=deg + 1):
        if tt in seen:
            continue
        base = Cochain(algebra, deg, {tt: Scalar(1)})
        sym = base
        cur = base
        for _ in range(deg):
            cur = co_T(cur)
            sym = sym + cur
        seen |= set(sym.values)
        if sym.is_zero():
            continue
        cols.append(co_b(sym))
    rows = sorted(set(target.values) | set().union(*[set(c.values) for c in cols])
                  if cols else set(target.values))
    aug = [[c.values.get(r, Scalar(0)) for c in cols] + [target.values.get(r, Scalar(0))]
           for r in rows]
    pivots = _echelon(aug)
    return len(cols) not in pivots


# ---------------------------------------------------------------------------
# crossed-product suite


def crossed_suite(cpa: CrossedProductAlgebra, cocycle=None, seed: int = 0,
                  samples: int = 100) -> list[Check]:
    checks = []
    rng = random.Random(seed)
    d = cpa.dim

    if d <= 12:
        assoc = all(
            (cpa.basis_element(i) * cpa.basis_element(j)) * cpa.basis_element(k)
            == cpa.basis_element(i) * (cpa.basis_element(j) * cpa.basis_element(k))
            for i in range(d) for j in range(d) for k in range(d)
        )
        checks.append(Check("associativity on basis triples", assoc))

    def rand_elem():
        return cpa.element({rng.randrange(d): Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                                     Fraction(rng.randint(-2, 2), 2))
                            for _ in range(3)})

    one = cpa.one()
    unit_ok = invol_ok = prod_star_ok = True
    for _ in range(samples):
        a, b = rand_elem(), rand_elem()
        unit_ok &= (one * a == a) and (a * one == a)
        invol_ok &= a.involution().involution() == a
        prod_star_ok &= (a * b).involution() == b.involution() * a.involution()
    checks.append(Check("unit law", unit_ok))
    checks.append(Check("involution is an involution", invol_ok))
    checks.append(Check("(ab)* = b*a*", prod_star_ok))

    if cocycle is not None:
        sigma = sigma_from_cocycle(cpa, cocycle)
        sigma_inv = sigma_from_cocycle(cpa, cocycle.inverse())
        mult_ok = star_ok = inv_ok = True
        for _ in range(samples):
            a, b = rand_elem(), rand_elem()
            mult_ok &= sigma.apply(a * b) == sigma.apply(a) * sigma.apply(b)
            star_ok &= sigma.apply(a).involution() == sigma_inv.apply(a.involution())
            inv_ok &= sigma.apply(sigma_inv.apply(a)) == a
        checks.append(Check("sigma multiplicative", mult_ok))
        checks.append(Check("sigma(a)* = sigma^{-1}(a*)", star_ok))
        checks.append(Check("sigma(k) o sigma(k^{-1}) = id", inv_ok))
        try:
            root = cocycle.sqrt()
            tau = sigma_from_cocycle(cpa, root)
            tau_inv = sigma_from_cocycle(cpa, root.inverse())
            ribbon_ok = True
            for _ in range(samples // 2):
                a = rand_elem()
                ribbon_ok &= tau.apply(tau.apply(a)) == sigma.apply(a)
                ribbon_ok &= tau.apply(a).involution() == tau_inv.apply(a.involution())
            checks.append(Check("ribbon splitting tau o tau = sigma", ribbon_ok))
        except ValidationError:
            checks.append(Check("ribbon splitting (no rational sqrt)", True,
                                details="skipped: cocycle has no rational square root"))
    return checks


# ---------------------------------------------------------------------------
# cyclic-complex suite


def cyclic_suite(cpa: CrossedProductAlgebra, seed: int = 0, samples: int = 102,
                 max_degree: int = 6) -> list[Check]:
    checks = []
    rng = random.Random(seed)
    per_degree = max(1, samples // max_degree)

    b2, B2, anti, tpow, a1t, th2 = [], [], [], [], [], []
    for degree in range(1, max_degree + 1):
        for _ in range(per_degree):
            eta = random_sparse_chain(cpa, degree, rng, 4)
            if degree >= 2:
                b2.append(hochschild_b(hochschild_b(eta)))
            B2.append(connes_B(connes_B(eta)))
            anti.append(hochschild_b(connes_B(eta)) + connes_B(hochschild_b(eta)))
            cur = eta
            for _ in range(degree + 1):
                cur = cyclic_T(cur)
            tpow.append(cur - eta)
            a1t.append(op_A(eta - cyclic_T(eta)))
            th2.append(theta(theta(eta)) - theta(eta))
    checks.append(_all_zero("b^2 = 0", b2))
    checks.append(_all_zero("B^2 = 0", B2))
    checks.append(_all_zero("bB + Bb = 0", anti))
    checks.append(_all_zero("T^(m+1) = id", tpow))
    checks.append(_all_zero("A(1 - T) = 0", a1t))
    checks.append(_all_zero("theta^2 = theta", th2))

    # S: normalization constant and degenerate cases; the homological content
    # (S tau_2q cohomologous to tau_{2q+2}) is checked in the spectral suite.
    from .chains import s_prefactor
    checks.append(Check("S prefactor 1/(m(m-1)) = 1/6 at m = 3",
                        s_prefactor(3) == Fraction(1, 6)))
    checks.append(Check("S of the zero chain is zero",
                        periodicity_S(Chain(cpa, 4)).is_zero()))

    # G-normalization: N^G generators die, canonical representative is stable
    gn = []
    for degree in (1, 2, 3):
        for _ in range(6):
            eta = random_sparse_chain(cpa, degree, rng, 4)
            gn.append(g_normalize(eta - theta(eta)))
            psi = rng.randrange(cpa.group.order)
            gn.append(g_normalize(psi_star(psi, eta) - eta))
            j = rng.randrange(degree + 1)
            gn.append(g_normalize(psi_star_mj(psi, j, eta) - eta))
            gn.append(g_normalize(g_normalize(eta)) - g_normalize(eta))
    checks.append(_all_zero("g_normalize kills N^G and is idempotent", gn))

    # block preservation and cross-block pairing
    block_ok = True
    for degree in (1, 2):
        for _ in range(6):
            eta = random_sparse_chain(cpa, degree, rng, 4)
            for t0, c in g_normalize(eta).terms.items():
                src_blocks = {cpa.block_of_tuple(t) for t in eta.terms}
                block_ok &= cpa.block_of_tuple(t0) in src_blocks
    checks.append(Check("g_normalize preserves conjugacy blocks", block_ok))

    # chi/mu/Lambda and the twisted mixed complex, per conjugacy class
    chi_mu, intertwine, twisted_ids = [], [], []
    pa = cpa.point_algebra
    act = cpa.action
    for cls in cpa.conjugacy.classes:
        phi = cls[0]
        for degree in (1, 2):
            for _ in range(4):
                eta = random_sparse_chain(pa, degree, rng, 3)
                lam = lambda_phi(cpa, phi, eta)
                chi_mu.append(mu_phi(cpa, phi, chi_tilde(cpa, phi, lam)) - lam)
                x = chi_tilde(cpa, phi, eta)
                chi_mu.append(g_normalize(chi_tilde(cpa, phi, mu_phi(cpa, phi, x)))
                              - g_normalize(x))
                intertwine.append(g_normalize(hochschild_b(x))
                                  - g_normalize(chi_tilde(cpa, phi, twisted_b(act, phi, eta))))
                intertwine.append(g_normalize(connes_B(x))
                                  - g_normalize(chi_tilde(cpa, phi, twisted_B(act, phi, eta))))
                if degree >= 2:
                    twisted_ids.append(twisted_b(act, phi, twisted_b(act, phi, eta)))
                inv = lam
                twisted_ids.append(twisted_b(act, phi, twisted_B(act, phi, inv))
                                   + twisted_B(act, phi, twisted_b(act, phi, inv)))
    checks.append(_all_zero("mu o chi = id, chi o mu = id (mod N^G)", chi_mu))
    checks.append(_all_zero("chi intertwines (b_phi, B_phi) with (b, B)", intertwine))
    checks.append(_all_zero("twisted b^2 = 0, (b B + B b)_phi = 0 on invariants",
                            twisted_ids))

    # transposition: cochain operators are transposes of chain operators.
    # A pairing reads a cochain only on the chain's support, so co_b, co_B0
    # and co_S are evaluated there instead of on all dim^(m+k) tuples.
    transp_ok = True
    import itertools
    for degree in (1, 2):
        phi_vals = {}
        for t in itertools.product(range(cpa.dim), repeat=degree + 1):
            if rng.random() < 0.25:
                phi_vals[t] = Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1)))
        phi_c = Cochain(cpa, degree, phi_vals)
        eta_up = random_sparse_chain(cpa, degree + 1, rng, 4)
        eta_same = random_sparse_chain(cpa, degree, rng, 4)
        eta_down = random_sparse_chain(cpa, degree - 1, rng, 4) if degree >= 1 else None
        from .chains import co_b, co_T, co_A, co_B0
        transp_ok &= (pair(co_b(phi_c, eta_up.terms), eta_up)
                      == pair(phi_c, hochschild_b(eta_up)))
        transp_ok &= pair(co_T(phi_c), eta_same) == pair(phi_c, cyclic_T(eta_same))
        transp_ok &= pair(co_A(phi_c), eta_same) == pair(phi_c, op_A(eta_same))
        if eta_down is not None:
            transp_ok &= (pair(co_B0(phi_c, eta_down.terms), eta_down)
                          == pair(phi_c, op_B0(eta_down)))
            transp_ok &= pair(connes_B(phi_c), eta_down) == pair(phi_c, connes_B(eta_down))
        eta_S = random_sparse_chain(cpa, degree + 2, rng, 3)
        transp_ok &= (pair(co_S(phi_c, eta_S.terms), eta_S)
                      == pair(phi_c, periodicity_S(eta_S)))
    checks.append(Check("cochain operators transpose chain operators", transp_ok))
    return checks


def chern_suite(cpa: CrossedProductAlgebra, seed: int = 0, count: int = 10,
                q_max: int = 3) -> list[Check]:
    """(b+B)Ch(e) = 0 in the normalized quotient for conjugated idempotents."""
    rng = random.Random(seed)
    from .linalg import mat_inverse

    resids = []
    built = 0
    attempts = 0
    while built < count and attempts < count * 10:
        attempts += 1
        g = [[cpa.element({rng.randrange(cpa.dim): Scalar(rng.randint(1, 3))
                           for _ in range(2)}) for _ in range(2)] for _ in range(2)]
        lift = _matrix_over_algebra_to_matrix(cpa, g)
        try:
            lift_inv = mat_inverse(lift)
        except ZeroDivisionError:
            continue
        ginv = _matrix_to_matrix_over_algebra(cpa, lift_inv)
        diag = [[cpa.one(), cpa.zero()], [cpa.zero(), cpa.zero()]]
        from .chains import matrix_mul
        e = matrix_mul(matrix_mul(g, diag), ginv)
        ch = chern_character(e, q_max)
        for q in range(q_max):
            resid = normalized_project(connes_B(ch.components[q])
                                       + hochschild_b(ch.components[q + 1]))
            resids.append(resid)
        built += 1
    ok = built >= count and all(r.is_zero() for r in resids)
    return [Check(f"(b+B)Ch(e) = 0 in normalized quotient ({built} idempotents, q_max={q_max})",
                  ok)]


def _matrix_over_algebra_to_matrix(cpa, g):
    """Left regular representation of a matrix over A (for invertibility)."""
    d = cpa.dim
    n = len(g)
    out = [[Scalar(0)] * (n * d) for _ in range(n * d)]
    for bi in range(n):
        for bj in range(n):
            for j in range(d):
                col = g[bi][bj] * cpa.basis_element(j)
                for i, c in col.coeffs.items():
                    out[bi * d + i][bj * d + j] = c
    return out


def _matrix_to_matrix_over_algebra(cpa, m):
    d = cpa.dim
    n = len(m) // d
    one = cpa.one()
    out = []
    for bi in range(n):
        row = []
        for bj in range(n):
            coeffs = {}
            # image of the unit column of block (bi, bj)
            for j, cu in one.coeffs.items():
                for i in range(d):
                    v = m[bi * d + i][bj * d + j]
                    if v:
                        coeffs[i] = coeffs.get(i, Scalar(0)) + v * cu
            row.append(cpa.element({i: c for i, c in coeffs.items() if c}))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# spectral suite


def spectral_suite(triple: TwistedTriple, cocycle=None, q_range=(0, 1, 2, 3),
                   seed: int = 0) -> list[Check]:
    checks = []
    from .chains import co_b, co_T, cochain_is_normalized

    coeff_ok = (tau_coefficient(0) == Scalar(Fraction(1, 2))
                and tau_coefficient(1) == Scalar(Fraction(-1, 4))
                and tau_coefficient(2) == Scalar(Fraction(1, 24)))
    checks.append(Check("c_0 = 1/2, c_1 = -1/4, c_2 = 1/24", coeff_ok))

    taus = {}
    cocycle_ok = cyclic_ok = normalized_ok = True
    heavy = triple.algebra.dim ** (2 * max(q_range) + 2) > 300_000
    qs = [q for q in q_range if triple.algebra.dim ** (2 * q + 2) <= 300_000]
    for q in qs:
        taus[q] = triple.tau(q)
        cocycle_ok &= co_b(taus[q]).is_zero()
        cyclic_ok &= co_T(taus[q]) == taus[q]
        if q <= 1:
            normalized_ok &= cochain_is_normalized(taus[q])
    checks.append(Check(f"b tau_2q = 0 for q in {qs}", cocycle_ok))
    checks.append(Check(f"T tau_2q = tau_2q for q in {qs}", cyclic_ok))
    checks.append(Check("tau normalized (vanishes on unit slots)", normalized_ok))

    def tau_of(q):
        return taus[q] if q in taus else triple.tau(q)

    trans_ok = True
    for q in (0, 1):
        if q + 1 not in taus:
            continue
        phi_t, psi_t = triple.transgression(q)
        diff = phi_t - psi_t
        trans_ok &= (co_b(diff) - taus[q + 1]).is_zero()
        trans_ok &= (connes_B(diff) + taus[q]).is_zero()
    checks.append(Check("transgression: tau_{2q+2} = b(phi-psi), tau_2q = -B(phi-psi)",
                        trans_ok))

    # periodicity: S tau_0 is a cyclic cocycle cohomologous to tau_2
    if 0 in taus and 1 in taus and triple.algebra.dim ** 3 <= 4096:
        from .chains import co_S
        s_tau = co_S(taus[0])
        s_ok = co_T(s_tau) == s_tau and co_b(s_tau).is_zero()
        s_ok = s_ok and _is_cyclic_coboundary(triple.algebra, s_tau - taus[1])
        checks.append(Check("S tau_0 cyclic cocycle, S tau_0 ~ tau_2", s_ok))

    # invertible double sanity
    dbl = invertible_double(triple)
    D2 = mat_mul(dbl.D, dbl.D)
    n = triple.space.dim
    expect = [[(ONE if i == j else Scalar(0)) for j in range(2 * n)] for i in range(2 * n)]
    base = triple.D
    sq = mat_mul(base, base)
    ok_sq = True
    # D~^2 = (D^2 + 1) (+) (D^2 + 1) up to the grading reorder; verify by
    # comparing against the reordered direct sum.
    from .spectral import _double_reorder_matrix
    direct = _double_reorder_matrix(triple, sq)
    for i in range(2 * n):
        for j in range(2 * n):
            want = direct[i][j] + (ONE if i == j else Scalar(0))
            ok_sq &= D2[i][j] == want
    checks.append(Check("double: D~^2 = (D^2 + 1) (+) (D^2 + 1)", ok_sq))
    one_ok = mat_eq(dbl.pi(dbl.algebra.one()), identity(2 * n))
    sig_one = dbl.sigma.apply(dbl.algebra.one()) == dbl.algebra.one()
    checks.append(Check("double: pi(1~) = 1 and sigma~(1~) = 1~", one_ok and sig_one))

    # conformal deformation: exact cocycle transport
    cpa = triple.algebra
    if isinstance(cpa, CrossedProductAlgebra) and triple.is_invertible():
        k_root = cpa.function_element([i + 2 for i in range(cpa.n_points)])
        deformed, k, k_inv = conformal_deform(triple, k_root)
        transport_ok = True
        for q in (0, 1):
            transport_ok &= deformed.tau(q) == conjugated_cochain(tau_of(q), k, k_inv)
        checks.append(Check("conformal transport tau^{kDk} = tau^D(k . k^{-1})",
                            transport_ok))
        sig_ok = True
        rng = random.Random(seed)
        for _ in range(20):
            a = cpa.element({rng.randrange(cpa.dim): Scalar(rng.randint(1, 4))})
            b = cpa.element({rng.randrange(cpa.dim): Scalar(rng.randint(1, 4), 1)})
            sig_ok &= deformed.sigma.apply(a * b) == deformed.sigma.apply(a) * deformed.sigma.apply(b)
        checks.append(Check("sigma_hat is multiplicative", sig_ok))

    # unitary conjugation invariance
    if triple.space.dim_plus >= 2 and triple.space.dim_minus >= 2 and triple.is_invertible():
        c, s = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
        n = triple.space.dim
        U = [[Scalar(0)] * n for _ in range(n)]
        for base_idx in (0, triple.space.dim_plus):
            U[base_idx][base_idx] = c
            U[base_idx][base_idx + 1] = -s
            U[base_idx + 1][base_idx] = s
            U[base_idx + 1][base_idx + 1] = c
        for i in range(n):
            if not any(U[i][j] for j in range(n)):
                U[i][i] = ONE
        conj = unitary_conjugate(triple, U)
        uni_ok = all(conj.tau(q) == tau_of(q) for q in (0, 1))
        comp = unitary_conjugate(unitary_conjugate(triple, U), U)
        comp2 = unitary_conjugate(triple, mat_mul(U, U))
        uni_ok &= comp.tau(1) == comp2.tau(1)
        checks.append(Check("tau^{U*DU} = tau^D; conjugations compose", uni_ok))
    return checks


def geometry_suite(scn, phi=None, omega=None, tol: float = 1e-8,
                   pairing_tol: float = 1e-4, seed: int = 0) -> list[Check]:
    """Numeric checks for one geometry scenario (tolerances per the suite)."""
    import numpy as np
    from .geometry import (
        DifferentialForm,
        Trig,
        a_hat_component,
        cm_cocycle_eval,
        conformal_invariant,
        conformal_invariant_direct,
        fixed_point_cancellation,
        fixed_point_contributions,
        form_at_nodes,
        nu_phi,
    )
    import math

    checks = []
    rng = random.Random(seed)
    ident = scn.identity()

    # A-roof: degree-0 part 1, only 4k degrees, series truncation stable
    comp_all = scn.fixed_components(ident)
    ah_ok = stab_ok = True
    for comp in comp_all:
        pts, _ = scn.component_nodes(comp, 8)
        ah = a_hat_component(comp, pts, comp.dim)
        ah_ok &= bool(np.allclose(ah.get(()), 1.0, atol=tol))
        ah_ok &= all(len(a) % 4 == 0 for a in ah.coeffs if len(a) > 0)
        ah2 = a_hat_component(comp, pts, comp.dim, extra_terms=2)
        for a in set(ah.coeffs) | set(ah2.coeffs):
            stab_ok &= bool(np.allclose(ah.get(a), ah2.get(a), atol=1e-14))
    checks.append(Check("A-roof: degree-0 part 1, degrees 0 mod 4", ah_ok))
    checks.append(Check("A-roof series truncation stable", stab_ok))

    # nu on fixed components of every non-identity element
    nu_ok = canc_ok = True
    for iso in scn.group:
        if iso.is_identity():
            continue
        comps = scn.fixed_components(iso)
        for comp in comps:
            pts, _ = scn.component_nodes(comp, 4)
            nu = nu_phi(comp, pts, comp.dim)
            expect = 1.0
            for ang, _ in comp.angles:
                expect /= 2.0 * math.sin(ang / 2.0)
            nu_ok &= abs(abs(nu.get(())[0]) - expect) < tol
            nu2 = nu_phi(comp, pts, comp.dim, extra_terms=2)
            nu_ok &= bool(np.allclose(nu.get(()), nu2.get(())))
        if comps and all(c.dim == 0 for c in comps):
            canc_ok &= abs(fixed_point_cancellation(scn, iso)) < 1e-10
    checks.append(Check("nu magnitude = prod (2 sin(theta/2))^{-1}, series stable", nu_ok))
    checks.append(Check("fixed-point cancellation |pole sum| < 1e-10", canc_ok))

    # sampled cocycle symmetries: multilinearity, cyclicity, G-normalization
    def rand_fn():
        ax = rng.randrange(scn.dim)
        k = rng.randint(1, 2)
        fn = rng.choice(["sin", "cos"])
        return DifferentialForm.function(Trig(fn, k, ax))

    def rand_iso():
        return scn.group[rng.randrange(len(scn.group))]

    sym_ok = lin_ok = gnorm_ok = True
    for _ in range(4):
        q = 1
        args = [(rand_fn(), rand_iso()) for _ in range(2 * q + 1)]
        val = cm_cocycle_eval(scn, q, args, quad_n=16)
        rotated = args[-1:] + args[:-1]
        sym_ok &= abs(cm_cocycle_eval(scn, q, rotated, quad_n=16) - val) < pairing_tol
        f_extra = rand_fn()
        args2 = [(args[0][0] + f_extra, args[0][1])] + args[1:]
        val2 = cm_cocycle_eval(scn, q, args2, quad_n=16)
        val_extra = cm_cocycle_eval(scn, q, [(f_extra, args[0][1])] + args[1:], quad_n=16)
        lin_ok &= abs(val2 - (val + val_extra)) < pairing_tol
        # inhomogeneization condition (dual of theta): group letters move right
        fs = [a[0] for a in args]
        isos = [a[1] for a in args]
        running = isos[0]
        flat = [(fs[0], ident)]
        for f, iso in zip(fs[1:], isos[1:]):
            flat.append((f.translate(tuple(-s for s in running.shifts)), ident))
            running = running.compose(iso)
        flat[-1] = (flat[-1][0], running)
        gnorm_ok &= abs(cm_cocycle_eval(scn, q, flat, quad_n=16) - val) < pairing_tol
    checks.append(Check("cocycle cyclic symmetry T phi = phi (sampled)", sym_ok))
    checks.append(Check("cocycle multilinearity (sampled)", lin_ok))
    checks.append(Check("cocycle G-normalization conditions (sampled)", gnorm_ok))

    if omega is not None and phi is not None:
        direct, paired, resid = conformal_invariant(scn, phi, scn.dim, omega)
        if paired is not None:
            checks.append(Check("conformal invariant two-route agreement",
                                resid < pairing_tol, residual=f"{resid:.3e}"))
        d2 = conformal_invariant_direct(scn, phi, scn.dim, omega,
                                        quad_n=2 * scn.quad_n, check=False)
        rel = abs(d2 - direct) / max(abs(direct), 1e-30)
        checks.append(Check("quadrature doubling stability < 1e-6",
                            rel < 1e-6, residual=f"{rel:.3e}"))
    return checks


def index_suite(triple: TwistedTriple, q: int = 1) -> list[Check]:
    checks = []
    cpa = triple.algebra
    idems = {"one": [[cpa.one()]]}
    if isinstance(cpa, CrossedProductAlgebra) and cpa.n_points >= 1:
        idems["delta_x0"] = [[cpa.delta_u(0, cpa.group.id)]]
    for name, e in idems.items():
        resid, pairing_value, ind = verify_index_pairing(triple, e, q)
        next_pair = tau_bar_chern_pairing(triple, q + 1, e)
        stable = next_pair == pairing_value
        checks.append(Check(
            f"index pairing e={name}: <tau_bar, Ch(e)> = ind = {ind.value}",
            (not resid) and stable,
            residual=str(resid),
            details=f"pairing={pairing_value}, q-stable={stable}"))
        # additivity: ind(e (+) e) = 2 ind(e)
        z = cpa.zero()
        e2 = [[e[0][0], z], [z, e[0][0]]]
        add_ok = index(triple, e2).value == 2 * ind.value
        checks.append(Check(f"index additivity e={name}", add_ok))
    return checks

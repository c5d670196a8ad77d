"""Characteristic-form calculus and quadrature on flat tori and round spheres.

Functions and forms are closed-form trig-polynomial expression trees with an
exact symbolic exterior derivative; all numerics happen at quadrature nodes
(complex double precision, numpy-vectorized over the node grid).  On top of
that sit the A-roof and normal-eigenvalue forms, the equivariant local-index
cocycle with its fixed-point contributions, and the two-route conformal
invariants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np


class GeometryError(ValueError):
    pass


TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# expression trees: sums of products of constants and sin/cos(k*x + 2*pi*phase)


class Expr:
    def eval(self, pts):
        raise NotImplementedError

    def partial(self, axis: int) -> "Expr":
        raise NotImplementedError

    def translate(self, shifts) -> "Expr":
        """Substitute x_i -> x_i + 2*pi*shifts[i] (shifts are Fractions)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def eval(self, pts):
        return self.value

    def partial(self, axis):
        return Const(0)

    def translate(self, shifts):
        return self


@dataclass(frozen=True)
class Trig(Expr):
    fn: str  # 'sin' | 'cos'
    k: int
    axis: int
    phase: Fraction = Fraction(0)  # in units of 2*pi

    def eval(self, pts):
        arg = self.k * np.asarray(pts[self.axis]) + TWO_PI * float(self.phase)
        return np.sin(arg) if self.fn == "sin" else np.cos(arg)

    def partial(self, axis):
        if axis != self.axis:
            return Const(0)
        if self.fn == "sin":
            return Prod((Const(self.k), Trig("cos", self.k, self.axis, self.phase)))
        return Prod((Const(-self.k), Trig("sin", self.k, self.axis, self.phase)))

    def translate(self, shifts):
        sh = shifts[self.axis]
        if not sh:
            return self
        return Trig(self.fn, self.k, self.axis, self.phase + self.k * sh)


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def eval(self, pts):
        acc = self.terms[0].eval(pts)
        for t in self.terms[1:]:
            acc = acc + t.eval(pts)
        return acc

    def partial(self, axis):
        return Sum(tuple(t.partial(axis) for t in self.terms))

    def translate(self, shifts):
        return Sum(tuple(t.translate(shifts) for t in self.terms))


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple

    def eval(self, pts):
        acc = self.factors[0].eval(pts)
        for f in self.factors[1:]:
            acc = acc * f.eval(pts)
        return acc

    def partial(self, axis):
        terms = []
        for i, f in enumerate(self.factors):
            df = f.partial(axis)
            terms.append(Prod(tuple(list(self.factors[:i]) + [df] + list(self.factors[i + 1:]))))
        return Sum(tuple(terms))

    def translate(self, shifts):
        return Prod(tuple(f.translate(shifts) for f in self.factors))


ZERO_EXPR = Const(0)
ONE_EXPR = Const(1)


def expr_mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0:
            return ZERO_EXPR
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return ZERO_EXPR
        if b.value == 1:
            return a
    return Prod((a, b))


def expr_add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return Sum((a, b))


# ---------------------------------------------------------------------------
# differential forms with Expr coefficients


class DifferentialForm:
    """Sparse exterior form: maps sorted axis tuples to Expr coefficients."""

    def __init__(self, coeffs=None):
        self.coeffs: dict[tuple, Expr] = dict(coeffs or {})

    @staticmethod
    def function(e: Expr) -> "DifferentialForm":
        return DifferentialForm({(): e})

    def __add__(self, other):
        out = dict(self.coeffs)
        for axes, e in other.coeffs.items():
            out[axes] = expr_add(out[axes], e) if axes in out else e
        return DifferentialForm(out)

    def scale(self, c) -> "DifferentialForm":
        return DifferentialForm({a: expr_mul(Const(c), e) for a, e in self.coeffs.items()})

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        out: dict[tuple, Expr] = {}
        for a1, e1 in self.coeffs.items():
            for a2, e2 in other.coeffs.items():
                if set(a1) & set(a2):
                    continue
                axes, sign = _sort_axes(a1 + a2)
                e = expr_mul(e1, e2)
                if sign < 0:
                    e = expr_mul(Const(-1), e)
                out[axes] = expr_add(out[axes], e) if axes in out else e
        return DifferentialForm(out)

    def d(self) -> "DifferentialForm":
        out: dict[tuple, Expr] = {}
        for axes, e in self.coeffs.items():
            for ax in sorted(_axes_of(e)):
                if ax in axes:
                    continue
                de = e.partial(ax)
                if isinstance(de, Const) and de.value == 0:
                    continue
                new_axes, sign = _sort_axes((ax,) + axes)
                term = de if sign > 0 else expr_mul(Const(-1), de)
                out[new_axes] = expr_add(out[new_axes], term) if new_axes in out else term
        return DifferentialForm(out)

    def translate(self, shifts) -> "DifferentialForm":
        return DifferentialForm({a: e.translate(shifts) for a, e in self.coeffs.items()})

    def degrees(self):
        return sorted({len(a) for a in self.coeffs})

    def component(self, degree: int) -> "DifferentialForm":
        return DifferentialForm({a: e for a, e in self.coeffs.items() if len(a) == degree})

    def restrict(self, comp: "FixedComponent") -> "DifferentialForm":
        """Pull back along the component inclusion: drop normal differentials."""
        keep = set(comp.axes)
        return DifferentialForm({a: e for a, e in self.coeffs.items()
                                 if set(a) <= keep})


def _sort_axes(axes):
    axes = list(axes)
    sign = 1
    for i in range(1, len(axes)):
        j = i
        while j > 0 and axes[j - 1] > axes[j]:
            axes[j - 1], axes[j] = axes[j], axes[j - 1]
            sign = -sign
            j -= 1
    return tuple(axes), sign


def _axes_of(e: Expr) -> set:
    if isinstance(e, Trig):
        return {e.axis}
    if isinstance(e, Sum):
        return set().union(*(_axes_of(t) for t in e.terms)) if e.terms else set()
    if isinstance(e, Prod):
        return set().union(*(_axes_of(f) for f in e.factors)) if e.factors else set()
    return set()


class FormValue:
    """Exterior-algebra value over a node grid; coefficients are ndarrays."""

    def __init__(self, coeffs=None, truncate: int | None = None):
        self.truncate = truncate
        self.coeffs = {}
        for a, v in (coeffs or {}).items():
            if truncate is not None and len(a) > truncate:
                continue
            self.coeffs[a] = v

    @staticmethod
    def scalar(value, truncate=None):
        return FormValue({(): value}, truncate)

    @staticmethod
    def one(npts, truncate=None):
        return FormValue({(): np.ones(npts, dtype=complex)}, truncate)

    def add(self, other: "FormValue") -> "FormValue":
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = out[a] + v if a in out else v
        cap = self.truncate if self.truncate is not None else other.truncate
        return FormValue(out, cap)

    def scale(self, c) -> "FormValue":
        return FormValue({a: c * v for a, v in self.coeffs.items()}, self.truncate)

    def wedge(self, other: "FormValue") -> "FormValue":
        cap = self.truncate if self.truncate is not None else other.truncate
        out: dict = {}
        for a1, v1 in self.coeffs.items():
            for a2, v2 in other.coeffs.items():
                if set(a1) & set(a2):
                    continue
                if cap is not None and len(a1) + len(a2) > cap:
                    continue
                axes, sign = _sort_axes(a1 + a2)
                v = v1 * v2 if sign > 0 else -(v1 * v2)
                out[axes] = out[axes] + v if axes in out else v
        return FormValue(out, cap)

    def degree_part(self, degree: int) -> "FormValue":
        return FormValue({a: v for a, v in self.coeffs.items() if len(a) == degree},
                         self.truncate)

    def get(self, axes):
        return self.coeffs.get(tuple(axes), 0.0)

    def max_degree(self) -> int:
        return max((len(a) for a in self.coeffs), default=0)


def form_at_nodes(form: DifferentialForm, pts, truncate=None) -> FormValue:
    npts = len(np.asarray(pts[0]).ravel()) if pts else 1
    out = {}
    for a, e in form.coeffs.items():
        v = np.asarray(e.eval(pts), dtype=complex)
        if v.shape == ():
            v = np.full(npts, complex(v))
        out[a] = v
    return FormValue(out, truncate)


# ---------------------------------------------------------------------------
# expression parser (grammar: + - * ^ numbers sin/cos d<coord>)


def parse_form(text: str, axis_names) -> DifferentialForm:
    return _Parser(text, list(axis_names)).parse()


class _Parser:
    def __init__(self, text: str, axis_names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.axis_names = axis_names

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise GeometryError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> DifferentialForm:
        form = self.parse_sum()
        if self.peek() is not None:
            raise GeometryError(f"trailing input at {self.peek()!r}")
        return form

    def parse_sum(self) -> DifferentialForm:
        acc = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            term = self.parse_term()
            if op == "-":
                term = term.scale(-1)
            acc = acc + term
        return acc

    def parse_term(self) -> DifferentialForm:
        acc = self.parse_factor()
        while self.peek() in ("*", "^"):
            self.next()
            acc = acc.wedge(self.parse_factor())
        return acc

    def parse_factor(self) -> DifferentialForm:
        tok = self.peek()
        if tok == "(":
            self.next()
            inner = self.parse_sum()
            self.expect(")")
            return inner
        if tok == "-":
            self.next()
            return self.parse_factor().scale(-1)
        if tok in ("sin", "cos"):
            fn = self.next()
            self.expect("(")
            k = Fraction(1)
            nxt = self.next()
            if isinstance(nxt, Fraction):
                k = nxt
                self.expect("*")
                nxt = self.next()
            if nxt not in self.axis_names:
                raise GeometryError(f"unknown coordinate {nxt!r}")
            if k.denominator != 1:
                raise GeometryError("trig multiples must be integers")
            axis = self.axis_names.index(nxt)
            self.expect(")")
            return DifferentialForm.function(Trig(fn, int(k), axis))
        if isinstance(tok, Fraction):
            self.next()
            return DifferentialForm.function(Const(complex(tok)))
        if isinstance(tok, str) and tok.startswith("d") and tok[1:] in self.axis_names:
            self.next()
            return DifferentialForm({(self.axis_names.index(tok[1:]),): ONE_EXPR})
        raise GeometryError(f"unexpected token {tok!r}")


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()":
            out.append(c)
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            out.append(Fraction(text[i:j]))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
            continue
        raise GeometryError(f"bad character {c!r} in expression")
    return out


# ---------------------------------------------------------------------------
# manifolds, isometries, fixed components


@dataclass(frozen=True)
class Factor:
    kind: str  # 'T2' | 'S2'


MANIFOLDS = {
    "T2": (Factor("T2"),),
    "S2": (Factor("S2"),),
    "T2xT2": (Factor("T2"), Factor("T2")),
    "S2xT2": (Factor("S2"), Factor("T2")),
}

AXIS_NAMES = {
    "T2": ("x", "y"),
    "S2": ("theta", "phi"),
    "T2xT2": ("x1", "y1", "x2", "y2"),
    "S2xT2": ("theta", "phi", "x", "y"),
}


@dataclass(frozen=True)
class Isometry:
    """Shift of each ambient angular coordinate, in units of 2*pi.

    Torus factors translate their coordinates; sphere factors rotate the
    azimuth (the colatitude slot must stay 0).  Composition is addition
    mod 1, so the symmetry groups here are finite abelian.
    """

    shifts: tuple  # Fraction per axis

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(tuple((a + b) % 1 for a, b in zip(self.shifts, other.shifts)))

    def inverse(self) -> "Isometry":
        return Isometry(tuple((-a) % 1 for a in self.shifts))

    def is_identity(self) -> bool:
        return all(s == 0 for s in self.shifts)


@dataclass
class FixedComponent:
    """One stratum of the fixed set, with its normal rotation data.

    ``angles`` holds one (angle, orientation sign) pair per normal rotation
    plane, the angle already folded into (0, pi].  ``curvature_blocks`` lists
    the tangent curvature 2-frame blocks as (axis0, axis1, Omega-Expr|None).
    """

    label: str
    axes: tuple
    frozen: dict
    dim: int
    angles: tuple
    curvature_blocks: tuple


class GeometryScenario:
    """Closed-form geometry: products of flat tori and round spheres with a
    finite abelian symmetry group of translations and rotations."""

    def __init__(self, manifold: str, group_shifts, quad_n: int = 64, label: str = ""):
        if manifold not in MANIFOLDS:
            raise GeometryError(f"unknown manifold {manifold!r}")
        self.manifold = manifold
        self.factors = MANIFOLDS[manifold]
        self.axis_names = AXIS_NAMES[manifold]
        self.dim = len(self.axis_names)
        self.quad_n = quad_n
        self.label = label or manifold
        elems = [Isometry(tuple(Fraction(s) % 1 for s in sh)) for sh in group_shifts]
        ident = Isometry(tuple(Fraction(0) for _ in range(self.dim)))
        if not any(e.is_identity() for e in elems):
            elems.insert(0, ident)
        for e in elems:
            for f_idx, factor in enumerate(self.factors):
                if factor.kind == "S2" and e.shifts[2 * f_idx] != 0:
                    raise GeometryError("sphere colatitude cannot be shifted")
        self.group = self._close(elems)

    def _close(self, elems):
        table = {e.shifts: e for e in elems}
        frontier = list(table.values())
        while frontier:
            new = []
            for a in frontier:
                for b in list(table.values()):
                    c = a.compose(b)
                    if c.shifts not in table:
                        table[c.shifts] = c
                        new.append(c)
            frontier = new
            if len(table) > 4096:
                raise GeometryError("symmetry group does not close at desk scale")
        return sorted(table.values(), key=lambda e: tuple(e.shifts))

    def identity(self) -> Isometry:
        return Isometry(tuple(Fraction(0) for _ in range(self.dim)))

    def require_member(self, iso: Isometry):
        if not any(e.shifts == iso.shifts for e in self.group):
            raise GeometryError("isometry is not a member of the scenario group")

    def fixed_components(self, iso: Isometry) -> list:
        """Fixed components of an isometry, with normal/orientation data."""
        per_factor = []
        for f_idx, factor in enumerate(self.factors):
            base = 2 * f_idx
            if factor.kind == "T2":
                if iso.shifts[base] == 0 and iso.shifts[base + 1] == 0:
                    per_factor.append([
                        ((base, base + 1), {}, (), ((base, base + 1, None),), "T2")
                    ])
                else:
                    return []
            else:
                rot = iso.shifts[base + 1]
                if rot == 0:
                    omega = Trig("sin", 1, base)
                    per_factor.append([
                        ((base, base + 1), {}, (), ((base, base + 1, omega),), "S2")
                    ])
                else:
                    beta = float(rot) * TWO_PI
                    if beta <= math.pi + 1e-15:
                        ang, s = beta, 1
                    else:
                        ang, s = TWO_PI - beta, -1
                    per_factor.append([
                        ((), {base: 0.0, base + 1: 0.0}, ((ang, s),), (), "Npole"),
                        ((), {base: math.pi, base + 1: 0.0}, ((ang, -s),), (), "Spole"),
                    ])
        combos = [[]]
        for options in per_factor:
            combos = [c + [opt] for c in combos for opt in options]
        out = []
        for combo in combos:
            axes, frozen, angles, blocks, tags = (), {}, (), (), []
            for ax, fr, an, bl, tag in combo:
                axes += ax
                frozen.update(fr)
                angles += an
                blocks += bl
                tags.append(tag)
            out.append(FixedComponent("x".join(tags), axes, frozen, len(axes),
                                      angles, blocks))
        return out

    # -- quadrature ---------------------------------------------------------

    def component_nodes(self, comp: FixedComponent, n: int | None = None):
        """Node coordinate arrays (one per ambient axis) and top-form weights.

        Torus axes get the trapezoid rule (exact on trig polynomials of
        degree < n); sphere colatitudes get Gauss-Legendre in cos(theta).
        """
        n = n or self.quad_n
        if comp.dim == 0:
            pts = [np.array([comp.frozen.get(ax, 0.0)]) for ax in range(self.dim)]
            return pts, np.array([1.0])
        grids, weights = [], []
        for ax in comp.axes:
            f_idx = ax // 2
            if self.factors[f_idx].kind == "S2" and ax % 2 == 0:
                u, w = np.polynomial.legendre.leggauss(n)
                theta = np.arccos(u[::-1])
                grids.append(theta)
                weights.append(w[::-1] / np.sin(theta))
            else:
                grids.append(np.arange(n) * (TWO_PI / n))
                weights.append(np.full(n, TWO_PI / n))
        mesh = np.meshgrid(*grids, indexing="ij")
        wmesh = np.meshgrid(*weights, indexing="ij")
        wtot = np.ones_like(wmesh[0])
        for w in wmesh:
            wtot = wtot * w
        pts = []
        for ax in range(self.dim):
            if ax in comp.frozen:
                pts.append(np.full(mesh[0].size, comp.frozen[ax]))
            elif ax in comp.axes:
                pts.append(mesh[comp.axes.index(ax)].ravel())
            else:
                pts.append(np.zeros(mesh[0].size))
        return pts, wtot.ravel()

    def integrate_component(self, comp: FixedComponent, fv: FormValue, weights) -> complex:
        top = fv.get(comp.axes)
        if isinstance(top, (int, float, complex)) and top == 0:
            return 0.0 + 0.0j
        if comp.dim == 0:
            return complex(np.asarray(top).ravel()[0])
        return complex(_pairwise_sum(np.asarray(top).ravel() * weights))


def _pairwise_sum(arr):
    """Deterministic pairwise tree reduction, independent of chunking."""
    arr = np.asarray(arr)
    n = arr.shape[0]
    if n == 0:
        return 0.0 + 0.0j
    while n > 1:
        half = n // 2
        head = arr[:half] + arr[half:2 * half]
        arr = np.concatenate([head, arr[2 * half:n]]) if n % 2 else head
        n = arr.shape[0]
    return arr[0]


# ---------------------------------------------------------------------------
# characteristic forms


def a_hat(R, pts, form_dim: int, extra_terms: int = 0) -> FormValue:
    """det^{1/2}((R/2)/sinh(R/2)) for a skew matrix R of 2-form entries.

    R is a square list-of-lists of DifferentialForm (or None); the series is
    nilpotent beyond the manifold form degree, so it terminates.  Only form
    degrees 0 mod 4 survive.
    """
    n = len(R)
    pts = [np.asarray(p).ravel() for p in pts]
    npts = len(pts[0]) if pts else 1
    cap = form_dim
    if n == 0:
        return FormValue.one(npts, cap)

    def entry(fm):
        if fm is None:
            return FormValue({}, cap)
        return form_at_nodes(fm, pts, cap)

    half = [[entry(R[i][j]).scale(0.5) for j in range(n)] for i in range(n)]
    m2 = _fv_matmul(half, half, cap)
    max_k = form_dim // 4 + 1 + extra_terms
    # P = sinh(M)/M = I + sum_{k>=1} M^{2k}/(2k+1)!
    powers = [m2]
    for _ in range(1, max_k):
        powers.append(_fv_matmul(powers[-1], m2, cap))
    N = _fv_zero_matrix(n, cap)
    for k, p in enumerate(powers, start=1):
        N = _fv_mat_add(N, _fv_mat_scale(p, 1.0 / factorial(2 * k + 1)))
    # det^{-1/2}(I + N) = exp(-1/2 tr log(I + N)), N nilpotent
    log_acc = _fv_zero_matrix(n, cap)
    power = N
    sign = 1.0
    for k in range(1, max_k + 1):
        log_acc = _fv_mat_add(log_acc, _fv_mat_scale(power, sign / k))
        power = _fv_matmul(power, N, cap)
        sign = -sign
    tr = FormValue({}, cap)
    for i in range(n):
        tr = tr.add(log_acc[i][i])
    return _fv_exp(tr.scale(-0.5), cap, npts)


def _fv_zero_matrix(n, cap):
    return [[FormValue({}, cap) for _ in range(n)] for _ in range(n)]


def _fv_mat_add(a, b):
    return [[a[i][j].add(b[i][j]) for j in range(len(a))] for i in range(len(a))]


def _fv_mat_scale(a, c):
    return [[a[i][j].scale(c) for j in range(len(a))] for i in range(len(a))]


def _fv_matmul(a, b, cap):
    n = len(a)
    out = _fv_zero_matrix(n, cap)
    for i in range(n):
        for k in range(n):
            if not a[i][k].coeffs:
                continue
            for j in range(n):
                if not b[k][j].coeffs:
                    continue
                out[i][j] = out[i][j].add(a[i][k].wedge(b[k][j]))
    return out


def _fv_exp(x: FormValue, cap, npts) -> FormValue:
    acc = FormValue.one(npts, cap)
    term = FormValue.one(npts, cap)
    for k in range(1, cap // 2 + 2):
        term = term.wedge(x).scale(1.0 / k)
        if not term.coeffs:
            break
        acc = acc.add(term)
    return acc


def curvature_matrix(comp: FixedComponent) -> list:
    """Tangent curvature of a fixed component as a frame-indexed form matrix."""
    n = 2 * len(comp.curvature_blocks)
    R = [[None] * n for _ in range(n)]
    for b, (ax0, ax1, omega) in enumerate(comp.curvature_blocks):
        if omega is None:
            continue
        R[2 * b][2 * b + 1] = DifferentialForm({(ax0, ax1): omega})
        R[2 * b + 1][2 * b] = DifferentialForm({(ax0, ax1): expr_mul(Const(-1), omega)})
    return R


def a_hat_component(comp: FixedComponent, pts, form_dim: int, extra_terms: int = 0) -> FormValue:
    return a_hat(curvature_matrix(comp), pts, form_dim, extra_terms)


def nu_phi(comp: FixedComponent, pts, form_dim: int, normal_curvature=None,
           extra_terms: int = 0) -> FormValue:
    """nu = det^{-1/2}(1 - phi^N e^{-R^N}) on a fixed component.

    Per normal rotation plane with signed angle alpha = s*theta the two
    eigenvalues of phi^N e^{-R} are e^{+-i(alpha - omega)}, so the block
    determinant is 4 sin^2((alpha - omega)/2); the branch is anchored at
    R^N = 0 to 1/(2 i sin(alpha/2)) per plane (the orientation sign s is
    scenario data, following the fixed-point orientation convention).
    """
    pts = [np.asarray(p).ravel() for p in pts]
    npts = len(pts[0]) if pts else 1
    cap = form_dim
    acc = FormValue.one(npts, cap)
    curvs = list(normal_curvature or [None] * len(comp.angles))
    if len(curvs) != len(comp.angles):
        raise GeometryError("one normal curvature entry per rotation plane")
    for (theta, sign), omega_form in zip(comp.angles, curvs):
        alpha = sign * theta
        s_half = math.sin(alpha / 2.0)
        if abs(s_half) < 1e-14:
            raise GeometryError("normal rotation angle must be nonzero")
        base = 1.0 / (2.0j * s_half)
        if omega_form is None:
            acc = acc.scale(base)
            continue
        w = form_at_nodes(omega_form, pts, cap)
        # sin((alpha - w)/2) = sin(a/2)cos(w/2) - cos(a/2)sin(w/2), w nilpotent
        c_half = math.cos(alpha / 2.0)
        max_k = cap // 2 + 1 + extra_terms
        w_half = w.scale(0.5)
        cos_w = FormValue.one(npts, cap)
        sin_w = FormValue({}, cap)
        term = FormValue.one(npts, cap)
        for k in range(1, max_k + 1):
            term = term.wedge(w_half).scale(1.0 / k)
            if not term.coeffs:
                break
            if k % 2 == 0:
                cos_w = cos_w.add(term.scale((-1.0) ** (k // 2)))
            else:
                sin_w = sin_w.add(term.scale((-1.0) ** ((k - 1) // 2)))
        delta = cos_w.scale(s_half).add(sin_w.scale(-c_half)).add(
            FormValue.one(npts, cap).scale(-s_half))
        # 1/(2i sin((alpha-w)/2)) = base * sum_k (-delta/sin(a/2))^k
        ratio = delta.scale(-1.0 / s_half)
        series = FormValue.one(npts, cap)
        powers = ratio
        for _ in range(max_k):
            if not powers.coeffs:
                break
            series = series.add(powers)
            powers = powers.wedge(ratio)
        acc = acc.wedge(series.scale(base))
    return acc


# ---------------------------------------------------------------------------
# the equivariant index-density cocycle


def cm_cocycle_eval(scn: GeometryScenario, q: int, args, quad_n: int | None = None,
                    extra_terms: int = 0) -> complex:
    """One value of the local index cocycle phi_2q.

    ``args`` is the list of 2q+1 pairs (f_j as DifferentialForm of degree 0,
    phi_j as Isometry).  The result is

       (-i)^{n/2}/(2q)! * sum_a (2 pi)^{-a/2} *
           int_{M_a^phi} Ahat ^ nu_phi ^ f0 d(f1hat) ^ ... ^ d(f2qhat)

    with phi = phi_0 o ... o phi_2q and fjhat = f_j o phi_{j-1}^{-1} o ... o
    phi_0^{-1}.
    """
    if len(args) != 2 * q + 1:
        raise GeometryError(f"need exactly {2 * q + 1} arguments for q={q}")
    for _, iso in args:
        scn.require_member(iso)
    phi_total = scn.identity()
    for _, iso in args:
        phi_total = phi_total.compose(iso)
    comps = scn.fixed_components(phi_total)
    if not comps:
        return 0.0 + 0.0j

    # fjhat = f_j translated by -(v_0 + ... + v_{j-1})
    hats = [args[0][0]]
    running = args[0][1]
    for f, iso in args[1:]:
        shift = tuple(-s for s in running.shifts)
        hats.append(f.translate(shift))
        running = running.compose(iso)

    n = scn.dim
    total = 0.0 + 0.0j
    for comp in comps:
        pts, weights = scn.component_nodes(comp, quad_n)
        integrand = a_hat_component(comp, pts, comp.dim, extra_terms)
        integrand = integrand.wedge(nu_phi(comp, pts, comp.dim,
                                           extra_terms=extra_terms))
        word = form_at_nodes(hats[0].restrict(comp), pts, comp.dim)
        for f in hats[1:]:
            word = word.wedge(form_at_nodes(f.d().restrict(comp), pts, comp.dim))
        integrand = integrand.wedge(word)
        val = scn.integrate_component(comp, integrand, weights)
        total += (2.0 * math.pi) ** (-comp.dim / 2.0) * val
    pref = (-1.0j) ** (n // 2) / factorial(2 * q)
    return pref * total


def fixed_point_contributions(scn: GeometryScenario, iso: Isometry) -> list[complex]:
    """Per-component values of the q = 0 cocycle on the unit function."""
    scn.require_member(iso)
    out = []
    n = scn.dim
    for comp in scn.fixed_components(iso):
        pts, weights = scn.component_nodes(comp)
        integrand = a_hat_component(comp, pts, comp.dim)
        integrand = integrand.wedge(nu_phi(comp, pts, comp.dim))
        val = scn.integrate_component(comp, integrand, weights)
        out.append(((-1.0j) ** (n // 2)) * (2.0 * math.pi) ** (-comp.dim / 2.0) * val)
    return out


def fixed_point_cancellation(scn: GeometryScenario, iso: Isometry) -> complex:
    """Sum of the pole contributions; vanishes for sphere rotations."""
    return sum(fixed_point_contributions(scn, iso), start=0.0 + 0.0j)


# ---------------------------------------------------------------------------
# conformal invariants, two routes


def check_closed(form: DifferentialForm, scn: GeometryScenario, tol: float = 1e-9):
    probe = GeometryScenario(scn.manifold, [], quad_n=8)
    comp_all = probe.fixed_components(probe.identity())[0]
    pts, _ = probe.component_nodes(comp_all, 8)
    dω = form.d()
    residual = 0.0
    for a, e in dω.coeffs.items():
        residual = max(residual, float(np.max(np.abs(np.asarray(e.eval(pts))))))
    if residual > tol:
        raise GeometryError(f"form is not closed (|d omega| = {residual:.3g})")


def conformal_invariant_direct(scn: GeometryScenario, iso: Isometry, a: int,
                               omega: DifferentialForm, quad_n: int | None = None,
                               check: bool = True) -> complex:
    """I_g(omega) = (-i)^{n/2} (2 pi)^{-a/2} int_{M_a^phi} Ahat ^ nu ^ omega."""
    scn.require_member(iso)
    if check:
        check_closed(omega, scn)
    n = scn.dim
    total = 0.0 + 0.0j
    for comp in scn.fixed_components(iso):
        if comp.dim != a:
            continue
        pts, weights = scn.component_nodes(comp, quad_n)
        integrand = a_hat_component(comp, pts, comp.dim)
        integrand = integrand.wedge(nu_phi(comp, pts, comp.dim))
        integrand = integrand.wedge(form_at_nodes(
            DifferentialForm({ax: e for ax, e in omega.restrict(comp).coeffs.items()}),
            pts, comp.dim))
        total += scn.integrate_component(comp, integrand, weights)
    return ((-1.0j) ** (n // 2)) * (2.0 * math.pi) ** (-a / 2.0) * total


def form_monomials(omega: DifferentialForm):
    """Write omega as a list of (f0, [f1..fm]) function monomials with
    omega = sum f0 df1 ^ ... ^ dfm, using dx = cos(x) d sin(x) - sin(x) d cos(x)
    on every axis (valid on all our charts)."""
    out = []
    for axes, coeff in omega.coeffs.items():
        partial = [(coeff, [])]
        for ax in axes:
            nxt = []
            for f0, fs in partial:
                nxt.append((expr_mul(f0, Trig("cos", 1, ax)), fs + [Trig("sin", 1, ax)]))
                nxt.append((expr_mul(f0, Prod((Const(-1), Trig("sin", 1, ax)))),
                            fs + [Trig("cos", 1, ax)]))
            partial = nxt
        out.extend(partial)
    return out


def conformal_invariant_pairing(scn: GeometryScenario, omega: DifferentialForm,
                                quad_n: int | None = None, check: bool = True) -> complex:
    """Pairing route (identity isometry only): build the geometric cycle
    eta_omega by antisymmetrizing function monomials and pair it with the
    index cocycle.

    Normalization: eta_omega is the sum over the monomials f0 df1 ^ ... ^ dfm
    of omega of sum_perm sign(perm) f0 (x) f_perm(1) (x) ... (x) f_perm(m),
    with coefficient 1.  Each of its m! = (2q)! terms pairs to the cocycle's
    1/(2q)! times the direct integrand, so the sum is the direct route's
    value; the cross-route test checks this.
    """
    if check:
        check_closed(omega, scn)
    ident = scn.identity()
    total = 0.0 + 0.0j
    for degree in omega.degrees():
        if degree % 2:
            raise GeometryError("pairing route needs an even form")
        part = omega.component(degree)
        m = degree
        q = m // 2
        for f0, fs in form_monomials(part):
            f0_form = DifferentialForm.function(f0)
            for perm in permutations(range(m)):
                sign = _perm_sign(perm)
                argsfs = [DifferentialForm.function(fs[p]) for p in perm]
                args = [(f0_form, ident)] + [(g, ident) for g in argsfs]
                val = cm_cocycle_eval(scn, q, args, quad_n)
                total += sign * val
    return total


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


def conformal_invariant(scn: GeometryScenario, iso: Isometry, a: int,
                        omega: DifferentialForm, quad_n: int | None = None):
    """Both routes: (direct, pairing-or-None, residual-or-None)."""
    direct = conformal_invariant_direct(scn, iso, a, omega, quad_n)
    if not iso.is_identity():
        return direct, None, None
    paired = conformal_invariant_pairing(scn, omega, quad_n, check=False)
    return direct, paired, abs(direct - paired)

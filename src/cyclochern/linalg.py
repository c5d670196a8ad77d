"""Exact linear algebra over Q(i).

Dense routines back the finite-dimensional spectral triples (inverses,
kernels, ranks of operators the size of a Hilbert space), the sparse column
eliminator backs the homology engine.  Pivoting rules are deterministic so
reports are reproducible bit for bit.
"""
from __future__ import annotations

from .scalars import ONE, Scalar, ZERO

Matrix = list  # list[list[Scalar]]


def mat(rows) -> Matrix:
    return [[v if isinstance(v, Scalar) else Scalar(v) for v in row] for row in rows]


def zeros(n: int, m: int) -> Matrix:
    return [[ZERO for _ in range(m)] for _ in range(n)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = list(zip(*b))
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            bj = bt[j]
            acc = ZERO
            for l in range(k):
                x = ai[l]
                if x:
                    y = bj[l]
                    if y:
                        acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


def mat_conj_transpose(a: Matrix) -> Matrix:
    return [[a[i][j].conjugate() for i in range(len(a))] for j in range(len(a[0]))]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _echelon(a: Matrix, augment: Matrix | None = None):
    """Row reduce in place; returns pivot column list."""
    n = len(a)
    m = len(a[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            if augment is not None:
                augment[r], augment[pr] = augment[pr], augment[r]
        inv = a[r][c].inverse()
        a[r] = [inv * v for v in a[r]]
        if augment is not None:
            augment[r] = [inv * v for v in augment[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
                if augment is not None:
                    augment[i] = [v - f * w for v, w in zip(augment[i], augment[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def mat_rank(a: Matrix) -> int:
    work = [row[:] for row in a]
    return len(_echelon(work))


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    work = [row[:] for row in a]
    aug = identity(n)
    pivots = _echelon(work, aug)
    if len(pivots) != n:
        raise ZeroDivisionError("matrix is singular")
    return aug


def kernel_basis(a: Matrix) -> list[list[Scalar]]:
    """Basis of the right kernel, as column vectors."""
    n = len(a)
    m = len(a[0]) if n else 0
    work = [row[:] for row in a]
    pivots = _echelon(work)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * m
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -work[r][f]
        basis.append(v)
    return basis


def column_space_basis(a: Matrix) -> list[list[Scalar]]:
    """Columns of ``a`` forming a basis of its column space (original vectors)."""
    work = [row[:] for row in a]
    pivots = _echelon(work)
    return [[a[i][c] for i in range(len(a))] for c in pivots]


def solve_in_span(basis_cols: list[list[Scalar]], target: list[Scalar]) -> list[Scalar] | None:
    """Coordinates of target in the given column span, or None."""
    if not basis_cols:
        return [] if all(not t for t in target) else None
    n = len(target)
    aug = [[col[i] for col in basis_cols] + [target[i]] for i in range(n)]
    pivots = _echelon(aug)
    k = len(basis_cols)
    if k in pivots:
        return None
    coords = [ZERO] * k
    for r, c in enumerate(pivots):
        coords[c] = aug[r][k]
    return coords


class SparseRank:
    """Incremental exact rank of a sparse integer-ish matrix over Q(i).

    Columns are fed in a caller-fixed order; each is reduced against the
    pivot columns found so far (pivot = smallest remaining row index),
    which makes the procedure order-deterministic.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.pivots: dict[int, dict[int, Scalar]] = {}

    def reduce(self, col: dict[int, Scalar]) -> dict[int, Scalar]:
        col = {r: v for r, v in col.items() if v}
        while col:
            r = min(col)
            piv = self.pivots.get(r)
            if piv is None:
                return col
            f = col[r]
            for rr, vv in piv.items():
                acc = col.get(rr)
                acc = -f * vv if acc is None else acc - f * vv
                if acc:
                    col[rr] = acc
                else:
                    col.pop(rr, None)
        return col

    def add_column(self, col: dict[int, Scalar]) -> bool:
        """Insert a column; True if it increased the rank."""
        col = self.reduce(col)
        if not col:
            return False
        r = min(col)
        inv = col[r].inverse()
        self.pivots[r] = {rr: inv * vv for rr, vv in col.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def sparse_rank(columns, n_rows: int) -> int:
    """Exact rank of the matrix whose columns are sparse {row: Scalar} dicts."""
    eng = SparseRank(n_rows)
    for col in columns:
        eng.add_column(col)
    return eng.rank

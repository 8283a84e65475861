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
pivots too, those from a given row index on, and dividing each pivot row by
its pivot entry gives the reduced form of the rows from that index on: from
row 0 it is the reduced row echelon form, on which kernels and solves are
read off; a kernel is read off the integer rows as ratios to the pivot
entries, with no Fraction form built first. A column
echelon form is the same elimination run on the integer columns, the
transposed problem; its pivot and zero-row structure is read off the
integer rows, and only the entries it returns become Fractions. Its lower
right block needs only the rows past the top pivots reduced against each
other, so the liberation criteria reduce from there. Each pivot column
takes the row whose entry there is smallest in absolute value, the first
such row (the scan stops at +-1), so the multipliers of the combinations
stay small and echelon forms are reproducible. The reduced row echelon
form is unique, so rref, kernels and the column echelon form and its block
do not depend on the rule.

Whether one row lies in the span of rows already eliminated is one
content-reduced pass of that row against their pivot rows (_reduce_row),
not a second elimination of them all.

Column-space membership is one forward elimination of the rows of [M | X]:
X's columns lie in Col(M) when every row left without a pivot in M's
columns is zero in X's.

RatMatrix coerces entries to Fractions where they come from outside (the
constructor, item assignment); its own methods build rows from Fractions
and adopt them as they are.

Characteristic polynomials are integer work too: Berkowitz's
division-free recursion runs on D m, D the lcm of m's denominators, and
the coefficients are rescaled by powers of D at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    """Exact entry: Fraction takes any numbers.Rational (numpy integers
    too), a str, and a float as its exact binary value."""
    return x if isinstance(x, Fraction) else Fraction(x)


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
    def _wrap(cls, rows, cols, data):
        """Adopts data, rows of Fractions of length cols, without copying or
        checking it: for callers that built every row themselves."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def zeros(cls, rows, cols):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        return cls._wrap(rows, cols, [[_ZERO] * cols for _ in range(rows)])

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

    # The constructors below build their rows from this matrix's own
    # Fractions, or from Fraction arithmetic on them, so they adopt the rows
    # through _wrap instead of coercing every entry again.

    def copy(self):
        return RatMatrix._wrap(self.rows, self.cols,
                               [row[:] for row in self.data])

    def transpose(self):
        if not self.rows:
            return RatMatrix.zeros(self.cols, 0)
        return RatMatrix._wrap(self.cols, self.rows,
                               [list(col) for col in zip(*self.data)])

    def submatrix(self, row_idx=None, col_idx=None):
        ri = range(self.rows) if row_idx is None else list(row_idx)
        ci = range(self.cols) if col_idx is None else list(col_idx)
        return RatMatrix._wrap(len(ri), len(ci),
                               [[self.data[i][j] for j in ci] for i in ri])

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return RatMatrix._wrap(self.rows, self.cols + other.cols,
                               [self.data[i] + other.data[i]
                                for i in range(self.rows)])

    def __add__(self, other):
        self._same_shape(other)
        return RatMatrix._wrap(self.rows, self.cols,
                               [[a + b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        return RatMatrix._wrap(self.rows, self.cols,
                               [[a - b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _frac(c)
        return RatMatrix._wrap(self.rows, self.cols,
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

    def __array__(self, dtype=None, copy=None):
        import numpy as np
        return np.asarray(self.to_float(), dtype=dtype)

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
    return [_int_vector(row) for row in m.data]


def _int_vector(row):
    """A sequence of Fractions as the primitive integer vector on its line."""
    # unpack a list, not a generator: building the argument tuple from a
    # generator resizes it, which raised perfbench certify's peak RSS by
    # about 2 MB on CPython 3.11
    denom = lcm(*[x.denominator for x in row])
    return _primitive([x.numerator * (denom // x.denominator) for x in row])


def _scaled_to_integers(m: RatMatrix):
    """(D, D m as integer rows), D the lcm of all of m's denominators."""
    den = lcm(*[x.denominator for row in m.data for x in row])
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in m.data]


def _primitive(ints):
    """The integer row divided by the gcd of its entries; a zero row as is."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _eliminate(a, cols, reduce_from=None):
    """Content-reduced integer elimination: (integer rows, pivot columns).

    a is a list of integer rows (lists or tuples); pivots are taken in their
    first cols entries, and rows may run on past them (an augmented part,
    combined along). a is reordered and its rows are replaced, never changed
    in place, so rows shared with a caller's cache stay intact. The pivot
    of column c is the entry of smallest absolute value among the rows not
    yet pivots, in the first row that has it; the scan stops at +-1. At
    pivot entry pv, each row with entry f != 0 in the pivot column becomes
    the primitive part of (pv/g) row - (f/g) pivot_row, g = gcd(pv, f);
    rows with f = 0 are not touched. Rows below the pivot are cleared; with
    reduce_from set, so are the rows above it from index reduce_from on: 0
    gives full Gauss-Jordan, a larger index leaves the rows before it
    unreduced above later pivots. Rows past the last pivot end up zero in
    the first cols entries.

    The pivot row and every row below it are zero before the pivot column
    c, so a combination is formed only past c: a row below keeps its zero
    prefix, and a row above it scales its prefix by pv/g. Entry c of the
    combination is zero. The rows returned are those of the combination
    over every entry.

    Only integers appear and every division is by a gcd, so the arithmetic
    is exact. Each row stays primitive and lies on the same line as its row
    in fraction-free Gauss-Jordan elimination (Bareiss), which is an integer
    multiple of it. Bareiss entries are minors of the input rows, so every
    entry here divides a minor and is at most the Hadamard bound of the
    input rows. The reduced row echelon form is unique, so it does not
    depend on how the rows were scaled on the way or on which row each
    pivot came from. A row from reduce_from on
    is only ever combined with pivot rows, which are the same whatever
    reduce_from is, so those rows are the same lines as under full
    reduction.
    """
    rows = len(a)
    pivots = []
    r = 0
    for c in range(cols):
        best = 0
        for i in range(r, rows):
            x = abs(a[i][c])
            if x and (x < best or not best):
                k, best = i, x
                if x == 1:
                    break
        if not best:
            continue
        a[r], a[k] = a[k], a[r]
        ar = a[r]
        pv = ar[c]
        c1 = c + 1
        tail = ar[c1:]
        zeros = [0] * c1
        start = r + 1 if reduce_from is None else min(reduce_from, r + 1)
        for i in range(start, rows):
            ai = a[i]
            f = ai[c]
            if not f or i == r:
                continue
            g = gcd(pv, f)
            p, q = pv // g, f // g
            row = [p * x - q * y for x, y in zip(ai[c1:], tail)]
            if i < r:
                row = [p * x for x in ai[:c]] + [0] + row
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
            else:
                g = gcd(*row)
                a[i] = zeros + ([x // g for x in row] if g > 1 else row)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _reduce_row(ech, pivots, row):
    """The integer row reduced against ech, the pivot rows of a forward
    _eliminate with pivot columns pivots: zero exactly when row lies in
    their span.

    One pass in pivot order: at pivot column c, a row with entry f != 0
    there becomes the primitive part of (pv/g) row - (f/g) ech_row, as in
    _eliminate, so its entries stay within the Hadamard bound of ech and
    row. The pass stops early, with a nonzero row, when the row is nonzero
    before c: the earlier pivot columns are cleared, and no pivot row from
    here on reaches that column, so the row is outside the span.
    """
    for er, c in zip(ech, pivots):
        if any(row[:c]):
            return row
        f = row[c]
        if not f:
            continue
        pv = er[c]
        g = gcd(pv, f)
        p, q = pv // g, f // g
        c1 = c + 1
        tail = [p * x - q * y for x, y in zip(row[c1:], er[c1:])]
        g = gcd(*tail)
        row = [0] * c1 + ([x // g for x in tail] if g > 1 else tail)
    return row


def _reduced_rows(a, pivots):
    """The nonzero rows of the reduced row echelon form as Fractions, from
    the output of _eliminate(..., reduce_from=0): each pivot row over its
    pivot entry."""
    return [[Fraction(x, a[r][c]) if x else _ZERO for x in a[r]]
            for r, c in enumerate(pivots)]


def rref(m: RatMatrix) -> RrefResult:
    """Reduced row echelon form, its pivot columns and its rank."""
    a, pivots = _eliminate(_int_rows(m), m.cols, 0)
    out = _reduced_rows(a, pivots)
    out += [[_ZERO] * m.cols for _ in range(m.rows - len(pivots))]
    return RrefResult(RatMatrix._wrap(m.rows, m.cols, out), tuple(pivots),
                      len(pivots))


def rank(m: RatMatrix) -> int:
    """Exact rank: the pivot count of the forward elimination."""
    return len(_eliminate(_int_rows(m), m.cols)[1])


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

    The form is the transpose of the reduced row echelon form of the
    integer columns with their entries reordered top rows first, so it is
    one fully reducing _column_echelon; Fractions are built only for the
    returned matrix and block.
    """
    nrows, ncols = m.rows, m.cols
    ech = _column_echelon(_int_rows(m.transpose()), nrows, bottom_rows, 0)
    a, pivots, k = ech.vectors, ech.pivots, ech.k
    red = _reduced_rows(a, pivots)
    pad = [_ZERO] * (ncols - len(pivots))
    e = RatMatrix._wrap(nrows, ncols, [list(row) + pad for row in zip(*red)]
                        if red else [pad[:] for _ in range(nrows)])
    if not ech.top_independent:
        return ColumnEchelonResult(e, None, False, ())
    block = RatMatrix._wrap(nrows - k, ncols - k,
                            [row[k:] for row in e.data[k:]])
    return ColumnEchelonResult(e, block, True, ech.bottom_zero_rows)


class _IntColumnEchelon(NamedTuple):
    vectors: list              # eliminated integer columns, top entries first
    pivots: list
    k: int                     # number of top rows
    top_independent: bool
    bottom_zero_rows: tuple


def _column_echelon(cols, nrows, bottom_rows, reduce_from) -> _IntColumnEchelon:
    """The integer core of column_echelon, for the nrows-row matrix whose
    columns are cols: integer lists, each any nonzero multiple of its column
    (the primitive integer columns that VerificationMatrix.int_cols caches).

    The columns, entries reordered top rows first, are eliminated with
    _eliminate(..., reduce_from). The top rows are independent when they
    take the first k pivots, and then the lower right block B of the form is
    read off the vectors k..r-1 (r the pivot count): entry (i, j) of B is
    vectors[k + j][k + i] over that vector's pivot entry. Those vectors need
    reducing only against each other, so reduce_from = k suffices for B, its
    zero rows and the top test; reduce_from = 0 gives the whole form. A
    block row is zero when those vectors all vanish there.
    """
    bottom = list(bottom_rows)
    bset = set(bottom)
    if len(bottom) != len(bset):
        raise ValueError("duplicate bottom rows")
    for i in bottom:
        if not 0 <= i < nrows:
            raise ValueError("bottom row %d out of range" % i)
    top = [i for i in range(nrows) if i not in bset]
    perm = top + bottom
    # _eliminate reorders its list, so it gets a new one
    if nrows > 1:
        get = itemgetter(*perm)
        cols = [get(c) for c in cols]
    else:
        cols = list(cols)
    a, pivots = _eliminate(cols, nrows, reduce_from)
    r, k = len(pivots), len(top)
    if pivots[:k] != list(range(k)):
        return _IntColumnEchelon(a, pivots, k, False, ())
    zero = tuple(b for i, b in enumerate(bottom)
                 if not any(a[j][k + i] for j in range(k, r)))
    return _IntColumnEchelon(a, pivots, k, True, zero)


# ---------------------------------------------------------------------------
# Kernels and column spaces

def _kernel_vectors(a, cols):
    """A basis of the right kernel of the matrix with integer rows a (each
    any nonzero multiple of its row; a is reordered), as Fraction vectors
    of length cols, one per free column f in increasing order: 1 at f, and
    at each pivot column minus the reduced row echelon entry in column f,
    read off _eliminate(a, cols, reduce_from=0) as the pivot row's entry
    over its pivot entry."""
    a, pivots = _eliminate(a, cols, 0)
    pset = set(pivots)
    basis = []
    for f in range(cols):
        if f in pset:
            continue
        v = [_ZERO] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            x = a[r][f]
            if x:
                v[c] = Fraction(-x, a[r][c])
        basis.append(v)
    return basis


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Columns span the (right) kernel of m. Shape cols x nullity."""
    basis = _kernel_vectors(_int_rows(m), m.cols)
    return RatMatrix._wrap(m.cols, len(basis),
                           [list(row) for row in zip(*basis)] if basis
                           else [[] for _ in range(m.cols)])


def left_kernel_basis(m: RatMatrix) -> RatMatrix:
    """Rows span the left kernel of m. Shape (rows-rank) x rows."""
    basis = _kernel_vectors(_int_rows(m.transpose()), m.rows)
    return RatMatrix._wrap(len(basis), m.rows, basis)


def col_space_contains(m: RatMatrix, x) -> bool:
    """Decide x in Col(m): every column of x lies in the span of m's columns."""
    if not isinstance(x, RatMatrix):
        x = RatMatrix.column(x)
    if x.rows != m.rows:
        raise ValueError("vector length mismatch")
    return _in_column_span(_scaled_to_integers(m.hstack(x))[1], m.cols)


def _in_column_span(rows, ncols) -> bool:
    """Whether the columns past the first ncols lie in the span of the first
    ncols, for integer rows of [M | X] (each row may carry any nonzero
    factor, and each column of X any nonzero scale): one forward elimination
    over M's columns, each augmented row made primitive first. X is in
    Col(M) when every row left without a pivot is zero in X's part."""
    a, pivots = _eliminate([_primitive(row) for row in rows], ncols)
    return not any(any(row[ncols:]) for row in a[len(pivots):])


# ---------------------------------------------------------------------------
# Characteristic polynomials

def charpoly(m: RatMatrix):
    """Coefficients of det(xI - m), ascending degree, leading coefficient 1.

    Berkowitz's division-free recursion (1984) runs on the integer matrix
    M = D m, D the lcm of m's denominators. With M_r the leading r x r block
    of M, bordered by column c, row s and corner d, the charpoly of M_(r+1)
    is T times that of M_r, T the lower triangular Toeplitz matrix with first
    column (1, -d, -s c, -s M_r c, ..., -s M_r^(r-1) c). Only integer sums
    and products appear. det(xI - m) = D^-n det(D x I - M), so coefficient
    k of m's charpoly is coefficient k of M's over D^(n-k).
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    den, a = _scaled_to_integers(m)
    p = [1]  # charpoly of M_r, descending degree
    for r in range(n):
        block = [row[:r] for row in a[:r]]
        s = a[r][:r]
        v = [row[r] for row in a[:r]]
        t = [1, -a[r][r]]
        for k in range(r):
            t.append(-sum(x * y for x, y in zip(s, v)))
            if k < r - 1:
                v = [sum(x * y for x, y in zip(row, v)) for row in block]
        p = [sum(t[k - j] * p[j] for j in range(min(k, r) + 1))
             for k in range(r + 2)]
    return [Fraction(c, den ** (n - k)) for k, c in enumerate(reversed(p))]


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


# ---------------------------------------------------------------------------
# Text format: line 1 "r c"; then r rows of c entries, "p/q" or integer.
# Decimal entries are accepted and converted exactly, so a float matrix
# written with each entry's shortest repr reads back to the same floats.

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


def format_matrix_text(m) -> str:
    """A RatMatrix or a 2-d float array in the text format; each entry is
    written with str."""
    if isinstance(m, RatMatrix):
        shape, rows = (m.rows, m.cols), m.data
    else:
        shape, rows = m.shape, m.tolist()
    lines = ["%d %d" % shape]
    for row in rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def read_matrix(path) -> RatMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def write_matrix(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_text(m))

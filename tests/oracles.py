"""Reference implementations the tests compare the library against.

They are written the direct way, with no regard for speed: the dense
commutator construction of the verification matrix, an exact solver read
off the reduced row echelon form, spectral disjointness from the gcd of
characteristic polynomials, and the liberation witness read off the
Fraction block of the public column echelon form.
"""

from fractions import Fraction

from liberatrix.exactla import RatMatrix, charpoly, poly_gcd, rref


def basis_X(n: int, i: int, j: int) -> RatMatrix:
    """Symmetric unit pair matrix: ones at (i,j) and (j,i), i<j, 1-based."""
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    m = RatMatrix.zeros(n, n)
    m[i - 1, j - 1] = Fraction(1)
    m[j - 1, i - 1] = Fraction(1)
    return m


def _order(m):
    return m.rows if isinstance(m, RatMatrix) else m.shape[0]


def vec_wedge(k):
    """Strictly upper triangular entries of a square RatMatrix or array, in
    pair-lex order; length C(n,2)."""
    n = _order(k)
    return [k[i, j] for i in range(n) for j in range(i + 1, n)]


def vec_square(a):
    """All entries of a square RatMatrix or array in row-major order."""
    n = _order(a)
    return [a[i, j] for i in range(n) for j in range(n)]


def solve(m: RatMatrix, x):
    """One exact solution y of m y = x, or None when inconsistent."""
    if not isinstance(x, RatMatrix):
        x = RatMatrix.column(x)
    aug = rref(m.hstack(x))
    if any(c >= m.cols for c in aug.pivot_cols):
        return None
    y = [Fraction(0)] * m.cols
    for r, c in enumerate(aug.pivot_cols):
        y[c] = aug.matrix.data[r][m.cols]
    return y


def spectra_disjoint(a: RatMatrix, b: RatMatrix) -> bool:
    """Exact test: no common eigenvalue, by gcd of characteristic polynomials."""
    gcd = poly_gcd(charpoly(a), charpoly(b))
    return len(gcd) == 1 and gcd[0] != 0


def witness_from_block(block: RatMatrix, beta_idx, nrows):
    """The liberation witness B (1, t, t^2, ...) for the first integer t > 0
    that leaves no entry zero, in Fractions, placed on beta_idx among nrows
    coordinates; None when B has no columns or no such t up to
    rows * cols + 1 (a zero row of B)."""
    if block.cols == 0:
        return None
    for t in range(1, block.rows * block.cols + 2):
        powers = [Fraction(t) ** j for j in range(block.cols)]
        vals = [sum((x * p for x, p in zip(row, powers)), Fraction(0))
                for row in block.data]
        if all(vals):
            x = [Fraction(0)] * nrows
            for idx, v in zip(beta_idx, vals):
                x[idx] = v
            return tuple(x)
    return None

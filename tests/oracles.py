"""Reference implementations the tests compare the library against.

They are written the direct way, with no regard for speed: the dense
commutator construction of the verification matrix, an exact solver read
off the reduced row echelon form, and spectral disjointness from the gcd of
characteristic polynomials.
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

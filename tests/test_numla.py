import math
from fractions import Fraction

import numpy as np
import pytest

import liberatrix
from liberatrix import directsum, numla
from liberatrix.exactla import RatMatrix
from liberatrix.numla import (
    MultiplicityList,
    SymMatrix,
    multiplicity_list,
    numeric_rank,
    random_orthogonal,
    read_float_matrix,
    sym_eigen,
)

SEED = 20260816


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def test_sym_eigen_residual_and_values():
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        a = random_symmetric(rng, n)
        vals, q = sym_eigen(a)
        norm = np.linalg.norm(a)
        assert np.linalg.norm(a @ q - q @ np.diag(vals)) <= 1e-9 * max(1.0, norm)
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
        # independent check of the spectrum itself
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(vals, ref, atol=1e-9 * max(1.0, norm))
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_sym_eigen_path_and_cycle_closed_forms():
    # adjacency spectra: path 2cos(k pi/(n+1)), cycle 2cos(2 pi k/n)
    n = 7
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    vals, _ = sym_eigen(a)
    expect = sorted(2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
    assert np.allclose(vals, expect, atol=1e-10)

    c = a.copy()
    c[0, n - 1] = c[n - 1, 0] = 1.0
    vals, _ = sym_eigen(c)
    expect = sorted(2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n))
    assert np.allclose(vals, expect, atol=1e-10)


def test_sym_eigen_edge_cases():
    vals, q = sym_eigen(np.zeros((0, 0)))
    assert vals.shape == (0,) and q.shape == (0, 0)
    vals, q = sym_eigen([[3.5]])
    assert vals[0] == 3.5 and q[0, 0] == 1.0
    # no size cap: a 65 x 65 input is solved like any other
    a = random_symmetric(np.random.default_rng(SEED), 65)
    vals, q = sym_eigen(a)
    assert vals.shape == (65,) and np.all(np.diff(vals) >= 0)
    assert np.allclose(a @ q, q * vals, atol=1e-9)


def test_symmatrix_guards_and_cache():
    with pytest.raises(ValueError):
        SymMatrix([[0.0, 1.0], [0.5, 0.0]])
    s = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    v1 = s.eigenvalues()
    v2 = s.eigenvalues()
    assert v1 is v2
    assert np.allclose(v1, [1.0, 3.0])


def test_multiplicity_list_clusters():
    ml = multiplicity_list([0.0, 0.0, 4.0, 4.0, 4.0])
    assert ml.values == (0.0, 4.0)
    assert ml.multiplicities == (2, 3)
    assert ml.ordered == (2, 3)
    assert not ml.ambiguous
    assert list(ml) == [(0.0, 2), (4.0, 3)]

    # values within tol merge and report the mean
    ml = multiplicity_list([1.0, 1.0 + 5e-9, 2.0], tol=1e-8)
    assert ml.multiplicities == (2, 1)
    assert abs(ml.values[0] - (1.0 + 2.5e-9)) < 1e-12

    # a gap in (tol, 10 tol) separates but flags ambiguity
    ml = multiplicity_list([1.0, 1.0 + 5e-8, 2.0], tol=1e-8)
    assert ml.multiplicities == (1, 1, 1)
    assert ml.ambiguous

    ml = multiplicity_list([], tol=1e-8)
    assert ml.total == 0
    assert isinstance(ml, MultiplicityList)


def test_multiplicity_list_chains_through_tol():
    # chained closeness: consecutive gaps below tol all merge
    ml = multiplicity_list([0.0, 0.9e-8, 1.8e-8, 1.0], tol=1e-8)
    assert ml.multiplicities == (3, 1)


def test_numeric_rank_against_exact():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(60):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        r = int(rng.integers(0, min(rows, cols) + 1))
        if r == 0:
            m = np.zeros((rows, cols))
        else:
            m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        assert numeric_rank(m) == r


def test_numeric_rank_tol_monotone():
    m = np.diag([1.0, 1e-3, 1e-6, 1e-12])
    ranks = [numeric_rank(m, tol=t) for t in (1e-14, 1e-8, 1e-4, 1e-1)]
    assert ranks == [4, 3, 2, 1]
    assert numeric_rank(np.zeros((3, 5))) == 0
    assert numeric_rank(np.zeros((0, 4))) == 0


def test_numeric_rank_reveals_near_singular_triangle():
    # unit upper triangle with -1 above the diagonal: no small pivot, yet
    # sigma_min / sigma_max is about 1.5e-10
    m = np.eye(30) - np.triu(np.ones((30, 30)), 1)
    assert numeric_rank(m, tol=1e-8) == 29


def test_ratmatrix_converts_through_numpy():
    m = RatMatrix.from_rows([[Fraction(1, 3), 2], [2, Fraction(-7, 5)]])
    arr = np.asarray(m, dtype=float)
    assert arr.dtype == float and np.array_equal(arr, m.to_float())
    vals, _ = sym_eigen(m)
    assert np.allclose(vals, np.linalg.eigvalsh(m.to_float()))
    huge = RatMatrix.from_rows([[Fraction(10) ** 400, 1], [1, 0]])
    with pytest.raises(ValueError, match="too large for a float"):
        np.asarray(huge, dtype=float)


def test_random_orthogonal_seeded():
    q1 = random_orthogonal(6, 7)
    q2 = random_orthogonal(6, 7)
    q3 = random_orthogonal(6, 8)
    assert np.array_equal(q1, q2)
    assert not np.array_equal(q1, q3)
    assert np.max(np.abs(q1.T @ q1 - np.eye(6))) <= 1e-12
    assert random_orthogonal(0, 1).shape == (0, 0)


def test_parse_float_matrix(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1/2 0\n-3 0.25\n")
    m = read_float_matrix(path)
    assert m.dtype == float
    assert np.array_equal(m, [[0.5, 0.0], [-3.0, 0.25]])


def test_is_generic_has_one_home():
    assert liberatrix.is_generic is directsum.is_generic is numla.is_generic

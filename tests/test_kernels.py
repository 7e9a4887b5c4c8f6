import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looise.designs import nn_distance
from looise.errors import DimensionMismatch, DomainViolation, DuplicatePoints
from looise.kernels import (
    COINCIDENCE_TOL,
    FAMILIES,
    KernelSpec,
    PointIndex,
    coincide,
    correlation,
    cross_matrix,
    distances,
    kernel_eval,
    kernel_matrix,
    min_pairwise_distance,
)


def psi_reference(family, s):
    """Independent closed-form re-implementation (math module only)."""
    if family == "matern12":
        return math.exp(-s)
    if family == "matern32":
        return (1 + math.sqrt(3) * s) * math.exp(-math.sqrt(3) * s)
    if family == "matern52":
        return (1 + math.sqrt(5) * s + 5 * s * s / 3) * math.exp(-math.sqrt(5) * s)
    if family == "gaussian":
        return math.exp(-s * s)
    if family == "inverse-multiquadric":
        return 1 / (1 + s * s)
    raise ValueError(family)


def test_inverse_multiquadric_closed_form():
    spec = KernelSpec("inverse-multiquadric", 2.0)
    assert np.isclose(kernel_eval(spec, [0.0], [1.0]), 0.2, rtol=0, atol=1e-15)


def test_matern32_value():
    spec = KernelSpec("matern32", 10.0)
    expected = (1 + math.sqrt(3)) * math.exp(-math.sqrt(3))  # 0.4834...
    assert np.isclose(kernel_eval(spec, [0.0], [0.1]), expected, rtol=1e-12)
    assert np.isclose(expected, 0.4834, atol=2e-4)


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_reference_at_random_distances(family):
    gen = np.random.default_rng(11)
    theta = 4.2
    spec = KernelSpec(family, theta)
    for r in gen.uniform(0.0, 3.0, size=50):
        got = kernel_eval(spec, [0.0], [r])
        assert np.isclose(got, psi_reference(family, theta * r), rtol=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_symmetry_exact(family):
    spec = KernelSpec(family, 1.7)
    gen = np.random.default_rng(5)
    for _ in range(10):
        x, y = gen.uniform(size=3), gen.uniform(size=3)
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)
    # kernel_matrix does not symmetrize: distances(X, X) is exact, the rest elementwise
    for d, n in [(1, 2), (2, 17), (3, 40), (5, 120)]:
        X = gen.uniform(size=(n, d))
        for nugget in (0.0, 0.01):
            spec = KernelSpec(family, gen.uniform(0.5, 20.0), nugget)
            for K in (kernel_matrix(spec, X), kernel_matrix(spec, X, distances(X, X))):
                assert np.array_equal(K, K.T)


def test_kernel_matrix_single_point():
    K = kernel_matrix(KernelSpec("matern32", 2.0, nugget=0.5), [[0.3, 0.4]])
    assert K.shape == (1, 1) and K[0, 0] == 1.5


def test_kernel_matrix_matches_eval():
    spec = KernelSpec("matern52", 6.0)
    pts = np.array([[0.1, 0.2], [0.8, 0.5], [0.3, 0.9]])
    K = kernel_matrix(spec, pts)
    for i in range(3):
        for j in range(3):
            assert np.isclose(K[i, j], kernel_eval(spec, pts[i], pts[j]), rtol=1e-15)


def test_duplicate_points_rejected_when_no_nugget():
    with pytest.raises(DuplicatePoints):
        kernel_matrix(KernelSpec("matern32", 1.0), [[0.1], [0.1]])
    # allowed with a nugget
    K = kernel_matrix(KernelSpec("matern32", 1.0, nugget=0.1), [[0.1], [0.1]])
    assert K[0, 0] == 1.1


def test_nugget_follows_the_coincidence_rule():
    # 0.3 + 1e-16 is a different float, but within COINCIDENCE_TOL of 0.3
    spec = KernelSpec("matern32", 2.0, 0.25)
    pts = [[0.3], [0.3 + 1e-16]]
    assert pts[0] != pts[1]
    K = kernel_matrix(spec, pts)
    assert kernel_eval(spec, pts[0], pts[1]) == K[0, 1] == 1.25
    with pytest.raises(DuplicatePoints):
        kernel_matrix(KernelSpec("matern32", 2.0), pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_distances_equal_the_naive_broadcast(d):
    gen = np.random.default_rng(d)
    X, Y = gen.uniform(size=(37, d)), gen.uniform(size=(23, d))
    naive = np.sqrt(((X[:, None] - Y[None]) ** 2).sum(2))
    assert np.array_equal(distances(X, Y), naive)
    spec = KernelSpec("matern52", 3.0)
    assert np.array_equal(cross_matrix(spec, Y, X), correlation(spec.family, 3.0 * naive))
    naive_xx = np.sqrt(((X[:, None] - X[None]) ** 2).sum(2))
    assert np.array_equal(kernel_matrix(spec, X), correlation(spec.family, 3.0 * naive_xx))


def distances_by_outer_subtraction(X, Y):
    """The reference loop of distances(): per coordinate a broadcast subtraction,
    squared and added in coordinate order, then the square root."""
    D = np.subtract.outer(X[:, 0], Y[:, 0])
    D *= D
    for k in range(1, X.shape[1]):
        t = np.subtract.outer(X[:, k], Y[:, k])
        t *= t
        D += t
    return np.sqrt(D)


@st.composite
def signed_point_sets(draw):
    """Two point sets of either sign at scales from 1e-12 to 1e6, with signed
    zeros, rows of Y that repeat or negate rows of X, and a point set large
    enough to span several chunks of distances()."""
    d = draw(st.integers(1, 8))
    m, n = draw(st.sampled_from([1, 7, 40, 300])), draw(st.integers(1, 140))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-12.0, 6.0))
    X, Y = gen.standard_normal((m, d)) * scale, gen.standard_normal((n, d)) * scale
    X[gen.random((m, d)) < 0.1] = 0.0
    X[gen.random((m, d)) < 0.1] = -0.0
    Y[gen.random((n, d)) < 0.1] = -0.0
    for i in range(draw(st.integers(0, min(m, n)))):
        Y[i] = draw(st.sampled_from([1.0, -1.0])) * X[i]
    return X, Y


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sets=signed_point_sets())
def test_distances_keep_the_bits_of_the_outer_subtraction(sets):
    X, Y = sets
    D = distances(X, Y)
    assert np.array_equal(D.view(np.int64), distances_by_outer_subtraction(X, Y).view(np.int64))
    assert np.array_equal(np.diagonal(distances(X, X)).view(np.int64), np.zeros(len(X), np.int64))


def psi_vectorized(family, s):
    """The numpy expressions of correlation before it took `out`; the operations,
    in their order, that every form of it must keep bit for bit."""
    s = np.asarray(s, dtype=float)
    if family == "matern12":
        return np.exp(-s)
    if family == "matern32":
        t = math.sqrt(3.0) * s
        return (1.0 + t) * np.exp(-t)
    if family == "matern52":
        t = math.sqrt(5.0) * s
        return (1.0 + t + (5.0 / 3.0) * s * s) * np.exp(-t)
    if family == "gaussian":
        return np.exp(-s * s)
    return 1.0 / (1.0 + s * s)


@pytest.mark.parametrize("family", FAMILIES)
def test_correlation_into_out_keeps_every_bit(family):
    gen = np.random.default_rng(7)
    for s in (np.float64(0.7), np.array(1.3), gen.uniform(0, 4, 41), gen.uniform(0, 4, (9, 5))):
        want = psi_vectorized(family, s)
        assert np.array_equal(correlation(family, s), want)
        out = np.array(s, dtype=float)  # out aliases s: s is read before it is overwritten
        assert correlation(family, out, out=out) is out
        assert out.shape == np.shape(s) and np.array_equal(out, want)
    spec = KernelSpec(family, 3.0)
    X, Y = gen.uniform(size=(13, 2)), gen.uniform(size=(6, 2))
    assert np.array_equal(cross_matrix(spec, Y, X), psi_vectorized(family, 3.0 * distances(X, Y)))
    r = distances(X[:1], Y[:1])[0, 0]
    assert kernel_eval(spec, X[0], Y[0]) == float(psi_vectorized(family, 3.0 * r))


@pytest.mark.parametrize("family", FAMILIES)
def test_cross_matrix_in_row_chunks_equals_the_whole_array(family):
    # CHUNK_ENTRIES // 7 rows a chunk: 1000 rows make several chunks and a ragged last one
    gen = np.random.default_rng(11)
    X, Y = gen.uniform(size=(1000, 3)), gen.uniform(size=(7, 3))
    spec = KernelSpec(family, 2.5)
    D = distances(X, Y)
    want = correlation(family, 2.5 * D)
    assert np.array_equal(cross_matrix(spec, Y, X), want)
    assert np.array_equal(cross_matrix(spec, Y, X, dist=D), want)


def test_cross_vector_at_design_point():
    pts = np.array([[0.0], [0.5], [1.0]])
    k = cross_matrix(KernelSpec("matern32", 5.0), pts, [[0.0]])[0]
    assert k[0] == 1.0


def test_cross_vector_excludes_nugget():
    pts = np.array([[0.0], [0.5], [1.0]])
    k = cross_matrix(KernelSpec("matern32", 5.0, nugget=0.0625), pts, [[0.0]])[0]
    assert k[0] == 1.0


def test_cross_vector_decay():
    pts = np.array([[0.0], [0.1]])
    k = cross_matrix(KernelSpec("gaussian", 100.0), pts, [[1.0]])[0]
    assert np.all(k < 1e-8)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_eval(KernelSpec("matern32", 1.0), [0.0], [0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        cross_matrix(KernelSpec("matern32", 1.0), [[0.0], [1.0]], [[0.0, 1.0]])


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("matern32", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("matern32", 1.0, nugget=-1e-3)
    with pytest.raises(ValueError):
        KernelSpec("cubic", 1.0)
    for theta, nugget in [(np.inf, 0.0), (np.nan, 0.0), (1.0, np.inf), (1.0, np.nan)]:
        with pytest.raises(ValueError):
            KernelSpec("matern32", theta, nugget)


def test_point_index_follows_the_coincidence_rule():
    index = PointIndex([[0.0, 0.0], [0.25, 0.5], [1.0, 1.0]])
    assert index.rows([[1.0, 1.0], [-0.0, 0.0], [0.25 + 1e-15, 0.5]]).tolist() == [2, 0, 1]
    dist, rows = index.nearest([[0.25, 0.5 + 2e-14]])
    assert rows[0] == 1 and not coincide(dist[0])
    with pytest.raises(DomainViolation, match="is 2e-14 from the nearest known point"):
        index.rows([[0.25, 0.5 + 2e-14]])
    with pytest.raises(DimensionMismatch):
        index.rows([[0.25]])


def test_point_index_keeps_the_first_of_each_coinciding_group():
    pts = [[0.1], [0.1 + 5e-15], [0.1 + 1.2e-14], [0.3], [0.3 + 3e-16], [0.7]]
    # 0.1 + 1.2e-14 coincides only with the dropped 0.1 + 5e-15, so it is kept
    assert PointIndex(pts).first_of_each().tolist() == [True, False, True, True, False, True]


@st.composite
def point_sets(draw):
    """Two point sets in 1 to 21 dimensions at scales from 1e-8 to 1e3; some rows
    of Y repeat rows of X exactly, some within rounding, some just apart."""
    d = draw(st.integers(1, 21))
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8.0, 3.0))
    X, Y = gen.random((m, d)) * scale, gen.random((n, d)) * scale
    for i in range(draw(st.integers(0, min(m, n)))):
        Y[i] = X[i] + draw(st.sampled_from([0.0, 2e-16 * scale, 1e-12]))
    return X, Y


def _first_of_each(points) -> list[bool]:
    """The rule of PointIndex.first_of_each over all pairs of points."""
    same = coincide(distances(points, points))
    keep = [True] * len(points)
    for j in range(len(points)):
        keep[j] = not any(keep[i] and same[i, j] for i in range(j))
    return keep


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sets=point_sets())
def test_distances_and_searches_match_scipy_spatial(sets):
    from scipy.spatial import cKDTree
    from scipy.spatial.distance import cdist, pdist

    X, Y = sets
    D = distances(X, Y)
    assert np.array_equal(D, cdist(X, Y))
    pts = np.vstack([X, Y])
    assert min_pairwise_distance(pts) == pdist(pts).min()
    tree_dist, _ = cKDTree(Y).query(X)
    index = PointIndex(Y)
    dist, rows = index.nearest(X)
    assert np.array_equal(dist, D.min(axis=1)) and np.array_equal(D[np.arange(len(X)), rows], dist)
    np.testing.assert_allclose(dist, tree_dist, rtol=1e-13, atol=0.0)  # the tree sums in its own order
    for k in (1, min(3, len(Y))):
        kth = cKDTree(Y).query(X, k=[k])[0]
        assert nn_distance(X, Y, k) == np.sort(D, axis=1)[:, k - 1].max()
        assert math.isclose(nn_distance(X, Y, k), kth.max(), rel_tol=1e-13)
    found = index.lookup(X)
    assert np.array_equal(found >= 0, coincide(tree_dist))
    assert np.array_equal(found[found >= 0], rows[found >= 0])
    assert PointIndex(pts).first_of_each().tolist() == _first_of_each(pts)


def test_point_index_separates_the_points_of_a_grid():
    # a tensor grid has many points on each axis-aligned line; the projection
    # direction is generic, so no two grid points fall in one search window
    g = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 12)] * 3, indexing="ij"), -1).reshape(-1, 3)
    index = PointIndex(g)
    assert np.diff(index._proj).min() > 1e-6
    assert index.first_of_each().all()
    near = g[::-1] + 0.5 * COINCIDENCE_TOL / math.sqrt(3.0)
    assert np.array_equal(index.rows(near), np.arange(len(g))[::-1])

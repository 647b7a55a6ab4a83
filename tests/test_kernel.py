"""Interaction-kernel construction and the local frequency helper."""

from itertools import product

import numpy as np
import pytest

from ipsd.dualspin import ZBDistribution
from ipsd.exact import build_generator_np
from ipsd.kernel import (_ROWSUM_TOL, complete_kernel, config_all, config_bernoulli,
                         config_indicator, explicit_kernel, frequency_of_ones, torus_kernel)
from ipsd.rng import derive_stream
from ipsd.spin import EventTable, NPParams, sample_event_log, simulate_gillespie


def _dense_kernel(k):
    """The n x n matrix q, read off the out-edge rows."""
    q = np.zeros((k.n, k.n))
    for x in range(k.n):
        nbr, w = k.out_edges(x)
        q[x, nbr] = w
    return q


def _local_frequency(k, eta, x, value):
    """Reference f_value(x) = sum_y q(x, y) 1{eta(y) = value} of one site, one dot product."""
    nbr, w = k.out_edges(x)
    return float(w @ (eta[nbr] == value))


def test_torus_d1_neighbors():
    k = torus_kernel(1, 4)
    assert k.n == 4
    nbrs = dict(zip(*k.out_edges(0)))
    assert nbrs == {1: 0.5, 3: 0.5}


def test_torus_row_sums_and_trace():
    for d, L in [(1, 3), (1, 8), (2, 3), (2, 4), (3, 3)]:
        k = torus_kernel(d, L)
        dense = _dense_kernel(k)
        assert np.allclose(dense.sum(axis=1), 1.0)
        assert np.all(np.diag(dense) == 0.0)
        # symmetric: q(x,y) == q(y,x)
        assert np.array_equal(dense, dense.T)


def test_torus_l2_collapses_antipodal_neighbors():
    # On L=2 the +1 and -1 steps reach the same site, so the two weights of
    # 1/(2d) merge into a single edge of weight 1/d.
    k = torus_kernel(2, 2)
    sites, weights = k.out_edges(0)
    assert sorted(sites) == [1, 2]
    assert np.allclose(weights, 0.5)


def test_torus_d2_neighbor_set():
    k = torus_kernel(2, 3)  # row-major: site = x0*3 + x1
    nbrs = dict(zip(*k.out_edges(4)))  # site 4 = (1,1), interior
    assert nbrs == {1: 0.25, 7: 0.25, 3: 0.25, 5: 0.25}


def test_complete_kernel_uniform():
    k = complete_kernel(5)
    dense = _dense_kernel(k)
    off = dense[~np.eye(5, dtype=bool)]
    assert np.allclose(off, 0.25)


def test_complete_kernel_frequency_oracle():
    # From site 4's viewpoint the others are {0,1,2,3} with weight 1/4 each;
    # occupying {0,1} gives a local 1-frequency of exactly 2/4.
    k = complete_kernel(5)
    eta = config_indicator(5, [0, 1])
    assert frequency_of_ones(k, eta)[4] == 0.5
    assert _local_frequency(k, eta, 4, 1) == 0.5
    assert _local_frequency(k, eta, 4, 0) == 0.5


def test_frequency_of_ones_matches_scalar_helper():
    k = torus_kernel(1, 6)
    eta = config_indicator(6, [0, 2, 3])
    f1 = frequency_of_ones(k, eta)
    expect = [_local_frequency(k, eta, x, 1) for x in range(6)]
    assert np.allclose(f1, expect)
    # hand value: site 1 has neighbors {0,2}, both occupied
    assert f1[1] == 1.0
    # site 5 has neighbors {4,0}: only 0 occupied
    assert f1[5] == 0.5
    # a stack of configurations gives each row's vector, bit for bit
    stack = np.stack([eta, config_indicator(6, [5]), config_indicator(6, [])])
    assert np.array_equal(frequency_of_ones(k, stack),
                          [frequency_of_ones(k, row) for row in stack])


def test_explicit_kernel_roundtrip():
    edges = [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0), (2, 0, 1.0)]
    k = explicit_kernel(3, edges)
    dense = _dense_kernel(k)
    assert dense[0, 1] == 0.5 and dense[1, 0] == 1.0
    assert np.allclose(dense.sum(axis=1), 1.0)


def test_explicit_kernel_validation():
    with pytest.raises(ValueError):  # row sums off
        explicit_kernel(2, [(0, 1, 0.5), (1, 0, 1.0)])
    with pytest.raises(ValueError):  # self loop
        explicit_kernel(2, [(0, 0, 1.0), (1, 0, 1.0)])
    with pytest.raises(ValueError):  # not strongly connected (1 unreachable from 2)
        explicit_kernel(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
    with pytest.raises(ValueError):  # duplicate edge
        explicit_kernel(2, [(0, 1, 0.5), (0, 1, 0.5), (1, 0, 1.0)])
    with pytest.raises(ValueError):  # nonpositive weight
        explicit_kernel(2, [(0, 1, 0.0), (1, 0, 1.0)])


def test_config_helpers():
    assert np.array_equal(config_all(3, 1), [1, 1, 1])
    assert np.array_equal(config_all(3, 0), [0, 0, 0])
    assert np.array_equal(config_indicator(4, [1, 3]), [0, 1, 0, 1])
    rng = np.random.default_rng(1)
    eta = config_bernoulli(10_000, 0.25, rng)
    assert eta.dtype == np.uint8
    assert abs(eta.mean() - 0.25) < 0.02
    assert np.array_equal(config_bernoulli(5, 0.0, rng), np.zeros(5))
    assert np.array_equal(config_bernoulli(5, 1.0, rng), np.ones(5))


def test_config_indicator_validation():
    with pytest.raises(ValueError):
        config_indicator(4, [4])
    with pytest.raises(ValueError):
        config_indicator(4, [-1])



_P = NPParams.symmetric(0.3)


@pytest.mark.parametrize("make", [
    lambda: torus_kernel(1, 4),
    lambda: sample_event_log(_P, torus_kernel(1, 4), 1.0, derive_stream(1, "eq-log")),
    lambda: EventTable.build(_P, torus_kernel(1, 4)),
    lambda: build_generator_np(_P, torus_kernel(1, 3)),
    lambda: simulate_gillespie(_P, torus_kernel(1, 4), config_all(4, 1), 1.0,
                               derive_stream(1, "eq-traj")),
    lambda: ZBDistribution([0, 2], [0.5, 0.5]),
], ids=["Kernel", "EventLog", "EventTable", "DenseGenerator", "SpinTrajectory", "ZBDistribution"])
def test_array_dataclasses_compare_by_identity(make):
    # value equality over ndarray fields would raise; these compare and hash by identity
    a, b = make(), make()
    assert a == a and not (a == b) and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# -- array builder against the per-site loop it replaced ------------------------


def _loop_kernel_arrays(n, rows):
    """Reference: the six CSR arrays built one row at a time from (y, w) lists."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    idx_parts, w_parts = [], []
    for x, row in enumerate(rows):
        row_sorted = sorted(row)
        idx_parts.append(np.array([y for y, _ in row_sorted], dtype=np.int64))
        w_parts.append(np.array([w for _, w in row_sorted]))
        assert abs(w_parts[-1].sum() - 1.0) <= _ROWSUM_TOL
        indptr[x + 1] = indptr[x] + len(row_sorted)
    indices, weights = np.concatenate(idx_parts), np.concatenate(w_parts)
    in_rows = [[] for _ in range(n)]
    for x in range(n):
        for y, w in zip(indices[indptr[x]:indptr[x + 1]], weights[indptr[x]:indptr[x + 1]]):
            in_rows[y].append((x, w))
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    ii_parts, iw_parts = [], []
    for y, row in enumerate(in_rows):
        row.sort()
        ii_parts.append(np.array([x for x, _ in row], dtype=np.int64))
        iw_parts.append(np.array([w for _, w in row]))
        in_indptr[y + 1] = in_indptr[y] + len(row)
    return (indptr, indices, weights, in_indptr, np.concatenate(ii_parts),
            np.concatenate(iw_parts))


def _loop_torus_rows(d, L):
    coords = list(product(range(L), repeat=d))
    index = {c: i for i, c in enumerate(coords)}
    w = 1.0 / (2 * d)
    rows = []
    for c in coords:
        acc = {}
        for axis in range(d):
            for step in (1, -1):
                cc = list(c)
                cc[axis] = (cc[axis] + step) % L
                j = index[tuple(cc)]
                acc[j] = acc.get(j, 0.0) + w
        rows.append(list(acc.items()))
    return rows


def _loop_complete_rows(N):
    w = 1.0 / (N - 1)
    return [[(y, w) for y in range(N) if y != x] for x in range(N)]


_EXPLICIT = [
    (3, [(0, 2, 0.25), (0, 1, 0.75), (1, 0, 1.0), (2, 1, 0.5), (2, 0, 0.5)]),
    (4, [(0, 1, 1.0), (1, 2, 0.3), (1, 0, 0.7), (2, 3, 1.0), (3, 0, 0.1), (3, 2, 0.9)]),
]


def _explicit_rows(n, edges):
    rows = [[] for _ in range(n)]
    for x, y, w in edges:
        rows[x].append((y, w))
    return rows


REFERENCE_KERNELS = (
    [(f"torus-{d}-{L}", lambda d=d, L=L: torus_kernel(d, L),
      lambda d=d, L=L: (L ** d, _loop_torus_rows(d, L)))
     for d in (1, 2, 3) for L in (2, 3, 5)]
    + [(f"complete-{N}", lambda N=N: complete_kernel(N),
        lambda N=N: (N, _loop_complete_rows(N)))
       for N in list(range(2, 13)) + [60]]
    + [(f"explicit-{i}", lambda n=n, e=e: explicit_kernel(n, e),
        lambda n=n, e=e: (n, _explicit_rows(n, e)))
       for i, (n, e) in enumerate(_EXPLICIT)]
)


@pytest.mark.parametrize("build, reference", [(b, r) for _, b, r in REFERENCE_KERNELS],
                         ids=[name for name, _, _ in REFERENCE_KERNELS])
def test_kernel_arrays_match_loop_builder(build, reference):
    k = build()
    n, rows = reference()
    assert k.n == n
    got = (k.indptr, k.indices, k.weights, k.in_indptr, k.in_indices, k.in_weights)
    for a, b in zip(got, _loop_kernel_arrays(n, rows)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make, message", [
    (lambda: explicit_kernel(1, []), "at least two sites"),
    (lambda: explicit_kernel(2, [(0, 0, 1.0), (1, 0, 1.0)]), "self-loop at site 0"),
    (lambda: explicit_kernel(2, [(0, 2, 1.0), (1, 0, 1.0)]), "edge target 2 out of range"),
    (lambda: explicit_kernel(2, [(0, 1, 1.0), (2, 0, 1.0)]), "edge source 2 out of range"),
    (lambda: explicit_kernel(2, [(0, 1, -1.0), (1, 0, 1.0)]), "weights must be positive"),
    (lambda: explicit_kernel(3, [(0, 1, np.nan), (1, 2, 1.0), (2, 0, 1.0)]),
     "kernel weights must be positive"),
    (lambda: explicit_kernel(2, [(0, 1, np.inf), (1, 0, 1.0)]), "row 0 of kernel sums to .*inf"),
    (lambda: explicit_kernel(2, [(0, 1, 0.5), (1, 0, 1.0)]), "row 0 of kernel sums to"),
    (lambda: explicit_kernel(3, [(0, 1, 1.0), (1, 0, 1.0)]), "row 2 of kernel sums to"),
    (lambda: explicit_kernel(2, [(0, 1, 0.5), (0, 1, 0.5), (1, 0, 1.0)]), "duplicate edge in row 0"),
    (lambda: explicit_kernel(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]), "not irreducible"),
    (lambda: explicit_kernel(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]), "not irreducible"),
    (lambda: torus_kernel(0, 3), "torus needs d >= 1 and L >= 2"),
    (lambda: torus_kernel(1, 1), "torus needs d >= 1 and L >= 2"),
    (lambda: complete_kernel(1), "complete kernel needs N >= 2"),
])
def test_kernel_builder_rejections(make, message):
    with pytest.raises(ValueError, match=message):
        make()

"""Property tests of W2^2 invariants on small random measures.

Datasets mix uniform and non-uniform measures of 1-4 atoms, so
``w2_matrix`` sends their pairs through the batched permutation minimum,
the assignment solver and the LP.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wassmatrix import (
    DiscreteMeasure,
    MeasureDataset,
    cost_matrix,
    w2_matrix,
    w2_squared,
    w2_squared_1d,
    w2_squared_bruteforce,
)
from wassmatrix import ot

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
COORDS = st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)


def close(a, b):
    return np.abs(np.asarray(a) - b) <= 1e-9 * (1.0 + np.abs(b))


@st.composite
def measures(draw, dim):
    m = draw(st.integers(1, 4))
    points = draw(arrays(np.float64, (m, dim), elements=COORDS))
    if draw(st.booleans()):
        weights = np.ones(m)
    else:
        weights = draw(arrays(np.float64, m, elements=st.integers(1, 5)))
    return DiscreteMeasure(points, weights)


@st.composite
def datasets(draw, min_size=2, max_size=4):
    dim = draw(st.integers(1, 2))
    size = draw(st.integers(min_size, max_size))
    return MeasureDataset([draw(measures(dim)) for _ in range(size)])


@PROPERTY
@given(datasets())
def test_symmetry(data):
    forward = w2_matrix(data).values
    backward = w2_matrix(MeasureDataset(data.measures[::-1])).values
    assert close(backward[::-1, ::-1], forward).all()


@PROPERTY
@given(datasets())
def test_zero_diagonal(data):
    # each measure also meets an equal copy of itself off the diagonal
    n = len(data)
    vals = w2_matrix(MeasureDataset(data.measures * 2)).values
    assert np.all(np.diagonal(vals) == 0.0)
    assert close(vals[np.arange(n), np.arange(n) + n], 0.0).all()


@PROPERTY
@given(datasets(), st.data())
def test_translation_invariance(data, draw):
    shift = draw.draw(arrays(np.float64, data[0].dimension, elements=COORDS))
    moved = MeasureDataset([mu.translated(shift) for mu in data.measures])
    assert close(w2_matrix(moved).values, w2_matrix(data).values).all()


@PROPERTY
@given(datasets(min_size=3, max_size=5))
def test_triangle_inequality(data):
    root = np.sqrt(w2_matrix(data).values)
    through = root[:, :, None] + root[None, :, :]  # via k: d(i,k) + d(k,j)
    assert np.all(root[:, None, :] <= through + 1e-7)


@PROPERTY
@given(datasets())
def test_routes_agree(data):
    vals = w2_matrix(data).values
    for i, j in zip(*np.triu_indices(len(data), k=1)):
        mu, nu = data[int(i)], data[int(j)]
        lp = ot._solve_lp(cost_matrix(mu, nu), mu.weights, nu.weights)
        routes = [lp, w2_squared(mu, nu)]
        if mu.num_atoms == nu.num_atoms and mu.is_uniform() and nu.is_uniform():
            routes.append(w2_squared_bruteforce(mu, nu))
        if mu.dimension == 1:
            routes.append(w2_squared_1d(mu, nu))
        assert close(routes, vals[i, j]).all()

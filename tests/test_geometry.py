import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflected_stable.geometry import (AnnularShell, Ball, DomainError, Interval,
                                       IntervalUnion, Region1D, build_grid,
                                       exterior_complement, exterior_shell)
from reflected_stable.stable_core import StableParams, levy_interval_mass

import oracles


def test_interval_basics():
    D = Interval(-1.0, 1.0)
    assert D.boundary_distance(0.0) == 1.0
    assert D.boundary_distance(0.9) == pytest.approx(0.1)
    assert D.boundary_distance(-3.0) == 2.0
    assert D.contains(0.999) and not D.contains(1.0)
    for a, b in ((1.0, 1.0), (1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(DomainError):
            Interval(a, b)


def test_ball_distance_d2():
    B = Ball([0.0, 0.0], 1.0)
    assert B.boundary_distance(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert B.boundary_distance(np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert B.contains(np.array([0.3, 0.3])).all()
    with pytest.raises(DomainError):
        Ball([0.0, 0.0], 0.0)


def test_union_validation():
    with pytest.raises(DomainError):
        IntervalUnion([[-1.0, 0.0], [-0.5, 1.0]])  # overlap
    with pytest.raises(DomainError):
        IntervalUnion([[0.0, 0.0]])
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    assert np.diff(U.intervals).sum() == pytest.approx(1.6)
    assert not U.contains(0.0)
    assert U.boundary_distance(0.0) == pytest.approx(0.2)


def test_union_rejects_pieces_that_share_an_endpoint():
    # D lies on both sides of the shared point 0, so the union is not Lipschitz
    for pieces in ([[-1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]):
        with pytest.raises(DomainError, match="share an endpoint"):
            IntervalUnion(pieces)


def test_interval_is_the_one_piece_union():
    D, U = Interval(-1.0, 1.0), IntervalUnion([[-1.0, 1.0]])
    assert isinstance(D, IntervalUnion)
    x = np.linspace(-2.0, 2.0, 41)
    assert np.array_equal(D.contains(x), U.contains(x))
    assert np.array_equal(D.boundary_distance(x), U.boundary_distance(x))
    assert np.array_equal(D.intervals, U.intervals)
    assert np.diff(D.intervals).sum() == 2.0
    assert D.bounding_box == U.bounding_box == (-1.0, 1.0)
    assert all(type(v) is float for v in D.bounding_box + U.bounding_box)
    # the interval keeps its two-comparison contains; tracers wrap each class's own
    for cls in (Interval, IntervalUnion, Ball):
        assert "contains" in cls.__dict__


def test_boundary_distance_is_the_min_over_endpoints():
    # the running minimum over the endpoints against one min over a (..., 2k)
    # array of distances, inside, outside, on the boundary, at signed zeros and
    # at non-finite points, for one interval and for a three-piece union
    x = np.array([-0.999, -0.25, 0.0, -0.0, 0.3, 0.4999, -1.0, 0.5, -1.0 - 1e-12,
                  0.5 + 1e-12, -7.0, 3.0, np.inf, -np.inf, np.nan, 5e-324])
    for D in (Interval(-1.0, 0.5), IntervalUnion([[-1.0, 0.5], [0.7, 1.2], [2.0, 2.5]])):
        endpoints = D.intervals.ravel()
        d = D.boundary_distance(x)
        assert np.array_equal(d, np.min(np.abs(x[:, None] - endpoints), axis=-1),
                              equal_nan=True)
        assert np.isnan(d[-2]) and np.isinf(d[-4:-2]).all()
        assert np.array_equal(D.boundary_distance(x.reshape(4, 4)), d.reshape(4, 4),
                              equal_nan=True)
        for v, dv in zip(x, d):
            assert np.array_equal(D.boundary_distance(v), dv, equal_nan=True)


def test_ball_needs_two_or_more_dimensions():
    for center in ([0.0], 0.0):
        with pytest.raises(DomainError, match=r"Interval\(c - r, c \+ r\)"):
            Ball(center, 1.0)
    assert isinstance(exterior_shell(Ball([0.0, 0.0], 1.0), 0.5), AnnularShell)
    with pytest.raises(DomainError):
        exterior_complement(Ball([0.0, 0.0], 1.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.999, 0.999))
def test_boundary_distance_zero_iff_boundary(x):
    D = Interval(-1.0, 1.0)
    assert D.boundary_distance(x) > 0
    for e in (-1.0, 1.0):
        assert D.boundary_distance(e) == 0.0
        assert D.boundary_distance(e + 1e-12) > 0
        assert D.boundary_distance(e - 1e-12) > 0


def test_exterior_shell_interval():
    D = Interval(-1.0, 1.0)
    sh = exterior_shell(D, 0.5)
    assert np.allclose(sh.pieces, [[-1.5, -1.0], [1.0, 1.5]])
    assert sh.length() == pytest.approx(1.0)


def test_exterior_shell_monotone():
    D = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    small = exterior_shell(D, 0.05)
    big = exterior_shell(D, 0.3)
    assert oracles.is_subset(small, big)
    # shells never meet D
    xs = np.linspace(-2, 2, 2001)
    assert not np.any(big.contains(xs) & D.contains(xs))


def test_gap_shell_saturates():
    # once r exceeds half the gap the whole gap belongs to the shell
    D = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    sh = exterior_shell(D, 0.3)
    gap = Region1D([(-0.2, 0.2)])
    assert oracles.is_subset(gap, sh)


def test_shell_levy_mass_closed_form():
    # mass of the depth-1/2 shell under the jump kernel from the center of
    # (-1,1) at alpha=1: 2/pi * (1/1 - 1/1.5) = 2/(3 pi)
    p = StableParams(1, 1.0)
    D = Interval(-1.0, 1.0)
    sh = exterior_shell(D, 0.5)
    mass = sum(levy_interval_mass(p, 0.0, a, b) for a, b in sh.pieces)
    assert mass == pytest.approx(2.0 / (3.0 * np.pi), rel=1e-12)


def test_exterior_complement_pieces():
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    ext = exterior_complement(U)
    assert len(ext.pieces) == 3
    assert ext.contains(0.0) and ext.contains(5.0) and not ext.contains(0.5)


def test_build_grid_uniform():
    D = Interval(-1.0, 1.0)
    g = build_grid(D, 4)
    assert np.allclose(g.widths, 0.5)
    assert np.allclose(g.nodes, [-0.75, -0.25, 0.25, 0.75])
    assert g.widths.sum() == pytest.approx(np.diff(D.intervals).sum())
    g2 = build_grid(D, 8)
    assert g2.h == pytest.approx(g.h / 2.0)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.0), (0.1, 0.7), (-3.7, 12.1),
                                  (0.0, 1e-9), (1e5, 1e5 + 3.7)])
def test_build_grid_interval_is_one_linspace(a, b):
    # an interval takes all n cells by the union's proportional rule:
    # n * (l / l) is n exactly, so no cell moves
    for n in (1, 2, 3, 4, 7, 100, 400, 600, 1600, 10007):
        edges = np.linspace(a, b, n + 1)
        expected = np.stack([edges[:-1], edges[1:]], axis=1)
        assert np.array_equal(build_grid(Interval(a, b), n).cells, expected), n


def test_build_grid_needs_a_cell_per_component():
    for n_cells in (0, -1):
        with pytest.raises(ValueError):
            build_grid(Interval(-1.0, 1.0), n_cells)
    with pytest.raises(ValueError):
        build_grid(IntervalUnion([[-1.0, -0.2], [0.2, 1.0]]), 1)


def test_build_grid_union_tiles_exactly():
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.4]])
    g = build_grid(U, 33)
    assert g.n == 33
    assert g.widths.sum() == pytest.approx(np.diff(U.intervals).sum(), rel=1e-14)
    # node i lies in cell i
    assert np.all((g.nodes > g.cells[:, 0]) & (g.nodes < g.cells[:, 1]))
    # cells nest inside the components
    assert np.all(U.contains(g.nodes))


def test_build_grid_over_allotment_gives_each_component_a_cell():
    # floors to counts [1, 1, 2] for 3 cells; the fix-up takes one back from
    # the long component, leaving one cell per component
    U = IntervalUnion([[0.0, 0.01], [0.02, 0.03], [0.1, 10.1]])
    g = build_grid(U, 3)
    assert np.array_equal(g.cells, U.intervals)
    assert g.widths.sum() == pytest.approx(np.diff(U.intervals).sum(), rel=1e-14)


def test_cell_index_roundtrip():
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    g = build_grid(U, 16)
    idx = g.cell_index(g.nodes)
    assert np.array_equal(idx, np.arange(g.n))


def test_region_ops():
    r = Region1D([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
    assert len(r.pieces) == 2  # merged
    assert r.length() == pytest.approx(3.0)
    inter = r.intersect(Region1D([(1.5, 3.5)]))
    assert inter.length() == pytest.approx(1.0)


def _reference_cell_index(grid, x):
    idx = np.searchsorted(grid.cells[:, 0], x, side="right") - 1
    return np.clip(idx, 0, grid.n - 1)


@pytest.mark.parametrize("n", [1, 7, 400])
def test_cell_index_matches_binary_search(n):
    # the O(1) interval index equals the searchsorted reference everywhere,
    # including cell edges, their float neighbours, outside D, inf and nan
    rng = np.random.default_rng(n)
    for a, b in ((-1.0, 1.0), (0.1, 0.7), (1e5, 1e5 + 3.7)):
        g = build_grid(Interval(a, b), n)
        edges = np.concatenate([g.cells[:, 0], g.cells[-1:, 1]])
        x = np.concatenate([
            rng.uniform(a, b, 5000),
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            rng.uniform(a - 2.0, a, 100), rng.uniform(b, b + 2.0, 100),
            [np.inf, -np.inf, np.nan, 1e308, -1e308],
        ])
        assert np.array_equal(g.cell_index(x), _reference_cell_index(g, x))
        x2 = np.stack([x, x[::-1]])
        assert np.array_equal(g.cell_index(x2), _reference_cell_index(g, x2))
        assert g.cell_index(np.float64(edges[n // 2])) == _reference_cell_index(g, edges[n // 2])
    # on a union each point's component comes from comparisons with the
    # component starts, and nan still lands in the last cell
    for ivs in ([[-1.0, -0.2], [0.1, 1.0]], [[-1.0, 0.5], [0.6, 0.6000001]],
                [[2.0 * k, 2.0 * k + 1.0] for k in range(6)]):
        g = build_grid(IntervalUnion(ivs), max(n, len(ivs)))
        lo, hi = ivs[0][0], ivs[-1][1]
        x = np.concatenate([rng.uniform(lo - 0.5, hi + 0.5, 5000), g.cells.ravel(),
                            np.nextafter(g.cells.ravel(), np.inf),
                            np.nextafter(g.cells.ravel(), -np.inf), [np.inf, -np.inf, np.nan]])
        assert np.array_equal(g.cell_index(x), _reference_cell_index(g, x)), ivs
        x2 = np.stack([x, x[::-1]])
        assert np.array_equal(g.cell_index(x2), _reference_cell_index(g, x2)), ivs
        assert g.cell_index(np.float64(np.nan)) == g.n - 1


@pytest.mark.parametrize("intervals", [
    [[-1.0, 1.0]],
    [[-1.0, -0.2], [0.1, 1.0]],
    [[-3.0, -2.9], [-1.0, 0.5], [0.6, 4.0]],
], ids=["interval", "two-piece", "three-piece"])
def test_cell_index_matches_binary_search_on_a_million_points(intervals):
    # one index for every grid: each point's component, then the affine floor
    # within it; points in the gaps between components land in the last
    # cell on their left
    g = build_grid(IntervalUnion(intervals), 400)
    ivs = g.domain.intervals
    rng = np.random.default_rng(len(ivs))
    edges = g.cells.ravel()
    gaps = rng.uniform(ivs[:-1, 1], ivs[1:, 0], (1000, len(ivs) - 1)).ravel()
    special = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                              gaps, ivs[1:, 0] - 0.5 * (ivs[1:, 0] - ivs[:-1, 1]),
                              [np.inf, -np.inf, np.nan, 1e308, -1e308]])
    x = np.concatenate([special, rng.uniform(ivs[0, 0] - 1.0, ivs[-1, 1] + 1.0,
                                             10 ** 6 - special.size)])
    assert np.array_equal(g.cell_index(x), _reference_cell_index(g, x))

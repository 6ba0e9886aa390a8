import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflected_stable.geometry import (AnnularShell, Ball, DomainError, Interval,
                                       IntervalUnion, Region1D, boundary_distance,
                                       build_grid, exterior_complement, exterior_shell)
from reflected_stable.stable_core import StableParams, levy_interval_mass


def test_interval_basics():
    D = Interval(-1.0, 1.0)
    assert boundary_distance(D, 0.0) == 1.0
    assert boundary_distance(D, 0.9) == pytest.approx(0.1)
    assert boundary_distance(D, -3.0) == 2.0
    assert D.contains(0.999) and not D.contains(1.0)
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)


def test_ball_distance_d2():
    B = Ball([0.0, 0.0], 1.0)
    assert boundary_distance(B, np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert boundary_distance(B, np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert B.contains(np.array([0.3, 0.3])).all()
    with pytest.raises(DomainError):
        Ball([0.0, 0.0], 0.0)


def test_union_validation():
    with pytest.raises(DomainError):
        IntervalUnion([[-1.0, 0.0], [-0.5, 1.0]])  # overlap
    with pytest.raises(DomainError):
        IntervalUnion([[0.0, 0.0]])
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    assert U.measure() == pytest.approx(1.6)
    assert not U.contains(0.0)
    assert boundary_distance(U, 0.0) == pytest.approx(0.2)


def test_interval_is_the_one_piece_union():
    D, U = Interval(-1.0, 1.0), IntervalUnion([[-1.0, 1.0]])
    assert isinstance(D, IntervalUnion)
    x = np.linspace(-2.0, 2.0, 41)
    assert np.array_equal(D.contains(x), U.contains(x))
    assert np.array_equal(D.boundary_distance(x), U.boundary_distance(x))
    assert np.array_equal(D.intervals, U.intervals)
    assert D.measure() == U.measure() == 2.0
    assert D.bounding_box == U.bounding_box == (-1.0, 1.0)
    assert all(type(v) is float for v in D.bounding_box + U.bounding_box)
    # the interval keeps its two-comparison contains; tracers wrap each class's own
    for cls in (Interval, IntervalUnion, Ball):
        assert "contains" in cls.__dict__


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
    assert boundary_distance(D, x) > 0
    for e in (-1.0, 1.0):
        assert boundary_distance(D, e) == 0.0
        assert boundary_distance(D, e + 1e-12) > 0
        assert boundary_distance(D, e - 1e-12) > 0


def test_exterior_shell_interval():
    D = Interval(-1.0, 1.0)
    sh = exterior_shell(D, 0.5)
    assert np.allclose(sh.pieces, [[-1.5, -1.0], [1.0, 1.5]])
    assert sh.length() == pytest.approx(1.0)


def test_exterior_shell_monotone():
    D = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    small = exterior_shell(D, 0.05)
    big = exterior_shell(D, 0.3)
    assert small.is_subset_of(big)
    # shells never meet D
    xs = np.linspace(-2, 2, 2001)
    assert not np.any(big.contains(xs) & D.contains(xs))


def test_gap_shell_saturates():
    # once r exceeds half the gap the whole gap belongs to the shell
    D = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    sh = exterior_shell(D, 0.3)
    gap = Region1D([(-0.2, 0.2)])
    assert gap.is_subset_of(sh)


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
    assert g.widths.sum() == pytest.approx(D.measure())
    g2 = build_grid(D, 8)
    assert g2.h == pytest.approx(g.h / 2.0)


def test_build_grid_union_tiles_exactly():
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.4]])
    g = build_grid(U, 33)
    assert g.n == 33
    assert g.widths.sum() == pytest.approx(U.measure(), rel=1e-14)
    # node i lies in cell i
    assert np.all((g.nodes > g.cells[:, 0]) & (g.nodes < g.cells[:, 1]))
    # cells nest inside the components
    assert np.all(U.contains(g.nodes))


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
    cells, mids, widths = Region1D([(0.0, 1.0)]).quadrature_cells(4)
    assert np.allclose(widths, 0.25)
    assert np.allclose(mids, [0.125, 0.375, 0.625, 0.875])

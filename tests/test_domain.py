import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicvx import (
    Interval,
    anchored_grid,
    make_grid,
    parse_interval,
    restrict,
)

from dinicvx.domain import _grids

from conftest import phi_of


class TestInterval:
    def test_parse_round_trip(self):
        for s in ["[-1,1]", "(0,1]", "[0,1)", "(0,1)", "(-inf,inf)", "(0,inf)"]:
            assert str(parse_interval(s)) == s

    def test_contains_respects_openness(self):
        iv = parse_interval("(0,1]")
        assert not iv.contains(0.0)
        assert iv.contains(1.0)
        assert iv.contains(0.5)
        assert not iv.contains(float("nan"))

    def test_contains_many(self):
        iv = parse_interval("[0,1)")
        got = iv.contains_many(np.asarray([-0.1, 0.0, 0.5, 1.0, np.nan]))
        assert got.tolist() == [False, True, True, False, False]

    def test_contains_many_is_the_open_closed_test(self):
        # contains_many is the extent test every probe uses; it must agree
        # with comparing against each end, strictly where the end is open
        inf = float("inf")
        ends = [-inf, -1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e308, inf]
        checked = 0
        for lo in ends:
            for hi in ends:
                for lo_c in (False, True):
                    for hi_c in (False, True):
                        try:
                            iv = Interval(lo, hi, lo_c, hi_c)
                        except ValueError:
                            continue
                        near = [np.nextafter(e, d) for e in (lo, hi) for d in (-inf, inf)]
                        xs = np.array(ends + near + [np.nan, -0.0, 0.0, 0.5])
                        lo_ok = xs >= lo if lo_c else xs > lo
                        hi_ok = xs <= hi if hi_c else xs < hi
                        want = lo_ok & hi_ok & ~np.isnan(xs)
                        assert iv.contains_many(xs).tolist() == want.tolist(), iv
                        assert [iv.contains(x) for x in xs] == want.tolist(), iv
                        checked += 1
        assert checked > 150

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)
        with pytest.raises(ValueError):
            Interval(0.0, 0.0, lo_closed=False)
        with pytest.raises(ValueError):
            Interval(float("-inf"), 0.0, lo_closed=True)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            parse_interval("0,1")
        with pytest.raises(ValueError):
            parse_interval("[a,b]")

    def test_degenerate_closed_allowed(self):
        iv = Interval(2.0, 2.0)
        assert iv.contains(2.0)


class TestMakeGrid:
    def test_closed_endpoints_included_exactly(self):
        g = make_grid(parse_interval("[-1,1]"), 257)
        assert g.points[0, 0] == -1.0
        assert g.points[0, -1] == 1.0
        assert g.n[0] == 257

    def test_open_endpoints_pulled_in_by_margin(self):
        g = make_grid(parse_interval("(0,1]"), 3, margin=1e-2)
        assert g.points[0].tolist() == [0.01, 0.505, 1.0]

    def test_every_point_in_domain(self):
        g = make_grid(parse_interval("(0,1)"), 257)
        assert g.interval[0].contains_many(g.points[0]).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_grid(parse_interval("(0,inf)"), 10)
        with pytest.raises(ValueError):
            make_grid(parse_interval("[0,1]"), 1)
        with pytest.raises(ValueError):
            make_grid(parse_interval("[0,1]"), 10, margin=0.0)
        with pytest.raises(ValueError):
            make_grid(parse_interval("(0,1)"), 10, margin=0.6)

    @pytest.mark.parametrize("domain", ["(-1,1)", "[-1,1]"])
    def test_rejects_nan_margin(self, domain):
        with pytest.raises(ValueError, match="margin"):
            make_grid(parse_interval(domain), 10, margin=float("nan"))

    @pytest.mark.parametrize("domain", ["[-1e308,1e308]", "(-1.7e308,1.7e308)"])
    def test_rejects_infinite_width(self, domain):
        # finite endpoints whose difference overflows, rejected before
        # linspace can warn about it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infinite width"):
                make_grid(parse_interval(domain), 10)

    # the margin is below half an ulp of an open end, so lo + margin or
    # hi - margin rounds back onto that end
    @pytest.mark.parametrize("domain,margin", [
        ("(3e10,30000000001)", 1e-6), ("(3e10,30000000001]", 1e-6),
        ("[3e10,30000000001)", 1e-6), ("(1e8,100000001)", 1e-9),
    ])
    def test_rejects_a_margin_that_rounds_onto_an_open_end(self, domain, margin):
        with pytest.raises(ValueError, match="rounds onto an open end"):
            make_grid(parse_interval(domain), 9, margin)

    def test_margin_of_one_ulp_is_enough(self):
        iv = parse_interval("(3e10,30000000001)")
        ulp = float(np.spacing(3e10))
        g = make_grid(iv, 9, ulp)
        assert g.points[0, 0] == 3e10 + ulp
        assert iv.contains_many(g.points).all()

    @given(st.integers(2, 400), st.booleans(), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_grid_sorted_and_inside(self, n, lo_c, hi_c):
        iv = Interval(-2.0, 3.0, lo_c, hi_c)
        g = make_grid(iv, n)
        assert np.all(np.diff(g.points) > 0)
        assert iv.contains_many(g.points).all()


def seed_grid(iv: Interval, n: int, margin: float) -> np.ndarray:
    """One interval's grid as the scalar make_grid made it, checks and
    messages in its order; raises ValueError as it did."""
    if not iv.bounded:
        raise ValueError(f"cannot grid unbounded interval {iv}")
    if iv.lo == iv.hi:
        raise ValueError("cannot grid a degenerate interval")
    if n < 2:
        raise ValueError(f"grid needs n >= 2, got {n}")
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    lo = iv.lo if iv.lo_closed else iv.lo + margin
    hi = iv.hi if iv.hi_closed else iv.hi - margin
    if not float(hi) - float(lo) < float("inf"):
        raise ValueError(f"cannot grid interval {iv} of infinite width")
    if lo >= hi:
        raise ValueError(f"interval {iv} too narrow for margin {margin}")
    if not (iv.contains(lo) and iv.contains(hi)):
        raise ValueError(f"margin {margin} rounds onto an open end of {iv}")
    return np.linspace(lo, hi, n)


# ends up to +-1e300, near zero (where a width of a few ulps is subnormal
# and a row's step can round to 0), and where a margin of 1e-6 rounds onto
# an open end; margins from too wide for a few ulps to not positive
_ENDS = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -5e-324, 1e-320, 1.0, 3e10]))
_MARGINS = [1e-6, 1e-9, 0.25, 1e-300, 5e-324, 0.0, -1e-6, float("nan")]


def _ends(draw) -> tuple[float, float]:
    """Ends a few ulps apart, or any two ends in order."""
    lo = hi = draw(_ENDS)
    for _ in range(draw(st.integers(1, 6))):
        hi = np.nextafter(hi, np.inf)
    return lo, float(hi) if draw(st.booleans()) else max(float(hi), draw(_ENDS))


@st.composite
def griddable(draw, margin: float) -> Interval:
    """An interval that ``margin`` grids: its open ends, where they leave
    room for it, else closed ones."""
    lo, hi = _ends(draw)
    iv = Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    try:
        seed_grid(iv, 2, margin)
    except ValueError:
        return Interval(lo, hi)
    return iv


@st.composite
def ungriddable(draw) -> Interval:
    """Unbounded, degenerate, or open on an end a margin may cross or round onto."""
    lo, hi = _ends(draw)
    kind = draw(st.sampled_from(["unbounded", "degenerate", "open"]))
    if kind == "unbounded":
        return Interval(-np.inf, lo, False, draw(st.booleans()))
    return Interval(lo, lo) if kind == "degenerate" else Interval(lo, hi, False, False)


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_grid_rows_are_linspace_and_errors_the_scalar_ones(data):
    # a batch of 1 to 30 intervals, maybe with a row whose step is 0 (numpy
    # grids it apart) and one interval that cannot be gridded, at any place
    margin = data.draw(st.sampled_from(_MARGINS))
    n = data.draw(st.integers(0, 300))
    ivs = data.draw(st.lists(griddable(margin), min_size=1, max_size=30))
    if data.draw(st.booleans()):
        ivs.insert(data.draw(st.integers(0, len(ivs))), Interval(0.0, 5e-324))
    bad = data.draw(st.none() | ungriddable())
    if bad is not None:
        ivs.insert(data.draw(st.integers(0, len(ivs))), bad)
    want = []
    for iv in ivs:
        try:
            want.append(seed_grid(iv, n, margin))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _grids(tuple(ivs), n, margin)
            assert str(got.value) == str(exc)
            return
    got = _grids(tuple(ivs), n, margin)
    assert got.shape == (len(ivs), n)
    for iv, row, ref in zip(ivs, got, want):
        assert row.tobytes() == ref.tobytes()
        assert make_grid(iv, n, margin).points.tobytes() == ref.tobytes()


class TestAnchoredGrid:
    def test_contains_anchors_exactly(self):
        g = anchored_grid((parse_interval("[-0.3,1.7]"),), 257)
        assert 0.0 in g.points
        assert 1.0 in g.points

    def test_out_of_range_anchor_skipped(self):
        g = anchored_grid((parse_interval("[2,3]"),), 64)
        assert 0.0 not in g.points and 1.0 not in g.points
        assert g.n[0] == 64

    def test_snap_avoids_near_duplicates(self):
        # [0,2] linspace already contains 0.0 and 1.0 exactly: no insertion
        g = anchored_grid((parse_interval("[0,2]"),), 257)
        pts = g.points[0]
        assert g.n[0] == 257
        assert np.min(np.diff(pts)) > (pts[1] - pts[0]) * 0.5

    @given(st.floats(-1, 0, allow_nan=False), st.floats(1, 2, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_no_tiny_gaps(self, lo, hi):
        iv = Interval(float(lo), float(hi))
        g = anchored_grid((iv,), 101)
        gaps = np.diff(g.points[0])
        assert np.all(gaps > 0)
        # snapping keeps every gap a meaningful fraction of the base spacing
        base = (g.points[0, -1] - g.points[0, 0]) / 100
        assert np.min(gaps) > base * 1e-7


def anchored_row(iv: Interval, n: int, margin: float) -> np.ndarray:
    """One interval's anchored grid by ``np.insert``: each anchor in range
    replaces the nearest grid point within ``spacing * 1e-6`` of it, or is
    inserted in order."""
    pts = make_grid(iv, n, margin).points[0]
    snap, new = (pts[1] - pts[0]) * 1e-6, []
    for a in (0.0, 1.0):
        if pts[0] <= a <= pts[-1]:
            k = int(np.argmin(np.abs(pts - a)))
            if abs(pts[k] - a) <= snap:
                pts[k] = a
            else:
                new.append(a)
    return np.insert(pts, np.searchsorted(pts, new), new)


@st.composite
def near_anchor(draw, n: int) -> Interval:
    """An interval whose n-point grid with spacing about h puts an anchor
    outside it, on a grid point, within snap distance of one, or between
    two, with either end open or closed."""
    a = draw(st.sampled_from([0.0, 1.0]))
    h = draw(st.sampled_from([0.125, 0.1, 1 / 3, 0.37, 2.0]))
    k = draw(st.integers(-2, n + 1))  # the grid index at the anchor
    off = draw(st.sampled_from([0.0, 3e-7, -3e-7, 0.5, 0.25, -0.4])) * h
    lo = a - k * h + off
    return Interval(lo, lo + (n - 1) * h, draw(st.booleans()), draw(st.booleans()))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_anchored_rows_are_each_interval_alone(data):
    # a ragged batch: rows of n, n + 1 and n + 2 points
    n = data.draw(st.integers(2, 60))
    margin = data.draw(st.sampled_from([1e-6, 1e-9]))
    loose = st.tuples(st.floats(-3, 3), st.floats(1e-3, 6), st.booleans(), st.booleans()).map(
        lambda t: Interval(t[0], t[0] + t[1], t[2], t[3]))
    ivs = tuple(data.draw(st.lists(near_anchor(n) | loose, min_size=1, max_size=12)))
    g = anchored_grid(ivs, n, margin)
    assert g.points.flags.c_contiguous
    assert g.points.shape == (len(ivs), int(g.n.max()))
    for i, iv in enumerate(ivs):
        alone, ref = anchored_grid((iv,), n, margin), anchored_row(iv, n, margin)
        assert g.n[i] == alone.n[0] == ref.size
        assert g.points[i, :ref.size].tobytes() == alone.points[0].tobytes() == ref.tobytes()
        assert np.isnan(g.points[i, ref.size:]).all()
        assert (g.valid[i] == (np.arange(g.points.shape[1]) < ref.size)).all()


class TestRestrict:
    def test_endpoint_values_exact(self):
        f = phi_of("x1^2 + x2^2", 2)
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        x = np.asarray([0.3, -0.2])
        y = np.asarray([-0.5, 0.7])
        r = restrict(f, x[None], y[None], box)
        assert r.phi(np.asarray([0.0]))[0] == f(x[None, :])[0]
        assert r.phi(np.asarray([1.0]))[0] == f(y[None, :])[0]
        assert r.feasible[0].contains(0.0) and r.feasible[0].contains(1.0)

    def test_feasible_matches_box_membership(self):
        f = phi_of("x1 + x2", 2)
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        r = restrict(f, np.asarray([[0.0, 0.0]]), np.asarray([[1.0, 0.5]]), box)
        # s=1 puts the first coordinate at the closed face: still feasible
        assert r.feasible[0].hi == 1.0 and r.feasible[0].hi_closed
        # beyond s=1 the first coordinate leaves the box
        assert not r.feasible[0].contains(1.0 + 1e-9)

    def test_openness_carries_over(self):
        f = phi_of("x1 + x2", 2)
        box = (parse_interval("(-1,1)"), parse_interval("[-1,1]"))
        r = restrict(f, np.asarray([[0.0, 0.0]]), np.asarray([[0.5, 0.5]]), box)
        assert not r.feasible[0].hi_closed  # binding face is open

    def test_phi_is_f_along_the_line(self):
        f = phi_of("x1", 2)
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        r = restrict(f, np.asarray([[0.0, -1.0]]), np.asarray([[1.0, 1.0]]), box)
        np.testing.assert_allclose(r.phi(np.asarray([0.5])), [0.5])
        f2 = phi_of("x2", 2)
        r2 = restrict(f2, np.asarray([[0.0, -1.0]]), np.asarray([[1.0, 1.0]]), box)
        np.testing.assert_allclose(r2.phi(np.asarray([0.5])), [0.0], atol=1e-15)

    def test_rejects_equal_points_and_outside(self):
        f = phi_of("x1 + x2", 2)
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        p = np.asarray([0.0, 0.0])
        with pytest.raises(ValueError):
            restrict(f, p[None], p[None].copy(), box)
        with pytest.raises(ValueError):
            restrict(f, p[None], np.asarray([[2.0, 0.0]]), box)

    def test_rejects_single_points(self):
        # one pair is a one-line stack, x[None] and y[None]
        f = phi_of("x1 + x2", 2)
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        with pytest.raises(ValueError, match="stacks"):
            restrict(f, np.asarray([0.0, 0.0]), np.asarray([0.5, 0.5]), box)

    def test_subnormal_direction_overflows_to_open_unbounded(self):
        # (hi - x) / d overflows when d is subnormal; the parameter bound
        # must become an open infinity, never a closed one
        f = phi_of("x1^2 + x2^2", 2)
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        r = restrict(f, np.asarray([[0.0, 0.0]]), np.asarray([[0.0, 5e-324]]), box)
        assert np.isinf(r.feasible[0].lo) and np.isinf(r.feasible[0].hi)
        assert not r.feasible[0].lo_closed and not r.feasible[0].hi_closed
        assert r.feasible[0].contains(0.0) and r.feasible[0].contains(1.0)

    @given(
        st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
        st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
    )
    @settings(max_examples=50, deadline=None)
    def test_feasible_parameters_stay_inside(self, xt, yt):
        x = np.asarray(xt)
        y = np.asarray(yt)
        if np.array_equal(x, y):
            return
        f = phi_of("x1^2 + x2^2", 2)
        box = (parse_interval("[-1,1]"), parse_interval("[-1,1]"))
        r = restrict(f, x[None], y[None], box)
        lo = max(r.feasible[0].lo, -10.0)
        hi = min(r.feasible[0].hi, 10.0)
        for s in np.linspace(lo + 1e-9, hi - 1e-9, 17):
            pt = (1.0 - s) * x + s * y
            assert all(iv.contains(c) or abs(c) > 1 - 1e-7
                       for iv, c in zip(box, pt))

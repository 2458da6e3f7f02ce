"""Exact polytope machinery: time sharing, containment, dominance, JSON."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc.errors import DimensionMismatchError, InvalidInputError
from compound_bcc.regions import (
    RateRegion,
    contains,
    dominates,
    equivalent,
    load_region,
    nontrivial_vertices,
    region_from_dict,
    region_from_inequalities,
    region_to_dict,
    save_region,
    time_share,
)


def simplex():
    return time_share([(F(1), F(0)), (F(0), F(1))])


def unit_square():
    return time_share([(F(1), F(1))])


class TestTimeShare:
    def test_single_point_rectangle(self):
        r = time_share([(F(3), F(1))])
        assert set(r.vertices) == {
            (F(0), F(0)), (F(3), F(0)), (F(3), F(1)), (F(0), F(1)),
        }

    def test_two_corner_simplex(self):
        r = simplex()
        assert set(r.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}
        assert contains(r, (F(1, 2), F(1, 2)))
        assert not contains(r, (F(3, 4), F(1, 2)))

    def test_dominated_point_not_a_vertex(self):
        r = time_share([(F(1), F(1)), (F(1, 2), F(1, 2))])
        assert (F(1, 2), F(1, 2)) not in r.vertices

    def test_idempotent(self):
        base = time_share([(F(3, 4), F(0)), (F(1, 2), F(1, 2)), (F(0), F(3, 4))])
        again = time_share(base.vertices)
        assert set(base.vertices) == set(again.vertices)
        assert equivalent(base, again)

    def test_origin_only(self):
        r = time_share([(F(0), F(0))])
        assert r.vertices == ((F(0), F(0)),)
        assert contains(r, (0, 0))
        assert not contains(r, (F(1, 10**9), F(0)))

    def test_segment_on_axis(self):
        r = time_share([(F(2), F(0))])
        assert set(r.vertices) == {(F(0), F(0)), (F(2), F(0))}
        assert contains(r, (F(1), F(0)))
        assert not contains(r, (F(1), F(1, 1000)))

    def test_float_points_become_exact(self):
        r = time_share([(0.75, 0.0), (0.5, 0.5)])
        assert (F(3, 4), F(0)) in r.vertices

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            time_share([(-0.1, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            time_share([])


class TestContainsDominates:
    def test_square_dominates_simplex(self):
        assert dominates(unit_square(), simplex())
        assert not dominates(simplex(), unit_square())

    def test_equivalent_regions(self):
        a = simplex()
        b = time_share([(F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1))])
        assert equivalent(a, b)

    def test_dimension_mismatch(self):
        g = region_from_inequalities(
            [((F(-1), F(0), F(0)), F(0)),
             ((F(0), F(-1), F(0)), F(0)),
             ((F(0), F(0), F(-1)), F(0)),
             ((F(1), F(0), F(0)), F(1)),
             ((F(0), F(1), F(0)), F(1)),
             ((F(0), F(0), F(1)), F(1))],
            3,
        )
        with pytest.raises(DimensionMismatchError):
            dominates(g, simplex())
        with pytest.raises(DimensionMismatchError):
            contains(simplex(), (F(0), F(0), F(0)))

    def test_float_membership_tolerance(self):
        r = simplex()
        assert contains(r, (0.5, 0.5 + 1e-13))
        assert not contains(r, (0.5, 0.5 + 1e-9))

    def test_exact_boundary_membership(self):
        r = simplex()
        assert contains(r, (F(1, 3), F(2, 3)))
        assert not contains(r, (F(1, 3), F(2, 3) + F(1, 10**12)))

    def test_nontrivial_vertices_drop_origin(self):
        assert set(nontrivial_vertices(simplex())) == {(F(1), F(0)), (F(0), F(1))}


class TestInequalityConstruction:
    def test_cube_vertices(self):
        zero, one = F(0), F(1)
        r = region_from_inequalities(
            [((-one, zero, zero), zero),
             ((zero, -one, zero), zero),
             ((zero, zero, -one), zero),
             ((one, zero, zero), one),
             ((zero, one, zero), one),
             ((zero, zero, one), one)],
            3,
        )
        assert len(r.vertices) == 8

    def test_degenerate_face_region(self):
        # r1 pinned to zero: a 2-D polytope embedded in 3-D
        zero, one = F(0), F(1)
        r = region_from_inequalities(
            [((-one, zero, zero), zero),
             ((zero, -one, zero), zero),
             ((zero, zero, -one), zero),
             ((zero, one, zero), zero),
             ((one, zero, zero), F(2)),
             ((one, zero, one), F(3))],
            3,
        )
        assert set(r.vertices) == {
            (F(0), F(0), F(0)), (F(2), F(0), F(0)),
            (F(0), F(0), F(3)), (F(2), F(0), F(1)),
        }

    def test_matches_time_share(self):
        zero, one = F(0), F(1)
        by_ineq = region_from_inequalities(
            [((-one, zero), zero), ((zero, -one), zero),
             ((one, zero), F(1, 2)), ((one, one), one)],
            2,
        )
        by_points = time_share([(F(1, 2), F(1, 2)), (F(0), F(1)), (F(1, 2), F(0))])
        assert equivalent(by_ineq, by_points)
        assert set(by_ineq.vertices) == set(by_points.vertices)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        r = time_share([(F(3, 4), F(0)), (F(1, 2), F(1, 2)), (F(0), F(3, 4))])
        p = tmp_path / "region.json"
        save_region(r, p)
        back = load_region(p)
        assert back.dimension == r.dimension
        assert back.vertices == r.vertices
        assert back.inequalities == r.inequalities
        assert back.downward_closed == r.downward_closed

    def test_schema_fields(self):
        d = region_to_dict(simplex())
        assert set(d) == {"dimension", "vertices", "inequalities", "downward_closed"}
        assert all(len(v) == 2 for v in d["vertices"])
        # each coordinate is an exact [numerator, denominator] pair
        assert all(
            isinstance(c, list) and len(c) == 2 for v in d["vertices"] for c in v
        )
        assert all(set(q) == {"normal", "offset"} for q in d["inequalities"])

    def test_float_region_roundtrips_losslessly(self, tmp_path):
        r = time_share([(0.1 + 0.2, 0.3)])  # deliberately non-representable sums
        p = tmp_path / "region.json"
        save_region(r, p)
        back = load_region(p)
        assert back.vertices == r.vertices

    def test_dict_roundtrip(self):
        r = simplex()
        assert region_from_dict(region_to_dict(r)).vertices == r.vertices


class TestValidation:
    def test_bad_dimension(self):
        with pytest.raises(InvalidInputError):
            RateRegion(4, (), ())

    def test_vertex_dimension_checked(self):
        with pytest.raises(InvalidInputError):
            RateRegion(2, ((F(0), F(0), F(0)),), ())


FRACTIONS = st.fractions(min_value=0, max_value=4, max_denominator=6)
POINTS = st.lists(st.tuples(FRACTIONS, FRACTIONS), min_size=1, max_size=5)


class TestRegionProperties:
    @settings(max_examples=100, deadline=None)
    @given(points=POINTS)
    def test_time_share_is_idempotent(self, points):
        once = time_share(points)
        twice = time_share(once.vertices)
        assert twice == once

    @settings(max_examples=100, deadline=None)
    @given(a=POINTS, b=POINTS, c=POINTS)
    def test_dominates_is_a_partial_order(self, a, b, c):
        ra, rb, rc = time_share(a), time_share(b), time_share(c)
        assert dominates(ra, ra)
        if dominates(ra, rb) and dominates(rb, ra):
            assert set(ra.vertices) == set(rb.vertices)
        # chains built by adding points: a+b+c >= a+b >= a
        ab, abc = time_share(a + b), time_share(a + b + c)
        assert dominates(ab, ra) and dominates(abc, ab) and dominates(abc, ra)
        if dominates(ra, rb) and dominates(rb, rc):
            assert dominates(ra, rc)

    @settings(max_examples=100, deadline=None)
    @given(
        points=POINTS,
        weights=st.lists(FRACTIONS, min_size=5, max_size=5),
        shrink=st.tuples(*[st.fractions(0, 1, max_denominator=7)] * 2),
    )
    def test_contains_is_downward_closed(self, points, weights, shrink):
        region = time_share(points)
        # a convex combination of the points, then any point below it
        w = [x + 1 for x in weights[: len(points)]]
        top = tuple(sum(wi * p[i] for wi, p in zip(w, points)) / sum(w) for i in (0, 1))
        assert contains(region, top)
        below = tuple(s * t for s, t in zip(shrink, top))
        assert contains(region, below)
        for v in region.vertices:
            assert contains(region, tuple(s * x for s, x in zip(shrink, v)))

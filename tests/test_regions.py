"""Exact polytope machinery: time sharing, containment, dominance, JSON."""

import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc import regions
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
        assert json.loads(p.read_text())["downward_closed"] is True

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

    VALID = (
        '"dimension": 2, "vertices": [[[0, 1], [0, 1]]], "downward_closed": true, '
        '"inequalities": [{"normal": [[1, 1], [0, 1]], "offset": [1, 1]}]'
    )

    @pytest.mark.parametrize("text, message", [
        ('{"dimension": 2, "vertices": [',
         "region file is not valid JSON (line 1, column 31): Expecting value"),
        ("{" + VALID.replace('"dimension": 2, ', "") + "}",
         "region field 'dimension' is missing or malformed (KeyError: 'dimension')"),
        ("{" + VALID.replace("[[[0, 1], [0, 1]]]", "5") + "}",
         "region field 'vertices' is missing or malformed "
         "(TypeError: 'int' object is not iterable)"),
        ("{" + VALID.replace("[[[0, 1], [0, 1]]]", "[[[1, 0], [0, 1]]]") + "}",
         "region field 'vertices' is missing or malformed "
         "(ZeroDivisionError: Fraction(1, 0))"),
        ("{" + VALID.replace(', "offset": [1, 1]', "") + "}",
         "region field 'inequalities' is missing or malformed (KeyError: 'offset')"),
        # a pair holds exactly a numerator and a denominator
        ("{" + VALID.replace('"offset": [1, 1]', '"offset": [1, 2, 3]') + "}",
         "region field 'inequalities' is missing or malformed "
         "(ValueError: too many values to unpack (expected 2))"),
        ("{" + VALID.replace('"dimension": 2', '"dimension": 2.0') + "}",
         "dimension must be the int 2 or 3, got 2.0"),
        # every region is downward closed: the field holds true alone
        ("{" + VALID.replace("true", '"no"') + "}",
         "region field 'downward_closed' must be true, got 'no'"),
        ("{" + VALID.replace("true", "1") + "}",
         "region field 'downward_closed' must be true, got 1"),
        ("{" + VALID.replace("true", "false") + "}",
         "region field 'downward_closed' must be true, got False"),
    ])
    def test_malformed_file_names_the_field(self, tmp_path, text, message):
        p = tmp_path / "region.json"
        p.write_text(text)
        with pytest.raises(InvalidInputError) as excinfo:
            load_region(p)
        assert str(excinfo.value) == message


class TestValidation:
    def test_bad_dimension(self):
        with pytest.raises(InvalidInputError):
            RateRegion(4, (), ())

    @pytest.mark.parametrize("fields, message", [
        ({"dimension": 2.0}, "dimension must be the int 2 or 3, got 2.0"),
        ({"dimension": True}, "dimension must be the int 2 or 3, got True"),
        ({"dimension": "2"}, "dimension must be the int 2 or 3, got '2'"),
    ])
    def test_field_types_checked(self, fields, message):
        with pytest.raises(InvalidInputError) as excinfo:
            RateRegion(**{"dimension": 2, "vertices": (), "inequalities": (), **fields})
        assert str(excinfo.value) == message

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


def fraction_solve(rows, rhs):
    """Reference solve of a small square Fraction system by Gauss-Jordan
    elimination; None if singular."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def reference_region(inequalities, dimension):
    """region_from_inequalities in Fraction arithmetic throughout."""
    verts = set()
    for combo in itertools.combinations(inequalities, dimension):
        x = fraction_solve([n for n, _ in combo], [o for _, o in combo])
        if x is not None and all(
            sum(nc * xc for nc, xc in zip(n, x)) <= o for n, o in inequalities
        ):
            verts.add(x)
    return RateRegion(dimension, tuple(sorted(verts)), tuple(inequalities))


# small rationals, zero and repeated values frequent so that singular
# systems and degenerate vertices come up
SMALL = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


class TestIntegerVertexEnumeration:
    """The integer solver and enumeration against Fraction Gauss-Jordan."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_integer_solve_matches_fraction_solve(self, data, n):
        rows = data.draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n))
        if n > 1 and data.draw(st.booleans()):  # a dependent last row: singular
            k, m = data.draw(SMALL), data.draw(SMALL)
            rows[-1] = [k * a + m * b for a, b in zip(rows[0], rows[min(1, n - 2)])]
        rhs = data.draw(st.lists(SMALL, min_size=n, max_size=n))
        want = fraction_solve(rows, rhs)
        got = regions._solve_integer([regions._integer_row(r, b) for r, b in zip(rows, rhs)])
        if want is None:
            assert got is None
        else:
            x, d = got
            assert d > 0 and tuple(F(xc, d) for xc in x) == want

    @settings(max_examples=150, deadline=None)
    @given(dimension=st.sampled_from([2, 3]), data=st.data())
    def test_enumeration_matches_fraction_enumeration(self, dimension, data):
        box = [
            (tuple(F(-1 if i == j else 0) for j in range(dimension)), F(0))
            for i in range(dimension)
        ]
        extra = data.draw(st.lists(
            st.tuples(st.tuples(*[SMALL] * dimension), SMALL.map(abs)), min_size=1, max_size=5,
        ))
        ineqs = box + extra
        got = region_from_inequalities(ineqs, dimension)
        assert got == reference_region(ineqs, dimension)
        assert all(isinstance(c, F) for v in got.vertices for c in v)

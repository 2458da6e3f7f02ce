"""Rate regions as exact rational polytopes.

Regions are downward-closed convex polytopes in the nonnegative orthant,
carried as both a vertex list and an inequality list (normal . x <= offset).
All analytic constructions use fractions.Fraction end to end; points handed
in as floats are converted exactly (floats are dyadic rationals), so
serialization is lossless for both analytic and simulation-derived regions.
"""

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError, InvalidInputError, read_json

__all__ = [
    "RateRegion",
    "time_share",
    "region_from_inequalities",
    "contains",
    "dominates",
    "nontrivial_vertices",
    "save_region",
    "load_region",
]

FLOAT_TOL = 1e-12


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise InvalidInputError(f"coordinates must be int, float, or Fraction, got {type(x)!r}")


def _normalize_ineq(normal, offset):
    """Scale an inequality to a primitive integer normal, keeping direction."""
    *ints, off = _integer_row(normal, offset)
    g = gcd(*ints) or 1  # an all-zero normal stays as it is
    return tuple(Fraction(v // g) for v in ints), Fraction(off, g)


@dataclass(frozen=True)
class RateRegion:
    """Downward-closed convex polytope with exact rational data.

    vertices: tuple of coordinate tuples (Fractions), the extreme points.
    inequalities: tuple of (normal, offset) pairs meaning normal . x <= offset;
    the nonnegativity constraints are included explicitly.
    """

    dimension: int
    vertices: tuple
    inequalities: tuple

    def __post_init__(self):
        dim = self.dimension
        if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (2, 3):
            raise InvalidInputError(f"dimension must be the int 2 or 3, got {dim!r}")
        verts = tuple(
            tuple(_frac(c) for c in v) for v in self.vertices
        )
        for v in verts:
            if len(v) != self.dimension:
                raise InvalidInputError(f"vertex {v} does not have dimension {self.dimension}")
        ineqs = []
        for normal, offset in self.inequalities:
            n = tuple(_frac(c) for c in normal)
            if len(n) != self.dimension:
                raise InvalidInputError(f"normal {n} does not have dimension {self.dimension}")
            ineqs.append(_normalize_ineq(n, _frac(offset)))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "inequalities", tuple(dict.fromkeys(ineqs)))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points):
    """Monotone-chain convex hull, exact, CCW order; handles degenerate input."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def time_share(points):
    """Downward closure of the convex hull of ``points`` and the origin (2-D).

    Any rate pair below a convex combination of achievable pairs is
    achievable by time sharing, so this is the region generated by a finite
    set of operating points. Idempotent: feeding the result's vertices back
    in reproduces the same region.
    """
    if not points:
        raise InvalidInputError("time_share needs at least one point")
    pts = []
    for p in points:
        if len(p) != 2:
            raise InvalidInputError("time_share operates on 2-D points")
        q = (_frac(p[0]), _frac(p[1]))
        if q[0] < 0 or q[1] < 0:
            raise InvalidInputError(f"point {q} has a negative coordinate")
        pts.append(q)
    zero = Fraction(0)
    augmented = set(pts)
    augmented.add((zero, zero))
    for x, y in pts:
        augmented.add((x, zero))
        augmented.add((zero, y))
    hull = _hull_2d(augmented)
    xmax = max(p[0] for p in hull)
    ymax = max(p[1] for p in hull)
    ineqs = [
        ((Fraction(-1), zero), zero),
        ((zero, Fraction(-1)), zero),
        ((Fraction(1), zero), xmax),
        ((zero, Fraction(1)), ymax),
    ]
    if len(hull) >= 3:
        m = len(hull)
        for i in range(m):
            p, q = hull[i], hull[(i + 1) % m]
            normal = (q[1] - p[1], p[0] - q[0])
            ineqs.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return RateRegion(2, tuple(hull), tuple(ineqs))


def _integer_row(normal, offset):
    """The inequality normal . x <= offset times the lcm of its denominators,
    as integers (n_1, ..., n_d, o): the same half-space."""
    scale = lcm(*(f.denominator for f in (*normal, offset)))
    return tuple(f.numerator * (scale // f.denominator) for f in (*normal, offset))


def _solve_integer(rows):
    """Solve the square system of integer rows (a_1, ..., a_n, b) exactly.

    Bareiss's fraction-free elimination, whose divisions are all exact,
    leaves the determinant D (up to sign) as the last pivot; back
    substitution then finds the integers D x_i. Returns (D x, D) with
    D > 0, or None if the system is singular.
    """
    a = [list(r) for r in rows]
    n, prev = len(a), 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, n):
            a[i] = [(x * a[k][k] - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (prev * a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) // a[i][i]
    return (x, prev) if prev > 0 else ([-xc for xc in x], -prev)


def region_from_inequalities(inequalities, dimension):
    """Polytope from an inequality list, vertices enumerated exactly.

    Every subset of ``dimension`` inequalities is intersected; a feasible
    intersection point of ``dimension`` independent tight constraints is a
    basic feasible solution, i.e. exactly a vertex. Intended for the small
    analytic regions (a handful of inequalities). Nonnegativity constraints
    must be included by the caller if wanted; the polytope must be bounded
    for the vertex list to generate it. The inequalities are scaled to
    integers: solving and the feasibility test are integer arithmetic.
    """
    ineqs = [
        (tuple(_frac(c) for c in n), _frac(o)) for n, o in inequalities
    ]
    rows = [_integer_row(n, o) for n, o in ineqs]
    verts = set()
    for combo in itertools.combinations(rows, dimension):
        solved = _solve_integer(combo)
        if solved is None:
            continue
        x, d = solved
        # n . (x / d) <= o with d > 0
        if all(sum(a * xc for a, xc in zip(r, x)) <= r[-1] * d for r in rows):
            verts.add(tuple(Fraction(xc, d) for xc in x))
    return RateRegion(dimension, tuple(sorted(verts)), tuple(ineqs))


def contains(region, point):
    """Membership test; exact for rational points, 1e-12 slack for floats."""
    if len(point) != region.dimension:
        raise DimensionMismatchError(
            f"point of dimension {len(point)} tested against region of "
            f"dimension {region.dimension}"
        )
    exact = all(isinstance(c, (int, Fraction)) for c in point)
    if exact:
        p = tuple(_frac(c) for c in point)
        return all(
            sum(nc * pc for nc, pc in zip(n, p)) <= o for n, o in region.inequalities
        )
    p = tuple(float(c) for c in point)
    for n, o in region.inequalities:
        lhs = sum(float(nc) * pc for nc, pc in zip(n, p))
        scale = max(1.0, *(abs(float(nc)) for nc in n))
        if lhs > float(o) + FLOAT_TOL * scale:
            return False
    return True


def dominates(a, b):
    """True iff region ``a`` contains region ``b`` (every vertex of b in a)."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"cannot compare regions of dimension {a.dimension} and {b.dimension}"
        )
    return all(contains(a, v) for v in b.vertices)


def nontrivial_vertices(region):
    """Vertices other than the origin (every downward-closed region has it)."""
    zero = tuple(Fraction(0) for _ in range(region.dimension))
    return tuple(v for v in region.vertices if v != zero)


def frac_pair(f):
    """A Fraction as the JSON pair [numerator, denominator]."""
    return [f.numerator, f.denominator]


def point_pairs(points):
    """Points with Fraction coordinates as lists of frac_pair pairs."""
    return [[frac_pair(c) for c in p] for p in points]


def region_to_dict(region):
    return {
        "dimension": region.dimension,
        "vertices": point_pairs(region.vertices),
        "inequalities": [
            {"normal": [frac_pair(c) for c in n], "offset": frac_pair(o)}
            for n, o in region.inequalities
        ],
        "downward_closed": True,
    }


def region_from_dict(data):
    """Inverse of region_to_dict; InvalidInputError names a malformed field."""

    def unpair(p):
        num, den = p
        if isinstance(num, bool) or isinstance(den, bool):  # Fraction takes them as ints
            raise TypeError(f"a fraction pair holds two integers, got {[num, den]!r}")
        return Fraction(num, den)

    item_parsers = {
        "dimension": None,
        "vertices": lambda v: tuple(map(unpair, v)),
        "inequalities": lambda q: (tuple(map(unpair, q["normal"])), unpair(q["offset"])),
        "downward_closed": None,
    }
    fields = {}
    for name, parse in item_parsers.items():
        try:
            fields[name] = tuple(map(parse, data[name])) if parse else data[name]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise InvalidInputError(
                f"region field {name!r} is missing or malformed ({type(e).__name__}: {e})"
            ) from None
    closed = fields.pop("downward_closed")
    if closed is not True:
        raise InvalidInputError(f"region field 'downward_closed' must be true, got {closed!r}")
    return RateRegion(**fields)


def save_region(region, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(region_to_dict(region), indent=1, sort_keys=True) + "\n")


def load_region(path):
    """Read a region written by save_region; InvalidInputError if malformed."""
    return region_from_dict(read_json(path, InvalidInputError, "region file"))

"""rational_lex: planted zero-dimensional systems over Q, lex basis and solve.

Each instance plants a grid of points in coordinates y (one set of
distinct integers per axis, 6 to 16 points in 3 or 4 variables) and
hides it behind a random unimodular integer change of coordinates
y = M x, drawn until the points have distinct last coordinates. The
generators are the products prod_a (y_i - a) over each axis, written
out in x, so every generator is dense. The library runs
``buchberger(..., "lex")`` -> ``quotient_dimension`` ->
``solve_triangular``.

A fixed share of each round (1 of 12 instances) is non-radical: the
first grid point is doubled along the y_0 axis by squaring its linear
factor and adding g_0 * (y_i - b_i) for every other axis i, where g_0 is
the radical axis-0 product and b_i the point's coordinates. That point
then has multiplicity two and every other point stays simple, so the
quotient dimension is the point count plus one. Like the radical grids,
the system is drawn in shape position: the last coordinate x_{n-1}
separates the points with multiplicity, which holds when the doubled
direction M^-1 e_0 moves x_{n-1}. The lex basis then holds a univariate
polynomial in x_{n-1} of degree qdim, with the doubled point as a
double root.

Budgets: ``PAIR_BUDGET`` critical pairs per basis and ``ROOT_RETRIES``
precision retries of root finding per solve. Both count work, not
time, so an instance fails or passes the same way on every run; either
one running out counts as a failed instance.
"""

from __future__ import annotations

import itertools

import mpmath

from eqlines import QQ, Poly, Ring, buchberger, quotient_dimension, solve_triangular
from eqlines.groebner import PairBudgetExceeded
from harness import Instance, root_retry_budget
import refs

NAME = "rational_lex"
WARM = []
PRECISION = 256
PAIR_BUDGET = 400
ROOT_RETRIES = 0
MATCH_TOL = mpmath.mpf("1e-20")
# Grid shapes in a fixed order, contents seeded. Six cheap grids of similar
# cost sit in the middle of the per-instance time distribution, so its
# median falls inside one cluster instead of between two; they are spread
# through the round so that one slow spell of the host cannot cover them
# all. The None slot, one instance in twelve, is a non-radical grid from
# NON_RADICAL.
ROUND = (
    (2, 2, 2), (3, 2, 1), (3, 3, 1), (3, 2, 2), (2, 2, 2, 1), None,
    (2, 2, 2), (3, 2, 1, 1), (3, 3, 1), (4, 2, 2), (2, 2, 2, 1), (3, 2, 2, 1),
)
NON_RADICAL = ((3, 2, 1), (3, 2, 1, 1))
VALUE_RANGE = range(-6, 7)


def _unimodular(n, rng):
    """L*U with unit diagonals and nonzero off-diagonal entries; resampled
    until every entry of the product is nonzero so no coordinate of y is
    a plain coordinate of x."""
    nz = (-2, -1, 1, 2)
    while True:
        lo = [[1 if i == j else (rng.choice(nz) if j < i else 0) for j in range(n)] for i in range(n)]
        up = [[1 if i == j else (rng.choice(nz) if j > i else 0) for j in range(n)] for i in range(n)]
        m = [[sum(lo[i][t] * up[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        if all(all(row) for row in m):
            return m


def _grid(shape, double, rng):
    """Axis values, M and the planted points in x; resampled until the
    points have distinct last coordinates and, when the first point is
    doubled, the doubled direction moves the last coordinate (shape
    position for lex)."""
    n = len(shape)
    while True:
        values = [rng.sample(VALUE_RANGE, s) for s in shape]
        m = _unimodular(n, rng)
        minv = refs.frac_inverse(m)
        points = [
            tuple(sum(minv[i][j] * yv[j] for j in range(n)) for i in range(n))
            for yv in itertools.product(*values)
        ]
        separated = len({p[-1] for p in points}) == len(points)
        if separated and (minv[-1][0] != 0 or not double):
            return values, m, points


def make_instance(shape, double, rng):
    n = len(shape)
    ring = Ring(tuple(f"x{i}" for i in range(n)), QQ)
    values, m, points = _grid(shape, double, rng)
    x = [Poly.variable(ring, i) for i in range(n)]
    y = [sum((x[j] * m[i][j] for j in range(n)), Poly.zero(ring)) for i in range(n)]

    def axis_product(i):
        f = Poly.one(ring)
        for a in values[i]:
            f = f * (y[i] - a)
        return f

    gens = [axis_product(i) for i in range(n)]
    if double:
        g0 = gens[0]
        gens[0] = g0 * (y[0] - values[0][0])
        gens += [g0 * (y[i] - values[i][0]) for i in range(1, n)]
    label = "x".join(map(str, shape)) + ("+double" if double else "")
    return Instance(label, {
        "gens": gens,
        "points": points,
        "multiplicity": len(points) + int(double),
    })


def make_round(rng):
    return [
        make_instance(shape, False, rng) if shape
        else make_instance(rng.choice(NON_RADICAL), True, rng)
        for shape in ROUND
    ]


def run(inst, tr):
    gens = inst.data["gens"]
    with tr.span("groebner.basis"):
        try:
            gb = buchberger(gens, "lex", pair_budget=PAIR_BUDGET)
        except PairBudgetExceeded as exc:
            tr.add("groebner.budget_exhausted", 1)
            tr.add("groebner.pairs", exc.pairs_processed)
            raise
    tr.add("groebner.pairs", gb.pair_count)
    tr.add("groebner.basis_size", len(gb))
    with tr.span("groebner.qdim"):
        qdim = quotient_dimension(gb)
    tr.add("solver.expected", len(inst.data["points"]))
    with tr.span("solver.solve"), root_retry_budget(ROOT_RETRIES):
        sols = solve_triangular(gb, gens, precision=PRECISION)
    return {"qdim": qdim, "points": [p.coords for p in sols.points]}


def _near(a, b):
    return all(abs(u.real - v) <= MATCH_TOL and abs(u.imag) <= MATCH_TOL
               for u, v in zip(a, b))


def check(inst, out, tr):
    tr.add("solver.points", len(out["points"]))
    problems = []
    if out["qdim"] != inst.data["multiplicity"]:
        problems.append(f"quotient dimension {out['qdim']} != {inst.data['multiplicity']}")
    got = out["points"]
    with mpmath.workprec(PRECISION):
        planted = [[mpmath.mpf(c.numerator) / c.denominator for c in p]
                   for p in inst.data["points"]]
        missing = sum(1 for p in planted if not any(_near(g, p) for g in got))
        extra = sum(1 for g in got if not any(_near(g, p) for p in planted))
    if missing or extra or len(got) != len(planted):
        problems.append(
            f"{len(got)} points for {len(planted)} planted: "
            f"{missing} planted missing, {extra} unmatched"
        )
    return problems

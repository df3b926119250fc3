"""Numeric solver: root contracts, back-substitution, classification."""

import gc
import itertools
import random
from dataclasses import replace

import mpmath
import pytest

from eqlines import solver
from eqlines.exact import QQ
from eqlines.groebner import buchberger
from eqlines.polyring import Poly, Ring, eval_terms
from eqlines.solver import (
    NotZeroDimensionalError,
    SolutionPoint,
    SolutionSet,
    SolverError,
    Tolerances,
    solve_triangular,
    zauner_vectors,
)

R1 = Ring(("t",), QQ)
R2 = Ring(("x", "y"), QQ)
R3 = Ring(("x", "y", "z"), QQ)
R3z = Ring(("z", "x", "y"), QQ)


def _t():
    return Poly.variable(R1, 0)


def _xy():
    return Poly.variable(R2, 0), Poly.variable(R2, 1)


def test_solve_spec_examples():
    x, y = _xy()
    gb = buchberger([x ** 2 - 1, y - x], "lex")
    sols = solve_triangular(gb, [x ** 2 - 1, y - x], precision=128)
    pts = [
        tuple(round(float(c.real)) for c in p.coords) for p in sols.points
    ]
    assert pts == [(-1, -1), (1, 1)]

    gb2 = buchberger([x ** 2 - 1, y ** 2 - 1], "lex")
    sols2 = solve_triangular(gb2, [x ** 2 - 1, y ** 2 - 1], precision=128)
    got = {
        tuple(round(float(c.real)) for c in p.coords) for p in sols2.points
    }
    assert got == set(itertools.product((-1, 1), repeat=2))


def test_solve_tags_realness():
    # x = +-1 real, x = +-i not
    x, y = _xy()
    eqs = [x ** 4 - 1, y - 1]
    sols = solve_triangular(buchberger(eqs, "lex"), eqs, precision=128)
    assert [p.tags["real"] for p in sols.points] == [True, False, False, True]
    assert sols.counts()["real"] == 2


def test_a_solution_set_tags_realness_when_built():
    """Whatever tags its points come with, a set built by hand or read
    from a file tags each point ``real`` from its coordinates, to the
    relative realness tolerance, and drops every other tag."""
    with mpmath.workprec(128):
        coords = [(mpmath.mpc(1), mpmath.mpc(-2)),
                  (mpmath.mpc(1), mpmath.mpc(0, 1)),
                  (mpmath.mpc(10 ** 6, 10 ** -16),),
                  (mpmath.mpc(1, 10 ** -16),)]
    tags = [{}, {"real": True}, {"real": False, "orbit_id": 0}, {}]
    want = [True, False, True, False]
    sols = SolutionSet([SolutionPoint(c, mpmath.mpf(0), t)
                        for c, t in zip(coords, tags)], 128, Tolerances())
    assert [p.tags["real"] for p in sols.points] == want
    assert sols.points[2].tags == {"real": True}
    doc = sols.to_json()
    for p in doc["points"]:
        p["tags"]["real"] = not p["tags"]["real"]
    back = SolutionSet.from_json(doc)
    assert [p.tags["real"] for p in back.points] == want
    assert back.counts() == sols.counts()


def test_residuals_against_original_system():
    x, y = _xy()
    gens = [x ** 2 + y ** 2 - 1, x * y - 1]
    gb = buchberger(gens, "lex")
    sols = solve_triangular(gb, gens, precision=192)
    assert len(sols.points) == 4
    for p in sols.points:
        assert p.residual <= mpmath.mpf(1e-10)


def _count_candidates(mp):
    """Calls of solver.eval_terms, patched through mp: the residual check
    makes one per candidate point and equation."""
    calls = []

    def spy(terms, point, start):
        calls.append(point)
        return eval_terms(terms, point, start)

    mp.setattr(solver, "eval_terms", spy)
    return calls


def _solve_points(gens):
    gb = buchberger(gens, "lex")
    sols = solve_triangular(gb, gens, precision=128)
    return [tuple(complex(c) for c in p.coords) for p in sols.points]


def test_non_radical_univariate_basis():
    x, y = _xy()
    pts = _solve_points([(x - 1) ** 3, (y + 1) ** 2])
    assert len(pts) == 1
    assert max(abs(a - b) for a, b in zip(pts[0], (1, -1))) < 1e-30


def test_non_radical_duplicates_not_adjacent():
    # the lex basis holds (x - 2)^2; each copy of x = 2 pairs with both
    # y = -sqrt(2) and y = sqrt(2)
    x, y = _xy()
    pts = _solve_points([(x - y ** 2) ** 2, y ** 2 - 2])
    assert len(pts) == 2
    assert {round(p[1].real, 12) for p in pts} == {
        round(-2 ** 0.5, 12), round(2 ** 0.5, 12)}
    assert all(abs(p[0] - 2) < 1e-30 for p in pts)


def test_repeated_roots_in_one_variable_are_added_square_free(monkeypatch):
    """The ideal of (x-y)^3, (y-1)^2 has qdim 6 and one point: the minimal
    polynomials (x - 1)^3 and (y - 1)^2 add x - 1 and y - 1 in one
    Buchberger run, and the triple root x = 1 never reaches root
    finding."""
    x, y = _xy()
    rounds = []

    def counted(*args):
        rounds.append(args)
        return buchberger(*args)

    gens = [(x - y) ** 3, (y - 1) ** 2]
    gb = buchberger(gens, "lex")
    monkeypatch.setattr(solver, "buchberger", counted)
    sols = solve_triangular(gb, gens, precision=128)
    pts = [tuple(complex(c) for c in p.coords) for p in sols.points]
    assert len(rounds) == 1
    assert len(pts) == 1
    assert max(abs(a - 1) for a in pts[0]) < 1e-30


def test_repeated_root_after_specialization_solves():
    # y^2 - y is square-free, and (x - 1)^3 appears only once y = 1 is
    # substituted; the minimal polynomial of x adds x^2 - x
    x, y = _xy()
    assert _solve_points([(x - y) ** 3, y ** 2 - y]) == [(0, 0), (1, 1)]


def test_root_finding_that_does_not_converge_fails_with_its_cause(
        monkeypatch):
    calls = []

    def stuck(*args, **kwargs):
        calls.append((mpmath.mp.prec, kwargs))
        raise mpmath.libmp.libhyper.NoConvergence("stuck")

    monkeypatch.setattr(mpmath, "polyroots", stuck)
    x, y = _xy()
    # the descent works 48 bits above the requested 128, and root
    # finding 32 above that; the error names the 128
    with pytest.raises(SolverError, match="did not converge on a degree 2 "
                       "polynomial at 128 bits") as info:
        _solve_points([x ** 2 - 2, y - x])
    assert isinstance(info.value.__cause__,
                      mpmath.libmp.libhyper.NoConvergence)
    assert calls == [(208, {"maxsteps": 188, "extraprec": 88})]


def test_not_zero_dimensional():
    x, y = _xy()
    gb = buchberger([x * y], "lex")
    with pytest.raises(NotZeroDimensionalError):
        solve_triangular(gb, [x * y], precision=128)


def test_grevlex_basis_rejected():
    x, y = _xy()
    gb = buchberger([x ** 2 - 1, y - x], "grevlex")
    with pytest.raises(ValueError, match="needs a lex basis"):
        solve_triangular(gb, [x ** 2 - 1, y - x], precision=128)


def test_arity_mismatch_rejected():
    x, y = _xy()
    gb = buchberger([x ** 2 - 1, y - x], "lex")
    t = _t()
    with pytest.raises(ValueError):
        solve_triangular(gb, [t ** 2 - 1], precision=128)


@pytest.mark.parametrize("zeros", [0, 2])
def test_system_without_equations_rejected(zeros):
    # with nothing to validate against, every candidate point would pass
    x, y = _xy()
    gb = buchberger([x ** 2 - 1, y - x], "lex")
    with pytest.raises(ValueError, match="no nonzero equation"):
        solve_triangular(gb, [Poly.zero(x.ring)] * zeros, precision=128)


def test_empty_variety():
    x, y = _xy()
    gb = buchberger([x, x + 1], "lex")
    sols = solve_triangular(gb, [x, x + 1], precision=128)
    assert sols.points == []
    counts = sols.counts()
    assert counts["total"] == 0 and counts["orbits"] is None


def test_vanishing_and_linear_specializations(monkeypatch):
    """Lex basis {x^2 - y, xy - x, y^2 - y}: at y = 1 the element xy - x
    vanishes and is skipped, at y = 0 it leaves -x, the lowest degree.
    Every root of -x is a root of x^2 (Gianni-Kalkbrener), so the descent
    makes one candidate per point."""
    x, y = _xy()
    gens = [x * (y - 1), y * (y - 1), x ** 2 - y]
    gb = buchberger(gens, "lex")
    assert set(gb.basis) == {x ** 2 - y, x * y - x, y ** 2 - y}
    calls = _count_candidates(monkeypatch)
    sols = solve_triangular(gb, gens, precision=128)
    assert len(calls) == 3 * len(gens)
    got = [tuple(complex(c) for c in p.coords) for p in sols.points]
    assert got == [(-1, 1), (0, 0), (1, 1)]
    assert all(p.tags["real"] for p in sols.points)


def test_square_free_level_checks_other_specializations(monkeypatch):
    """x^4 - x^3 has a repeated factor, so the solver adds its
    square-free part x^2 - x and solves the basis {x^2 - x, xy, y^2 - y}
    of the same zeros. At y = 1 the level-x specializations are x^2 - x
    and x: the root x = 1 of x^2 - x is no root of their gcd x, and the
    descent, which solves only x, makes one candidate per point."""
    x, y = _xy()
    gens = [x ** 4 - x ** 3, x ** 3 * y, y ** 2 - y]
    gb = buchberger(gens, "lex")
    assert set(gb.basis) == set(gens)
    calls = _count_candidates(monkeypatch)
    sols = solve_triangular(gb, gens, precision=128)
    assert len(calls) == 3 * len(gens)
    got = [tuple(complex(c) for c in p.coords) for p in sols.points]
    assert got == [(0, 0), (0, 1), (1, 0)]


def test_square_free_level_spawns_no_false_branch():
    # the false branch x = y = 1 would specialize z^3 + x*y - 1 to z^3,
    # a triple root that polyroots cannot resolve; with x^2 - x added,
    # the basis holds xy and z^3 - 1, so at y = 1 the level-x gcd is x
    # and that branch never starts
    z, x, y = (Poly.variable(R3z, i) for i in range(3))
    gens = [x ** 4 - x ** 3, x ** 3 * y, y ** 2 - y, z ** 3 + x * y - 1]
    gb = buchberger(gens, "lex")
    assert set(gb.basis) == set(gens)
    sols = solve_triangular(gb, gens, precision=128)
    got = {(round(p.coords[1].real), round(p.coords[2].real))
           for p in sols.points}
    assert len(sols.points) == 9
    assert got == {(0, 0), (0, 1), (1, 0)}


def _point_ideal(points):
    """Reduced lex basis of the ideal of distinct points of Q^3: the
    product of comaximal ideals is their intersection."""
    gb = None
    for p in points:
        m = [Poly.variable(R3, i) - c for i, c in enumerate(p)]
        gens = m if gb is None else [g * h for g in gb.basis for h in m]
        gb = buchberger(gens, "lex")
    return gb


def test_point_ideals_one_candidate_per_point():
    # coordinates from {-1, 0, 1} repeat, so the bases are not in shape
    # position and levels hold several elements
    rng = random.Random(22)
    crowded = 0
    for _ in range(20):
        pts = set()
        n = rng.randint(3, 7)
        while len(pts) < n:
            pts.add(tuple(rng.randint(-1, 1) for _ in range(3)))
        gb = _point_ideal(pts)
        crowded += sum(1 for p in gb.basis if min(p.support()) == 0) > 1
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_candidates(mp)
            sols = solve_triangular(gb, list(gb.basis), precision=128)
        assert len(calls) == n * len(gb.basis)
        got = [tuple(complex(c) for c in p.coords) for p in sols.points]
        assert len(got) == n
        for g, want in zip(got, sorted(pts)):
            assert max(abs(a - b) for a, b in zip(g, want)) < 1e-30
    assert crowded >= 10


def test_radical_bases_never_enlarge(d2_pipeline, monkeypatch):
    """A reduced basis of a radical ideal has no element in one variable
    with a repeated factor, so the solver takes it as it is."""
    system, gb, sols = d2_pipeline

    def refuse(*args):
        raise AssertionError("a radical basis was enlarged")

    monkeypatch.setattr(solver, "buchberger", refuse)
    again = solve_triangular(gb, list(system.equations), precision=256)
    assert len(again.points) == 32
    assert [p.coords for p in again.points] == [p.coords for p in sols.points]
    test_point_ideals_one_candidate_per_point()


def _ideal_product(a, b):
    return buchberger([g * h for g in a for h in b], "lex").basis


def _maximal_ideal(point, power, ring=R2):
    m = [Poly.variable(ring, i) - c for i, c in enumerate(point)]
    gens = m
    for _ in range(power - 1):
        gens = _ideal_product(gens, m)
    return gens


def _planted_products(rng, count, ring, most_points, top_power):
    """count lex bases of products of the 1st to top_power-th powers of 2
    to most_points maximal ideals at points of {-1, 0, 1}^n, each with
    its points."""
    grid = list(itertools.product((-1, 0, 1), repeat=ring.arity))
    for _ in range(count):
        pts = rng.sample(grid, rng.randint(2, most_points))
        gens = None
        for p in pts:
            m = _maximal_ideal(p, rng.randint(1, top_power), ring)
            gens = m if gens is None else _ideal_product(gens, m)
        yield buchberger(gens, "lex"), pts


def _assert_planted(gb, pts):
    """gb solves to exactly the points pts, each once."""
    sols = solve_triangular(gb, list(gb.basis), precision=128)
    got = [tuple(complex(c) for c in p.coords) for p in sols.points]
    near = [tuple(round(c.real) for c in g) for g in got]
    assert len(got) == len(pts) and set(near) == set(pts)
    for g, want in zip(got, near):
        assert max(abs(a - b) for a, b in zip(g, want)) < 1e-30


def test_double_root_copies_make_one_point():
    """(x+1, y)(x+1, y-1)^2(x-1, y)^2: in the ideal's own lex basis, at
    y = 1 the level-x polynomial has the double root x = -1, whose two
    copies would sort on either side of (-1, 0); the basis of the
    radical has no multiple root."""
    gens = _maximal_ideal((-1, 0), 1)
    for p in ((-1, 1), (1, 0)):
        gens = _ideal_product(gens, _maximal_ideal(p, 2))
    gb = buchberger(gens, "lex")
    sols = solve_triangular(gb, list(gb.basis), precision=128)
    got = [tuple(complex(c) for c in p.coords) for p in sols.points]
    assert len(got) == 3
    assert {tuple(round(c.real) for c in g) for g in got} == {
        (-1, 1), (-1, 0), (1, 0)}
    for g in got:
        assert max(abs(c - round(c.real)) for c in g) < 1e-30


def test_non_radical_products_return_each_point_once():
    # products of the 1st-2nd powers of 2-3 maximal ideals at points of
    # {-1, 0, 1}^2; every one solves to its points
    for gb, pts in _planted_products(random.Random(1), 40, R2, 3, 2):
        _assert_planted(gb, pts)


@pytest.mark.parametrize("seed", [0, 1])
def test_cubed_non_radical_products_return_each_point_once(seed):
    # 1st-3rd powers of 2-4 maximal ideals; before the solver took the
    # radical, about half of such ideals raised SolverError
    for gb, pts in _planted_products(random.Random(seed), 30, R2, 4, 3):
        _assert_planted(gb, pts)


def test_shape_position_skips_the_minimal_polynomials(monkeypatch):
    """A square-free element in z of degree qdim shows a radical ideal,
    and no minimal polynomial is computed; without it, each variable but
    the last gets one, and a radical ideal is still never enlarged."""
    found = []

    def spy(gb, i):
        found.append(i)
        return minimal_polynomial(gb, i)

    def refuse(*args):
        raise AssertionError("a radical basis was enlarged")

    minimal_polynomial = solver._minimal_polynomial
    monkeypatch.setattr(solver, "_minimal_polynomial", spy)
    monkeypatch.setattr(solver, "buchberger", refuse)
    shape = {(1, 0, -1), (0, 1, 0), (-1, 1, 1), (1, 1, 2)}
    crowded = {(1, 0, 0), (0, 1, 0), (-1, 1, 1), (1, 1, 1)}
    for pts, want in ((shape, []), (crowded, [0, 1])):
        found.clear()
        _assert_planted(_point_ideal(pts), pts)
        assert found == want


def test_vanishing_leading_coefficient_is_trimmed(monkeypatch):
    """In the lex basis of (x+1, y+1, z+1)(x+1, y+1, z)^2(x+1, y, z+1)^2
    (x-1, y+1, z)^2 the element (y+1)x^2 + 2z^2 x - y + 2z^2 - 1 loses
    its leading coefficient at (y, z) = (-1, -1) but not its other
    terms. The ideal is not radical, so the solver solves the basis of
    its radical, which lacks that element; the radical case below
    reaches the trimming."""
    gens = _maximal_ideal((-1, -1, -1), 1, R3)
    for p in ((-1, -1, 0), (-1, 0, -1), (1, -1, 0)):
        gens = _ideal_product(gens, _maximal_ideal(p, 2, R3))
    gb = buchberger(gens, "lex")
    x, y, z = (Poly.variable(R3, i) for i in range(3))
    assert (y + 1) * x ** 2 + 2 * z ** 2 * x - y + 2 * z ** 2 - 1 in gb.basis
    calls = _count_candidates(monkeypatch)
    sols = solve_triangular(gb, list(gb.basis), precision=128)
    assert len(calls) == 4 * len(gb.basis)
    got = [tuple(complex(c) for c in p.coords) for p in sols.points]
    assert {tuple(round(c.real) for c in g) for g in got} == {
        (-1, -1, -1), (-1, -1, 0), (-1, 0, -1), (1, -1, 0)}
    for g in got:
        assert max(abs(c - round(c.real)) for c in g) < 1e-30


def test_vanishing_leading_coefficient_of_a_radical_basis_is_trimmed(
        monkeypatch):
    """The lex basis of these eight points holds
    (z-1)x^2 + (z-y-2)x + 3yz - 2y + z, whose leading coefficient
    vanishes at (y, z) = (0, 1) but not its other terms: it specializes
    to 1 - x, whose root is the only one there."""
    pts = {(-2, -1, 0), (-2, -1, 1), (-2, 0, 0), (-1, -1, 1), (0, 0, 0),
           (1, -1, 0), (1, 0, 1), (2, -1, 1)}
    gb = _point_ideal(pts)
    x, y, z = (Poly.variable(R3, i) for i in range(3))
    assert ((z - 1) * x ** 2 + (z - y - 2) * x + 3 * y * z - 2 * y + z
            in gb.basis)
    calls = _count_candidates(monkeypatch)
    sols = solve_triangular(gb, list(gb.basis), precision=128)
    assert len(calls) == 8 * len(gb.basis)
    got = [tuple(complex(c) for c in p.coords) for p in sols.points]
    assert len(got) == 8
    for g, want in zip(got, sorted(pts)):
        assert max(abs(a - b) for a, b in zip(g, want)) < 1e-30


def test_branches_walk_depth_first_first_root_first(monkeypatch):
    """Root finding runs, by the roots each call returns, on z; on y at
    z = 0; on x at (y, z) = (0, 0), then (1, 0); on y at z = 1; on x at
    (-1, 1), then (2, 1). Two levels cannot tell depth first from
    breadth first, so the points lie in three variables."""
    pts = {(1, 0, 0), (2, 1, 0), (3, 1, 0), (-1, -1, 1), (0, 2, 1),
           (2, 2, 1)}
    gb = _point_ideal(pts)
    calls = []
    roots_numeric = solver._roots_numeric

    def spy(coeffs, precision):
        roots = roots_numeric(coeffs, precision)
        calls.append([round(float(r.real)) for r in roots])
        return roots

    monkeypatch.setattr(solver, "_roots_numeric", spy)
    sols = solve_triangular(gb, list(gb.basis), precision=128)
    assert len(sols.points) == 6
    assert calls == [[0, 1], [0, 1], [1], [2, 3], [-1, 2], [-1], [0, 2]]


def _cyclic_garbage(call):
    """Objects in reference cycles that call() leaves behind."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_a_solve_leaves_no_cyclic_garbage(d2_pipeline):
    # reference counting frees all a solve allocates when it returns
    system, gb, _ = d2_pipeline
    eqs = list(system.equations)
    assert _cyclic_garbage(
        lambda: solve_triangular(gb, eqs, precision=256)) == 0
    x, y = _xy()
    grid = [x * (x - 1) * (x + 1), y * (y - 2)]
    gb2 = buchberger(grid, "lex")
    assert _cyclic_garbage(
        lambda: solve_triangular(gb2, grid, precision=128)) == 0


@pytest.mark.parametrize("precision", [8, 16, 20, 52])
def test_precision_below_53_bits_rejected(d2_pipeline, precision):
    """At 8 and 16 bits the trim cut would swallow every coefficient and
    the d=2 solve return no point; at 20 bits it would return all 32 in
    a set whose own file SolutionSet.from_json refuses."""
    system, gb, _ = d2_pipeline
    with pytest.raises(ValueError, match="below 53 bits"):
        solve_triangular(gb, list(system.equations), precision=precision)


def test_precision_53_bits_solves_and_round_trips(d2_pipeline):
    system, gb, _ = d2_pipeline
    sols = solve_triangular(gb, list(system.equations), precision=53)
    assert len(sols.points) == 32
    assert len(SolutionSet.from_json(sols.to_json()).points) == 32


def test_d2_solution_set_structure(d2_pipeline):
    system, gb, sols = d2_pipeline
    assert len(sols.points) == 32
    counts = sols.counts()
    assert counts["total"] == 32
    assert counts["real"] == 16
    assert counts["real_up_to_sign"] == 8
    assert counts["orbits"] == 2
    worst = max(p.residual for p in sols.points)
    assert worst <= mpmath.mpf(1e-10)


def test_d2_closure_properties(d2_pipeline):
    """Real-coefficient system: conjugation closure; even system plus
    linear phase fix: sign closure."""
    _, _, sols = d2_pipeline
    with mpmath.workprec(256):
        pts = [p.coords for p in sols.points]

        def present(q):
            return any(
                max(abs(a - b) for a, b in zip(q, other)) < mpmath.mpf(1e-40)
                for other in pts
            )

        for p in pts:
            assert present(tuple(mpmath.conj(c) for c in p))
            assert present(tuple(-c for c in p))


def test_d2_sign_pairing(d2_pipeline):
    _, _, sols = d2_pipeline
    with mpmath.workprec(256):
        canon = [p for p in sols.points
                 if p.tags["real"] and p.tags["sign_canonical"]]
        others = [p for p in sols.points
                  if p.tags["real"] and not p.tags["sign_canonical"]]
        assert len(canon) == len(others) == 8
        for p in canon:
            neg = tuple(-c for c in p.coords)
            hit = any(
                max(abs(a - b) for a, b in zip(neg, q.coords)) < mpmath.mpf(1e-40)
                for q in others
            )
            assert hit


def test_d2_orbit_ids(d2_pipeline):
    _, _, sols = d2_pipeline
    ids = {p.tags["orbit_id"] for p in sols.points if p.tags["real"]}
    assert ids == {0, 1}
    for p in sols.points:
        if not p.tags["real"]:
            assert p.tags["orbit_id"] is None


def test_counts_recompute_not_stale(d2_pipeline):
    _, _, sols = d2_pipeline
    before = sols.counts()["real"]
    flip = next(p for p in sols.points if p.tags["real"])
    flip.tags["real"] = False
    try:
        assert sols.counts()["real"] == before - 1
    finally:
        flip.tags["real"] = True


def test_solution_set_json_round_trip(d2_pipeline):
    _, _, sols = d2_pipeline
    doc = sols.to_json()
    back = SolutionSet.from_json(doc)
    assert back.precision == sols.precision
    assert back.tolerances == sols.tolerances
    assert len(back.points) == len(sols.points)
    assert back.counts() == sols.counts()
    with mpmath.workprec(256):
        for p, q in zip(sols.points, back.points):
            assert p.tags == q.tags
            for a, b in zip(p.coords, q.coords):
                assert abs(a - b) < mpmath.mpf(10) ** -70


def test_forged_fiducial_tags_are_derived_anew(d2_pipeline):
    """A solutions file's sign and orbit tags are never read: with every
    sign tag forged false and every orbit to 7, the d=2 file reads back
    with the counts of the solve."""
    _, _, sols = d2_pipeline
    doc = sols.to_json()
    for p in doc["points"]:
        p["tags"]["sign_canonical"] = False
        p["tags"]["orbit_id"] = 7
    back = SolutionSet.from_json(doc)
    assert back.counts() == {"total": 32, "real": 16, "real_up_to_sign": 8,
                             "orbits": 2, "zauner": None}


def test_json_rejects_wrong_format():
    with pytest.raises(ValueError):
        SolutionSet.from_json({"format": "basis"})


def test_zauner_vectors_are_unit_fiducials():
    from eqlines.verify import verify_fiducial

    for v in zauner_vectors(160):
        with mpmath.workprec(160):
            nrm = sum(abs(x) ** 2 for x in v)
            assert abs(nrm - 1) < mpmath.mpf(2) ** -140
        assert verify_fiducial(v, tol=1e-12, precision=192)["ok"]


def test_zauner_first_coordinate_real_positive():
    with mpmath.workprec(160):
        for v in zauner_vectors(160):
            assert abs(v[0].imag) < mpmath.mpf(2) ** -140
            assert v[0].real > mpmath.mpf(1) / 3


def _solset_from_vectors(vectors, precision=160):
    pts = []
    with mpmath.workprec(precision):
        for v in vectors:
            coords = tuple(
                [mpmath.mpc(x.real) for x in v]
                + [mpmath.mpc(x.imag) for x in v]
            )
            pts.append(SolutionPoint(coords, mpmath.mpf(0), {}))
    return SolutionSet(pts, precision, Tolerances())


def test_match_zauner_closed_forms():
    vecs = zauner_vectors(160)
    with mpmath.workprec(160):
        negs = [[-x for x in v] for v in vecs]
        rand = [[mpmath.mpc(1)] + [mpmath.mpc(0)] * 3]
    sols = replace(_solset_from_vectors(vecs + negs + rand),
                   d=4, kind="wh_fiducial")
    flags = [p.tags["zauner_match"] for p in sols.points]
    # canonical representatives match, negations and the basis vector do not
    assert flags == [True] * 4 + [False] * 5
    assert sols.counts()["zauner"] == 4


def test_classify_d4_matches_zauner():
    vecs = zauner_vectors(160)
    with mpmath.workprec(160):
        negs = [[-x for x in v] for v in vecs]
    sols = replace(_solset_from_vectors(vecs + negs),
                   d=4, kind="wh_fiducial")
    assert [p.tags["zauner_match"] for p in sols.points] == [True] * 4 + [False] * 4
    assert sols.counts()["zauner"] == 4


def test_forged_zauner_tags_are_derived_anew():
    """Every zauner_match of a d=4 file forged to true reads back as the
    four closed forms, not the nine points of the file."""
    vecs = zauner_vectors(160)
    with mpmath.workprec(160):
        negs = [[-x for x in v] for v in vecs]
        rand = [[mpmath.mpc(1)] + [mpmath.mpc(0)] * 3]
    sols = replace(_solset_from_vectors(vecs + negs + rand),
                   d=4, kind="wh_fiducial")
    doc = sols.to_json()
    for p in doc["points"]:
        p["tags"]["zauner_match"] = True
    assert SolutionSet.from_json(doc).counts()["zauner"] == 4


def test_match_zauner_wrong_dimension():
    with mpmath.workprec(128):
        pts = [SolutionPoint((mpmath.mpc(1),) * 4, mpmath.mpf(0), {})]
    sols = SolutionSet(pts, 128, Tolerances())
    with pytest.raises(ValueError):
        replace(sols, d=4, kind="wh_fiducial")


def test_classify_empty():
    sols = replace(SolutionSet([], 128, Tolerances()),
                   d=2, kind="wh_fiducial")
    assert sols.counts()["total"] == 0


def test_tolerances_json_round_trip():
    t = Tolerances(residual=1e-9, cluster=1e-22, realness=1e-18, match=1e-8)
    assert Tolerances.from_json(t.to_json()) == t


def test_tolerances_must_be_positive_and_finite():
    for name in ("residual", "cluster", "realness", "match"):
        for value in (0.0, -1.0, float("nan"), float("inf")):
            msg = f"tolerance {name} must be positive and finite, not {value!r}"
            with pytest.raises(ValueError, match=msg):
                Tolerances(**{name: value})
            with pytest.raises(ValueError, match=msg):
                Tolerances.from_json({name: repr(value)})


def test_sort_key_ignores_rounding_noise():
    # P and Q differ in the first coordinate only by noise of size
    # 2^-(precision+8) in the imaginary part, so the second coordinate
    # decides: Q first, although P's raw imaginary part is the smaller
    precision = 256
    with mpmath.workprec(precision + 48):
        eps = mpmath.ldexp(1, -(precision + 8))
        P = (mpmath.mpc(1, -eps), mpmath.mpc(2))
        Q = (mpmath.mpc(1, eps), mpmath.mpc(1))

        def key(coords):
            return solver._sort_key(coords, precision)

        assert sorted([P, Q], key=key) == [Q, P]
        # equal after rounding: the stable sort keeps the given order
        R = (mpmath.mpc(1, eps), mpmath.mpc(2))
        assert sorted([P, R], key=key) == [P, R]
        assert sorted([R, P], key=key) == [R, P]

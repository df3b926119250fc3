"""Numeric solver: root contracts, back-substitution, classification."""

import itertools
from fractions import Fraction

import mpmath
import pytest

from eqlines.exact import QQ, CycloField, cyclo_root_of_unity
from eqlines.groebner import GroebnerBasis, buchberger
from eqlines.polyring import Poly, Ring
from eqlines.solver import (
    BranchCapExceeded,
    NotZeroDimensionalError,
    SolutionPoint,
    SolutionSet,
    SolverError,
    Tolerances,
    classify,
    match_zauner,
    solve_triangular,
    univariate_roots,
    zauner_vectors,
)

R1 = Ring(("t",), QQ)
R2 = Ring(("x", "y"), QQ)


def _t():
    return Poly.variable(R1, 0)


def _xy():
    return Poly.variable(R2, 0), Poly.variable(R2, 1)


def test_univariate_roots_trivial():
    t = _t()
    r = univariate_roots(t ** 2 - 1, 128)
    assert len(r) == 2
    with mpmath.workprec(128):
        assert abs(r[0] + 1) < mpmath.mpf(2) ** -100
        assert abs(r[1] - 1) < mpmath.mpf(2) ** -100
    ri = univariate_roots(t ** 2 + 1, 128)
    with mpmath.workprec(128):
        assert abs(ri[0] + mpmath.mpc(0, 1)) < mpmath.mpf(2) ** -100
        assert abs(ri[1] - mpmath.mpc(0, 1)) < mpmath.mpf(2) ** -100


def test_univariate_roots_vieta():
    t = _t()
    roots = univariate_roots(t ** 3 - 2, 192)
    assert len(roots) == 3
    with mpmath.workprec(192):
        prod = roots[0] * roots[1] * roots[2]
        assert abs(prod - 2) < mpmath.mpf(1e-12)


def test_univariate_roots_multiplicity():
    t = _t()
    roots = univariate_roots((t - 1) ** 3, 160)
    assert len(roots) == 3
    with mpmath.workprec(160):
        for r in roots:
            assert abs(r - 1) < mpmath.mpf(1e-10)


def test_univariate_roots_cyclotomic_multiplicity():
    # (t - i)^2 (t + 1) over Q(zeta_4)
    ring = Ring(("t",), CycloField(4))
    t = Poly.variable(ring, 0)
    i = Poly.constant(ring, cyclo_root_of_unity(4, 1))
    roots = univariate_roots((t - i) ** 2 * (t + 1), 160)
    assert len(roots) == 3
    with mpmath.workprec(160):
        eps = mpmath.mpf(2) ** -120
        assert abs(roots[0] + 1) < eps
        assert all(abs(r - mpmath.mpc(0, 1)) < eps for r in roots[1:])


def test_univariate_roots_ordering_deterministic():
    t = _t()
    f = t ** 5 - t ** 3 + 2 * t - 1
    a = univariate_roots(f, 128)
    b = univariate_roots(f, 128)
    assert a == b
    keys = [(z.real, z.imag) for z in a]
    assert keys == sorted(keys)


def test_univariate_roots_errors():
    t = _t()
    with pytest.raises(ValueError):
        univariate_roots(Poly.zero(R1), 128)
    x, _ = _xy()
    with pytest.raises(ValueError):
        univariate_roots(x, 128)
    assert univariate_roots(Poly.constant(R1, Fraction(3)), 128) == []


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
    # x = +-1 real, x = +-i not; no classify call needed
    x, y = _xy()
    eqs = [x ** 4 - 1, y - 1]
    sols = solve_triangular(buchberger(eqs, "lex"), eqs, precision=128)
    assert [p.tags["real"] for p in sols.points] == [True, False, False, True]
    assert sols.counts()["real"] == 2


def test_residuals_against_original_system():
    x, y = _xy()
    gens = [x ** 2 + y ** 2 - 1, x * y - 1]
    gb = buchberger(gens, "lex")
    sols = solve_triangular(gb, gens, precision=192)
    assert len(sols.points) == 4
    for p in sols.points:
        assert p.residual <= mpmath.mpf(1e-10)


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


def test_repeated_root_after_specialization_fails_fast():
    # (x - 1)^3 appears only once y = 1 is substituted
    x, y = _xy()
    with pytest.raises(SolverError, match="degree 3"):
        _solve_points([(x - y) ** 3, (y - 1) ** 2])


def test_not_zero_dimensional():
    x, y = _xy()
    gb = buchberger([x * y], "lex")
    with pytest.raises(NotZeroDimensionalError):
        solve_triangular(gb, [x * y], precision=128)


def test_unreduced_basis_rejected():
    # (x^2 - y, x^2) is no Groebner basis, so the solver must not
    # reduce it for the caller
    x, y = _xy()
    gb = GroebnerBasis(x.ring, "lex", (x ** 2 - y, x ** 2), False)
    with pytest.raises(ValueError, match="needs a reduced lex basis"):
        solve_triangular(gb, [x ** 2 - y, x ** 2], precision=128)


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


def test_branch_cap():
    x, y = _xy()
    gens = [x ** 4 - 1, y ** 4 - 1]
    gb = buchberger(gens, "lex")
    with pytest.raises(BranchCapExceeded):
        solve_triangular(gb, gens, precision=128, max_points=3)


def test_empty_variety():
    x, y = _xy()
    gb = buchberger([x, x + 1], "lex")
    sols = solve_triangular(gb, [x, x + 1], precision=128)
    assert sols.points == []
    counts = sols.counts()
    assert counts["total"] == 0 and counts["orbits"] is None


def test_vanishing_and_linear_specializations():
    """Lex basis {x^2 - y, xy - x, y^2 - y}: at y = 1 the element xy - x
    vanishes and is skipped, at y = 0 it leaves -x, the lowest degree."""
    x, y = _xy()
    gens = [x * (y - 1), y * (y - 1), x ** 2 - y]
    gb = buchberger(gens, "lex")
    assert set(gb.basis) == {x ** 2 - y, x * y - x, y ** 2 - y}
    sols = solve_triangular(gb, gens, precision=128)
    got = [tuple(complex(c) for c in p.coords) for p in sols.points]
    assert got == [(-1, 1), (0, 0), (1, 1)]
    assert all(p.tags["real"] for p in sols.points)


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
    sols = _solset_from_vectors(vecs + negs + rand)
    match_zauner(sols)
    flags = [p.tags["zauner_match"] for p in sols.points]
    # canonical representatives match, negations and the basis vector do not
    assert flags == [True] * 4 + [False] * 5
    assert sols.counts()["zauner"] == 4


def test_classify_d4_matches_zauner():
    vecs = zauner_vectors(160)
    with mpmath.workprec(160):
        negs = [[-x for x in v] for v in vecs]
    sols = classify(_solset_from_vectors(vecs + negs), 4)
    assert [p.tags["zauner_match"] for p in sols.points] == [True] * 4 + [False] * 4
    assert sols.counts()["zauner"] == 4


def test_match_zauner_wrong_dimension():
    with mpmath.workprec(128):
        pts = [SolutionPoint((mpmath.mpc(1),) * 4, mpmath.mpf(0), {})]
    sols = SolutionSet(pts, 128, Tolerances())
    with pytest.raises(ValueError):
        match_zauner(sols)


def test_classify_empty():
    sols = SolutionSet([], 128, Tolerances())
    classify(sols, 2)
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

"""cyclo_wh3: Weyl-Heisenberg systems over cyclotomic fields.

A round is four instances: ``gen_wh_system(5)`` over Q(zeta_20) with
and without the phase-fixing equation, ``gen_wh_system(3)`` over
Q(zeta_12), and the grevlex basis of the d=3 system with
``quotient_dimension``. The d=3 ideal is positive-dimensional
(the d=3 fiducials form a one-parameter family), so there is no lex
solve. The systems are fixed; the seed draws the rational test points.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import mpmath

from eqlines import buchberger, gen_wh_system, quotient_dimension
from eqlines.groebner import PairBudgetExceeded
from eqlines.polyring import reduce_poly
from harness import Instance
import refs

NAME = "cyclo_wh3"
WARM = [(12, ()), (20, ())]
PAIR_BUDGET = 2_000
EXPECTED_EQUATIONS = {3: 6, 5: 14}  # with the phase-fixing equation
TEST_POINTS = 2
CHECK_PREC = 256


def _rational_point(d, rng):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2 * d)]


def _gen(label, d, phase_fix, rng):
    return Instance(label, {
        "d": d,
        "phase_fix": phase_fix,
        "points": [_rational_point(d, rng) for _ in range(TEST_POINTS)],
    })


def make_round(rng):
    # the two d=5 generations, which set the median instance time, open
    # and close the round so one slow spell of the host cannot cover both
    return [
        _gen("gen_d5", 5, True, rng),
        _gen("gen_d3", 3, True, rng),
        Instance("grevlex_d3", {"system": gen_wh_system(3)}),
        _gen("gen_d5_nophase", 5, False, rng),
    ]


def run(inst, tr):
    if "d" in inst.data:
        with tr.span("sicgen.gen"):
            system = gen_wh_system(inst.data["d"], phase_fix=inst.data["phase_fix"])
        tr.add("sicgen.equations", len(system.equations))
        return system
    eqs = list(inst.data["system"].equations)
    with tr.span("groebner.basis"):
        try:
            gb = buchberger(eqs, "grevlex", pair_budget=PAIR_BUDGET)
        except PairBudgetExceeded as exc:
            tr.add("groebner.budget_exhausted", 1)
            tr.add("groebner.pairs", exc.pairs_processed)
            raise
    tr.add("groebner.pairs", gb.pair_count)
    tr.add("groebner.basis_size", len(gb))
    with tr.span("groebner.qdim"):
        qdim = quotient_dimension(gb)
    return gb, qdim


def _check_system(inst, system):
    """Equations against the overlap definition at rational points."""
    d = inst.data["d"]
    problems = []
    n = getattr(system.ring.field, "n", None)
    if n != lcm(4, d):
        problems.append(f"d={d} field conductor {n}, expected {lcm(4, d)}")
    want_eqs = EXPECTED_EQUATIONS[d] - (0 if inst.data["phase_fix"] else 1)
    if len(system.equations) != want_eqs:
        problems.append(f"d={d}: {len(system.equations)} equations, expected {want_eqs}")
    with mpmath.workprec(CHECK_PREC):
        tol = mpmath.mpf(2) ** (-CHECK_PREC + 40)
        for pt in inst.data["points"]:
            x = [mpmath.mpf(c.numerator) / c.denominator for c in pt]
            v = [mpmath.mpc(x[k], x[d + k]) for k in range(d)]
            norm4 = mpmath.fsum(abs(z) ** 2 for z in v) ** 2
            for label, eq in zip(system.labels, system.equations):
                value, scale = refs.eval_terms(eq.terms, x)
                rhs = Fraction(system.rhs[label])
                if label == "phase":
                    want = [x[d]]
                else:
                    want = [refs.wh_overlap_sq(v, a, b) * norm4 - rhs
                            for a, b in system.merged[label]]
                for w in want:
                    if abs(value - w) > tol * (scale + 1):
                        problems.append(f"d={d} {label} off the overlap definition by "
                                        f"{mpmath.nstr(abs(value - w), 5)}")
    return problems


def _check_basis(inst, gb, qdim):
    problems = []
    if qdim != float("inf"):
        problems.append(f"quotient dimension {qdim}, expected a positive-dimensional ideal")
    basis = list(gb.basis)
    for g in inst.data["system"].equations:
        if not reduce_poly(g, basis, "grevlex").is_zero():
            problems.append("a generator does not reduce to zero")
            break
    # closed-form d=3 fiducial (0, 1, -1)/sqrt(2): real parts x0..x2, imaginary x3..x5
    with mpmath.workprec(CHECK_PREC):
        r = 1 / mpmath.sqrt(2)
        point = [mpmath.mpf(0), r, -r, 0, 0, 0]
        tol = mpmath.mpf(2) ** (-CHECK_PREC + 40)
        for p in basis:
            value, scale = refs.eval_terms(p.terms, point)
            if abs(value) > tol * (scale + 1):
                problems.append(f"basis element nonzero at the fiducial: {mpmath.nstr(abs(value), 5)}")
                break
    return problems


def check(inst, out, tr):
    if "d" in inst.data:
        return _check_system(inst, out)
    return _check_basis(inst, *out)

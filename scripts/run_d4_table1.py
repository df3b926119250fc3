#!/usr/bin/env python3
"""Attempt the full d=4 solution count table.

The target classification is
    total=1024 real=512 real_up_to_sign=256 orbits=16 zauner=4
reached through the staged basis pipeline (grevlex first, then lex) and
triangular back-substitution. The Groebner stage for this system is far
beyond interactive budgets, so the run takes --pair-budget and, when
the budget is exhausted, reports exactly how far it got and falls back
to what can be certified without the basis: the four closed-form
fiducial vectors and the exactness of the generated system.

Exit codes: 0 full table reproduced, 3 budget exhausted (fallback
checks reported), 1 mismatch against the expected table.
"""

import argparse
import sys
import time
from dataclasses import replace

import mpmath

from eqlines.groebner import PairBudgetExceeded, grevlex_then_lex
from eqlines.sicgen import gen_wh_system
from eqlines.solver import solve_triangular, zauner_vectors
from eqlines.verify import verify_fiducial

EXPECTED = {
    "total": 1024,
    "real": 512,
    "real_up_to_sign": 256,
    "orbits": 16,
    "zauner": 4,
}


def fallback_report():
    print("fallback certification without the lex basis:")
    ok = True
    for k, v in zip((1, 3, 5, 7), zauner_vectors(256)):
        res = verify_fiducial(v, tol=1e-12, precision=256)
        print(
            f"  closed-form vector k={k}: ok={res['ok']} "
            f"max_dev={mpmath.nstr(res['max_dev'], 3)}"
        )
        ok = ok and res["ok"]
    system = gen_wh_system(4)
    n = len(system.equations)
    print(f"  generated system: {n} generators over {system.ring.field.name}")
    ok = ok and n == 11
    return ok


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pair-budget", type=int, default=5000,
                    help="S-pair budget for the staged basis computation")
    ap.add_argument("--precision", type=int, default=256)
    args = ap.parse_args(argv)

    system = gen_wh_system(4)
    gens = list(system.equations)
    print(f"d=4 system: {len(gens)} generators, {system.ring.arity} variables")

    t0 = time.monotonic()
    try:
        gb = grevlex_then_lex(gens, pair_budget=args.pair_budget)
    except PairBudgetExceeded as exc:
        elapsed = time.monotonic() - t0
        print(
            f"groebner stage exhausted pair budget {args.pair_budget} "
            f"after {elapsed:.0f}s "
            f"({exc.pairs_processed} pairs, "
            f"partial basis {len(exc.partial)})"
        )
        ok = fallback_report()
        return 3 if ok else 1
    print(f"groebner stage done in {time.monotonic() - t0:.0f}s, "
          f"basis size {len(gb.basis)}")

    sols = replace(solve_triangular(gb, gens, precision=args.precision),
                   d=system.d, kind=system.kind)
    counts = sols.counts()
    print("counts:", counts)
    mismatches = {
        k: (counts[k], v) for k, v in EXPECTED.items() if counts[k] != v
    }
    if mismatches:
        print("MISMATCH against expected table:", mismatches)
        return 1
    print("expected table reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(run())

"""seidel_gram: exact Gram analysis of real equiangular sign patterns.

A round is the 28 lines in R^7 (Seidel matrix of the triangular graph
T(8): +1 for pairs of lines sharing a point of K8, -1 otherwise;
alpha = 1/3 with multiplicity 21) and seven seeded patterns:
N = 16 with uniform random signs, five planted N = 18 patterns (a
random 18-subset of the T(8) lines, randomly switched and relabelled,
so alpha = 1/3 is admissible in R^7) and N = 22 with uniform random
signs, which usually has no admissible angle. The five planted
patterns sit in the middle of the per-instance time distribution, so
its median comes from one cluster of similar cost. Every admissible
root goes through ``spectral_reconstruct`` and
``verify_equiangular_real``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath
import numpy as np

from eqlines import SeidelSpec, gram_analysis, spectral_reconstruct, verify_equiangular_real
from harness import Instance, InstanceFailed
import refs

NAME = "seidel_gram"
WARM = []
D = 7
# (N, planted) in run order, None for T(8). The planted N = 18 patterns are
# spread around the long T(8) instance so that a slow spell of the host
# cannot cover all of them.
ROUND = ((18, True), (16, False), (18, True), None, (18, True), (22, False),
         (18, True), (18, True))
DET_POINTS = 3
TOL = 1e-9


def t8_signs():
    pairs = list(itertools.combinations(range(8), 2))
    return [[0 if i == j else (1 if set(p) & set(q) else -1)
             for j, q in enumerate(pairs)] for i, p in enumerate(pairs)]


def _planted(n, rng):
    base = t8_signs()
    lines = rng.sample(range(len(base)), n)
    flip = [rng.choice((-1, 1)) for _ in range(n)]
    return [[base[a][b] * flip[i] * flip[j] for j, b in enumerate(lines)]
            for i, a in enumerate(lines)]


def _uniform(n, rng):
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = s[j][i] = rng.choice((-1, 1))
    return s


def make_round(rng):
    insts = []
    for slot in ROUND:
        if slot is None:
            insts.append(Instance("T8", {"signs": t8_signs()}))
            continue
        n, planted = slot
        signs = (_planted if planted else _uniform)(n, rng)
        insts.append(Instance(f"N{n}" + ("-planted" if planted else ""), {"signs": signs}))
    for inst in insts:
        inst.data["spec"] = SeidelSpec(inst.data["signs"])
        inst.data["alphas"] = [Fraction(rng.randint(1, 9), rng.randint(10, 19))
                               for _ in range(DET_POINTS)]
    return insts


def run(inst, tr):
    signs = np.array(inst.data["signs"], dtype=float)
    with tr.span("verify.gram"):
        res = gram_analysis(inst.data["spec"], D)
    checks = []
    for a in res["admissible_alphas"]:
        g = np.eye(len(signs)) + float(a) * signs
        with tr.span("verify.spectral"):
            sr = spectral_reconstruct(g, D, tol=TOL)
        with tr.span("verify.real"):
            vr = verify_equiangular_real(sr["vectors"], tol=TOL)
        if not vr["ok"]:
            raise InstanceFailed(f"equiangular check failed at alpha {mpmath.nstr(a, 8)}")
        checks.append(vr["alpha_est"])
    return res, checks


def check(inst, out, tr):
    res, alpha_est = out
    problems = []
    signs = inst.data["signs"]
    n = len(signs)
    coeffs = {m[0]: c for m, c in res["det_poly"].terms}
    for a in inst.data["alphas"]:
        want = refs.frac_det([[1 if i == j else a * signs[i][j] for j in range(n)]
                              for i in range(n)])
        got = sum(c * a ** k for k, c in coeffs.items())
        if got != want:
            problems.append(f"det_poly({a}) = {got}, independent determinant {want}")
    ref = refs.seidel_admissible(signs, D)
    got = list(zip((float(a) for a in res["admissible_alphas"]), res["multiplicities"]))
    if len(got) != len(ref) or any(
        abs(ga - ra) > 1e-8 or gm != rm for (ga, gm), (ra, rm) in zip(got, ref)
    ):
        problems.append(f"admissible {got}, spectrum gives {ref}")
    if any(abs(e - float(a)) > 1e-8 for e, a in zip(alpha_est, res["admissible_alphas"])):
        problems.append("reconstructed lines are not at the admissible angle")
    if inst.label == "T8":
        alphas = res["admissible_alphas"]
        with mpmath.workprec(128):
            off = abs(alphas[0] - mpmath.mpf(1) / 3) if len(alphas) == 1 else 1
        if off > 1e-20 or res["multiplicities"] != [21]:
            problems.append(f"T(8): alphas {alphas} multiplicities {res['multiplicities']}")
    return problems

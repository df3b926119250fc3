"""System generators: golden d=4 forms, numeric oracles, real variants.

The d=4 equations are pinned term-for-term against hand-entered
expansions; the oracle tests then compare exact polynomial evaluation
against an independent numeric computation of the squared overlap for
random rational vectors, which checks both generators against the
definition rather than against themselves.
"""

import gc
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from eqlines.exact import CycloField, CycloNum, QQ, cyclo_embed
from eqlines.polyring import Poly, Ring
from eqlines.sicgen import (
    PolySystem,
    apply_weyl,
    fiducial_from_coords,
    gen_complex_full,
    gen_real_system,
    gen_wh_system,
)


def _sq(p):
    return p * p


def expected_d4_forms(ring):
    """The nine distinct squared-overlap polynomials at d=4."""
    x = [Poly.variable(ring, i) for i in range(8)]

    def s(*pairs):
        acc = Poly.zero(ring)
        for c, i, j in pairs:
            acc = acc + c * x[i] * x[j]
        return acc

    p00 = _sq(sum((x[i] * x[i] for i in range(8)), Poly.zero(ring)))
    p01 = _sq(s((1, 0, 0), (-1, 2, 2), (1, 4, 4), (-1, 6, 6))) + \
        _sq(s((1, 1, 1), (-1, 3, 3), (1, 5, 5), (-1, 7, 7)))
    p02 = _sq(s((1, 0, 0), (-1, 1, 1), (1, 2, 2), (-1, 3, 3),
                (1, 4, 4), (-1, 5, 5), (1, 6, 6), (-1, 7, 7)))
    p10 = _sq(s((1, 0, 1), (1, 1, 2), (1, 0, 3), (1, 2, 3),
                (1, 4, 5), (1, 5, 6), (1, 4, 7), (1, 6, 7))) + \
        _sq(s((1, 1, 4), (-1, 3, 4), (-1, 0, 5), (1, 2, 5),
              (-1, 1, 6), (1, 3, 6), (1, 0, 7), (-1, 2, 7)))
    p11 = _sq(s((1, 0, 1), (-1, 2, 3), (1, 3, 4), (1, 2, 5),
                (1, 4, 5), (-1, 1, 6), (-1, 0, 7), (-1, 6, 7))) + \
        _sq(s((1, 1, 2), (-1, 0, 3), (-1, 1, 4), (1, 0, 5),
              (1, 3, 6), (1, 5, 6), (-1, 2, 7), (-1, 4, 7)))
    p12 = _sq(s((1, 0, 1), (-1, 1, 2), (-1, 0, 3), (1, 2, 3),
                (1, 4, 5), (-1, 5, 6), (-1, 4, 7), (1, 6, 7))) + \
        _sq(s((1, 1, 4), (1, 3, 4), (-1, 0, 5), (-1, 2, 5),
              (1, 1, 6), (1, 3, 6), (-1, 0, 7), (-1, 2, 7)))
    p13 = _sq(s((1, 0, 1), (-1, 2, 3), (-1, 3, 4), (-1, 2, 5),
                (1, 4, 5), (1, 1, 6), (1, 0, 7), (-1, 6, 7))) + \
        _sq(s((1, 1, 2), (-1, 0, 3), (1, 1, 4), (-1, 0, 5),
              (-1, 3, 6), (1, 5, 6), (1, 2, 7), (-1, 4, 7)))
    p20 = 4 * _sq(s((1, 0, 2), (1, 1, 3), (1, 4, 6), (1, 5, 7)))
    p21 = 4 * _sq(s((1, 2, 4), (-1, 0, 6))) + \
        4 * _sq(s((1, 3, 5), (-1, 1, 7)))
    p22 = 4 * _sq(s((1, 0, 2), (-1, 1, 3), (1, 4, 6), (-1, 5, 7)))
    return {
        "p_0_0": p00, "p_0_1": p01, "p_0_2": p02,
        "p_1_0": p10, "p_1_1": p11, "p_1_2": p12, "p_1_3": p13,
        "p_2_0": p20, "p_2_1": p21, "p_2_2": p22,
    }


def test_d4_golden_forms():
    system = gen_wh_system(4)
    assert len(system.equations) == 11
    assert system.ring.field == QQ
    assert system.labels[0] == "phase"
    # phase equation is the first imaginary coordinate
    assert system.equations[0] == Poly.variable(system.ring, 4)
    expected = expected_d4_forms(system.ring)
    rhs = {lab: Fraction(r) for lab, r in system.rhs.items()}
    for lab, eq in zip(system.labels[1:], system.equations[1:]):
        assert eq + rhs[lab] == expected[lab], lab
    assert rhs["p_0_0"] == 1
    assert rhs["phase"] == 0
    assert all(
        v == Fraction(1, 5)
        for k, v in rhs.items()
        if k not in ("p_0_0", "phase")
    )


def test_d4_merged_classes():
    system = gen_wh_system(4)
    merged = {k: {tuple(ab) for ab in v} for k, v in system.merged.items()}
    assert merged["p_0_1"] == {(0, 1), (0, 3)}
    assert merged["p_1_0"] == {(1, 0), (3, 0)}
    assert merged["p_1_1"] == {(1, 1), (3, 3)}
    assert merged["p_1_2"] == {(1, 2), (3, 2)}
    assert merged["p_1_3"] == {(1, 3), (3, 1)}
    assert merged["p_2_1"] == {(2, 1), (2, 3)}
    singles = {"p_0_0", "p_0_2", "p_2_0", "p_2_2"}
    for k in singles:
        assert len(merged[k]) == 1


def test_field_by_dimension():
    assert gen_wh_system(2).ring.field == QQ
    assert gen_wh_system(4).ring.field == QQ
    assert gen_wh_system(3).ring.field == CycloField(12)
    assert gen_wh_system(5).ring.field == CycloField(20)


def test_phase_fix_toggle():
    on = gen_wh_system(3)
    off = gen_wh_system(3, phase_fix=False)
    assert len(on.equations) == len(off.equations) + 1
    assert on.labels[0] == "phase"
    assert "phase" not in off.labels
    assert on.ring.arity == off.ring.arity == 6


# sha256 of the canonical JSON (sorted keys, two-space indent, trailing
# newline, as the CLI writes it) of WH systems beyond the pinned CLI
# files (d <= 3) and the golden d=4 forms. The digests come from an
# earlier generator that expanded each overlap into cos/sin parts, so
# they check this one against an independent derivation.
WH_SYSTEM_SHA256 = {
    (5, True): "23e2c7fe366354afc711d6f1e236caad8a7f8ea3b593a0644601d701b9589631",
    (6, False): "d7f815548b72f7a27489b2bf4a283d97dd0958478b3d316c9a9724109242aac7",
}


@pytest.mark.parametrize("d, phase_fix", sorted(WH_SYSTEM_SHA256))
def test_wh_system_pinned(d, phase_fix):
    doc = gen_wh_system(d, phase_fix=phase_fix).to_json()
    data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == WH_SYSTEM_SHA256[(d, phase_fix)]


def test_wh_systems_d1_to_d5_pinned():
    """One digest over every WH system up to d=5, with and without the
    phase fix, taken before the generator built one overlap at a time."""
    text = "\n".join(
        json.dumps(gen_wh_system(d, pf).to_json(), sort_keys=True)
        for d in range(1, 6) for pf in (True, False)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f9846b84add81dac2cb25dccb9af5f0140a29e9be2660d360761b1a40d7fec9f")


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_wh_system_unfixed_classes(d):
    """Without the phase fix, p_ab = p_(-a)(-b) and no other overlaps
    coincide: each class is {(a, b), (-a, -b) mod d} in row-major
    order, labelled by its first pair, with rhs 1 for p_0_0 and
    1/(d+1) for every other label."""
    system = gen_wh_system(d, phase_fix=False)
    classes = {}
    for a in range(d):
        for b in range(d):
            first = min((a, b), (-a % d, -b % d))
            classes.setdefault(f"p_{first[0]}_{first[1]}", []).append((a, b))
    assert system.merged == {k: tuple(v) for k, v in classes.items()}
    assert system.labels == tuple(classes)
    assert system.rhs == {
        k: "1" if k == "p_0_0" else f"1/{d + 1}" for k in classes
    }
    assert len(system.equations) == len(classes)


def _hexagon_signs():
    from eqlines.sicgen import seidel_hexagon
    return seidel_hexagon().signs


def _icosahedron_signs():
    from eqlines.sicgen import seidel_icosahedron
    return seidel_icosahedron().signs


# sha256 of the canonical JSON of the generator variants that no pinned
# CLI file covers: the sign-resolved real systems with a symbolic alpha
# (rhs "1*alpha" and "-1*alpha"), the squared variant at alpha = 1/2
# (rhs "1/4") and the complex system of one vector.
GENERATOR_SHA256 = {
    "real-hexagon-signs": (
        lambda: gen_real_system(2, 3, signs=_hexagon_signs()),
        "34e007473dba8dbcbbc5b553eba3b2616be643c370cad3d0f9304f34cab198c5"),
    "real-squared-half": (
        lambda: gen_real_system(2, 3, alpha=Fraction(1, 2)),
        "2e3a7e7a1c011ea5c35482088ff2a7d369250a1947e055885e17233170a7f332"),
    "real-icosahedron-signs": (
        lambda: gen_real_system(3, 6, signs=_icosahedron_signs()),
        "39a2b6047609aa6777a5c620d02480da9aa4f1f0148b4c29eb0216a29f84153b"),
    "complex-full-d1": (
        lambda: gen_complex_full(1),
        "f60e7229b5ba46885ca95efcceb1aa8f7e7738887b530cad2ae2c879966f37df"),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SHA256))
def test_generator_variant_pinned(name):
    build, digest = GENERATOR_SHA256[name]
    doc = build().to_json()
    data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_wh_generator_peak_memory():
    """The generator holds one overlap product at a time, and the kept
    equations share their coefficients: the d=5 peak of Python
    allocations read 1.3 MB while all 25 products were kept at once,
    and 0.6 MB one at a time."""
    gen_wh_system(5)  # warm the Q(zeta_20) tables, which are kept
    gc.collect()  # empty the free lists, which would hide allocations
    tracemalloc.start()
    try:
        gen_wh_system(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 900_000


def _numeric_overlap_sq(v, a, b, prec=64):
    with mpmath.workprec(prec):
        w = apply_weyl(v, (a, b))
        ip = sum(x * mpmath.conj(y) for x, y in zip(w, v))
        return abs(ip) ** 2


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_oracle_generator_matches_definition(d):
    """Exact p_ab evaluation equals the numeric squared overlap."""
    system = gen_wh_system(d, phase_fix=False)
    rhs = {lab: Fraction(r) for lab, r in system.rhs.items()}
    lab_of = {}
    for lab, cls in system.merged.items():
        for ab in cls:
            lab_of[tuple(ab)] = lab
    rng = random.Random(100 + d)
    for _ in range(10):
        pt = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            for _ in range(2 * d)
        )
        exact = {}
        for lab, eq in zip(system.labels, system.equations):
            val = eq.eval_exact(pt) + rhs[lab]
            if isinstance(val, CycloNum):
                assert val.is_real()
                exact[lab] = cyclo_embed(val, 64).real
            else:
                exact[lab] = mpmath.mpf(val.numerator) / val.denominator
        with mpmath.workprec(64):
            def emb(q):
                return mpmath.mpf(q.numerator) / q.denominator

            v = [
                mpmath.mpc(emb(pt[k]), emb(pt[d + k]))
                for k in range(d)
            ]
            for a in range(d):
                for b in range(d):
                    num = _numeric_overlap_sq(v, a, b)
                    dev = abs(exact[lab_of[(a, b)]] - num)
                    assert dev < mpmath.mpf(1e-12) * (1 + num)


def test_apply_weyl_small_cases():
    with mpmath.workprec(64):
        v = [mpmath.mpc(2), mpmath.mpc(0, 3)]
        # clock: multiplies entry k by (-1)^k at d=2
        u = apply_weyl(v, (0, 1))
        assert u[0] == v[0] and u[1] == -v[1]
        # shift: rotates entries
        s = apply_weyl(v, (1, 0))
        assert s[0] == v[1] and s[1] == v[0]


def test_apply_weyl_unitary_and_periodic():
    with mpmath.workprec(80):
        for d in (2, 3, 5):
            v = [mpmath.mpc(k + 1, -k) for k in range(d)]
            nrm = mpmath.sqrt(sum(abs(x) ** 2 for x in v))
            v = [x / nrm for x in v]
            for a in range(d):
                for b in range(d):
                    w = apply_weyl(v, (a, b))
                    assert abs(sum(abs(x) ** 2 for x in w) - 1) < mpmath.mpf(2) ** -70
            w = apply_weyl(v, (d, 0))
            assert all(abs(x - y) < mpmath.mpf(2) ** -70 for x, y in zip(w, v))


def test_fiducial_from_coords():
    with mpmath.workprec(64):
        coords = [mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(3), mpmath.mpf(4)]
        v = fiducial_from_coords(coords)
        assert v[0] == mpmath.mpc(1, 3) and v[1] == mpmath.mpc(2, 4)


def test_complex_full_shapes():
    s1 = gen_complex_full(1)
    assert len(s1.equations) == 1 and s1.n_lines == 1
    s2 = gen_complex_full(2)
    # 4 vectors: 4 norm equations plus 6 unordered pairs
    assert len(s2.equations) == 10
    assert s2.ring.arity == 16
    assert s2.kind == "complex_full"


def test_complex_full_oracle_on_wh_orbit():
    """A numeric SIC family satisfies the full-system equations."""
    from eqlines.polyring import eval_terms

    s2 = gen_complex_full(2)
    rhs = {lab: Fraction(r) for lab, r in s2.rhs.items()}
    with mpmath.workprec(128):
        v = [
            mpmath.sqrt((3 + mpmath.sqrt(3)) / 6),
            mpmath.expjpi(mpmath.mpf(1) / 4)
            * mpmath.sqrt((3 - mpmath.sqrt(3)) / 6),
        ]
        fam = [apply_weyl(v, (a, b)) for a in range(2) for b in range(2)]
        # coordinates: all real parts by vector, then all imaginary parts
        pt = []
        for u in fam:
            pt.extend([x.real for x in u])
        for u in fam:
            pt.extend([x.imag for x in u])
        for lab, eq in zip(s2.labels, s2.equations):
            terms = [(m, eq.ring.field.embed(c, 128)) for m, c in eq.terms]
            val = eval_terms(terms, pt, mpmath.mpc(0)) + mpmath.mpf(rhs[lab].numerator) / rhs[lab].denominator
            want = 1 if lab.split("_")[1] == lab.split("_")[2] else mpmath.mpf(1) / 3
            assert abs(val - want) < mpmath.mpf(2) ** -100, lab


def test_real_system_squared_variant():
    s = gen_real_system(2, 3, alpha=Fraction(1, 2))
    assert len(s.equations) == 6
    assert s.extra["variant"] == "squared"
    assert s.ring.arity == 6


def test_real_system_sign_variant_hexagon():
    from eqlines.polyring import eval_terms
    from eqlines.sicgen import seidel_hexagon
    from eqlines.verify import hexagon_lines

    signs = seidel_hexagon().signs
    s = gen_real_system(2, 3, signs=signs)
    assert s.extra["variant"] == "sign_resolved"
    # symbolic angle variable comes last
    assert s.ring.vars[-1] == "alpha"
    with mpmath.workprec(64):
        pt = []
        for u in hexagon_lines():
            pt.extend([mpmath.mpf(float(c)) for c in u])
        pt.append(mpmath.mpf(1) / 2)
        for eq in s.equations:
            terms = [(m, eq.ring.field.embed(c, 64)) for m, c in eq.terms]
            assert abs(eval_terms(terms, pt, mpmath.mpc(0))) < mpmath.mpf(1e-14)


def test_real_system_sign_variant_icosahedron():
    from eqlines.polyring import eval_terms
    from eqlines.sicgen import seidel_icosahedron
    from eqlines.verify import icosahedron_lines

    signs = seidel_icosahedron().signs
    s = gen_real_system(3, 6, signs=signs)
    with mpmath.workprec(64):
        pt = []
        for u in icosahedron_lines():
            pt.extend([mpmath.mpf(float(c)) for c in u])
        pt.append(1 / mpmath.sqrt(5))
        for eq in s.equations:
            terms = [(m, eq.ring.field.embed(c, 64)) for m, c in eq.terms]
            assert abs(eval_terms(terms, pt, mpmath.mpc(0))) < mpmath.mpf(1e-13)


def test_real_system_validation():
    with pytest.raises(ValueError):
        gen_real_system(2, 3, signs=[[0, 1], [1, 0], [0, 0]])
    with pytest.raises(ValueError):
        gen_real_system(2, 3, signs=[[0, 2, 1], [2, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("call, message", [
    (lambda: gen_complex_full(0), "d must be positive"),
    (lambda: gen_wh_system(0), "d must be positive"),
    (lambda: gen_real_system(0, 3), "d and N must be positive"),
    (lambda: gen_real_system(2, 3, signs=[[0, 1], [1, 0]]),
     "sign matrix must be N x N"),
    (lambda: fiducial_from_coords([1, 2, 3]),
     "need an even number of coordinates"),
    (lambda: PolySystem("wh", 2, 4, Ring(("x",), QQ), (), ("a",), {}),
     "labels and equations must align"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_polysystem_json_round_trip():
    for system in (gen_wh_system(2), gen_wh_system(3), gen_complex_full(2),
                   gen_real_system(2, 3, alpha=Fraction(1, 2)),
                   gen_real_system(2, 3)):
        doc = system.to_json()
        back = PolySystem.from_json(doc)
        assert back.kind == system.kind
        assert back.d == system.d
        assert back.labels == system.labels
        assert back.equations == system.equations
        assert back.rhs == system.rhs
        assert back.merged == system.merged

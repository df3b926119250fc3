"""Buchberger engine: fixpoint checks, pipeline equivalence, certificates.

The corpus below is the shared ground for the structural properties:
every computed basis must pass the S-pair fixpoint test, reduce its own
generators to zero, and agree between direct lex and the grevlex-first
pipeline. Entries are built from classic textbook ideals plus a few
randomized-but-seeded variants.
"""

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eqlines.exact import CycloField, QQ, cyclo_root_of_unity
from eqlines.groebner import (
    Certificate,
    GroebnerBasis,
    PairBudgetExceeded,
    buchberger,
    check_certificate,
    grevlex_then_lex,
    is_groebner,
    is_zero_dimensional,
    quotient_dimension,
    reduces_to_zero,
)
from eqlines.polyring import (
    Poly, Ring, mono_divides, reduce_poly, rehome, s_polynomial,
)
from eqlines.sicgen import gen_wh_system

R1 = Ring(("x",), QQ)
R2 = Ring(("x", "y"), QQ)
R3 = Ring(("x", "y", "z"), QQ)


def _vars(ring):
    return [Poly.variable(ring, i) for i in range(ring.arity)]


def corpus():
    """At least twenty small ideals, four variables or fewer."""
    x1, = _vars(R1)
    x, y = _vars(R2)
    u, v, w = _vars(R3)
    R4 = Ring(("a", "b", "c", "d"), QQ)
    a, b, c, d = _vars(R4)
    out = [
        [x ** 2 + y, y],
        [x ** 2 + y ** 2 - 1, x * y - 1],
        [x ** 2 - 1, y ** 2 - 1],
        [x * y],
        [x ** 3 - 2 * x * y, x ** 2 * y - 2 * y ** 2 + x],
        [x + y, x - y],
        [x ** 2 - y, y ** 2 - x],
        [(x + y) ** 2, x * y - 3],
        [x ** 4 - 1, x ** 2 * y - y, y ** 3 - y],
        [x1 ** 3 - 2 * x1 + 1, x1 ** 2 - 1],
        [u + v + w, u * v + v * w + w * u, u * v * w - 1],
        [u ** 2 - v, v ** 2 - w, w ** 2 - u],
        [u * v - w, v * w - u, w * u - v],
        [u ** 2 + v ** 2 + w ** 2 - 4, u - v, w ** 2 - 1],
        [2 * u - w ** 2, v + w - 1],
        [a + b + c + d, a * b + b * c + c * d + d * a],
        [a ** 2 - b, b ** 2 - c, c ** 2 - d, d ** 2 - a],
        [a * b - 1, c * d - 1, a - c],
        [x ** 2 + Fraction(1, 2) * y - 1, Fraction(3, 4) * x * y + y ** 2],
        [x ** 3 * y - 2 * y ** 2, x * y ** 3 + x],
        [u ** 3 - v * w, v ** 2 - u * w],
    ]
    rng = random.Random(11)
    for _ in range(4):
        f = Poly.from_dict(R2, {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4) or 1)
            for _ in range(3)
        })
        g = Poly.from_dict(R2, {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4) or 1)
            for _ in range(3)
        })
        if not f.is_zero() and not g.is_zero():
            out.append([f, g])
    return out


CORPUS = corpus()


def test_corpus_size():
    assert len(CORPUS) >= 20


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_corpus_fixpoint_and_membership(idx):
    gens = CORPUS[idx]
    gb = buchberger(gens, "lex")
    # reading the basis file back checks it monic, interreduced, Groebner
    assert GroebnerBasis.from_json(gb.to_json()) == gb
    assert is_groebner(gb)
    for g in gens:
        assert reduces_to_zero(g, gb)


def _all_pairs_is_groebner(gb):
    """Reference check: every S-polynomial reduces to zero."""
    basis = list(gb.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], gb.order)
            if s.is_zero():
                continue
            if not reduce_poly(s, basis, gb.order).is_zero():
                return False
    return True


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_is_groebner_matches_all_pairs(order):
    """The pruned check agrees with the all-pairs reference on bases,
    on generator sets and on bases with an element dropped or added;
    the probes are no GroebnerBasis, only what is_groebner reads."""
    verdicts = []
    for idx, gens in enumerate(CORPUS):
        gb = buchberger(gens, order)
        inputs = {
            "basis": gb.basis,
            "monic generators": tuple(g.monic(order) for g in gens),
            "basis minus first": gb.basis[1:],
            "basis plus generators": gb.basis + tuple(gens),
        }
        for name, basis in inputs.items():
            probe = SimpleNamespace(order=order, basis=basis)
            verdict = is_groebner(probe)
            assert verdict == _all_pairs_is_groebner(probe), (idx, name)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.fixture(scope="module")
def wh3_grevlex():
    """The d=3 WH system, its grevlex basis and the number of monomials
    in the system's ring right after the run."""
    system = gen_wh_system(3)
    gb = buchberger(system.equations, "grevlex")
    return system, gb, len(system.ring._monos)


def test_wh3_grevlex_basis_certified(wh3_grevlex):
    system, gb, n_monos = wh3_grevlex
    assert (len(gb), gb.pair_count) == (58, 191)
    assert is_groebner(gb)
    # every remainder is zero, so the check leaves the system's ring alone
    assert len(system.ring._monos) == n_monos


def test_reading_the_wh3_basis_holds_one_copy(wh3_grevlex):
    """Reading the d=3 grevlex basis file checks it in its own ring:
    the traced peak of GroebnerBasis.from_json is 897 KB on CPython
    3.11, against 1315-1350 KB when is_groebner rehomed it into a scratch
    ring first."""
    _, gb, _ = wh3_grevlex
    obj = gb.to_json()
    # an untraced run first fills the interpreter's free lists, so the
    # traced peak does not depend on what ran before
    GroebnerBasis.from_json(obj)
    tracemalloc.start()
    try:
        again = GroebnerBasis.from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.basis == gb.basis
    assert peak < 1100 * 1024


def test_a_copy_of_the_wh3_basis_keeps_no_object_per_term(wh3_grevlex):
    """Rehoming the d=3 grevlex basis (58 elements, 3874 terms) into a
    fresh ring shares every monomial and coefficient object, so the copy
    keeps its Poly objects, their term storage and the new ring's
    monomial table: 103 KB traced on CPython 3.11 with two tuples per
    element, against 175 KB with one (monomial, coefficient) pair per
    term."""
    _, gb, _ = wh3_grevlex
    ring = Ring(gb.ring.vars, gb.ring.field)
    tracemalloc.start()
    try:
        copy = tuple(rehome(gb.basis, ring))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert copy == gb.basis
    assert kept < 140 * 1024


# sha256 of the canonical JSON (sorted keys, two-space indent, trailing
# newline, as the CLI writes it) of the d=3 grevlex basis, taken while
# every coefficient of Q(zeta_12) was still stored on the power basis
WH3_GREVLEX_SHA256 = "a452932e7e8a11aae0c4aa39b601e0c52a42b7cadb2086bac58ca6df31a113ac"


def test_wh3_grevlex_basis_pinned(wh3_grevlex):
    _, gb, _ = wh3_grevlex
    data = (json.dumps(gb.to_json(), sort_keys=True, indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == WH3_GREVLEX_SHA256
    # the basis is rational, and rational scalars are Fractions in every field
    assert gb.ring.field == CycloField(12)
    assert all(type(c) is Fraction for p in gb.basis for _, c in p.terms)


def _assert_lives_in(ring, basis):
    """Every element is in ``ring`` itself, and equal coefficients are
    one object across the basis."""
    assert all(p.ring is ring for p in basis)
    coeffs = [c for p in basis for _, c in p.terms]
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def _monomials(polys):
    return {m for p in polys for m, _ in p.terms}


def test_run_leaves_only_its_result_in_the_callers_ring(wh3_grevlex):
    """Buchberger works in a scratch ring: the caller's ring gains only
    the monomials of the result, and the result shares its monomials
    and coefficients."""
    system, gb, n_monos = wh3_grevlex
    ring = system.ring
    assert n_monos == 1029
    assert n_monos == len(_monomials(system.equations + gb.basis))
    _assert_lives_in(ring, gb.basis)
    assert len({id(c) for p in gb.basis for _, c in p.terms}) == 1493
    assert gb.ring is ring


@pytest.mark.parametrize("run, partial", [
    (lambda gens: buchberger(gens, "grevlex", pair_budget=1), True),
    (lambda gens: grevlex_then_lex(gens, pair_budget=3), True),
    (grevlex_then_lex, False),
], ids=["buchberger-partial", "staged-partial", "staged"])
def test_results_live_in_the_callers_ring(run, partial):
    """The same for a partial basis and for both stages of the staged
    pipeline; the ideal of CORPUS[8] takes two pairs in each stage."""
    ring = Ring(("x", "y"), QQ)
    x, y = _vars(ring)
    gens = [x ** 4 - 1, x ** 2 * y - y, y ** 3 - y]
    before = set(ring._monos)
    try:
        basis, exhausted = run(gens).basis, False
    except PairBudgetExceeded as exc:
        basis, exhausted = exc.partial, True
    assert exhausted is partial and type(basis) is tuple
    added = set(ring._monos) - before
    _assert_lives_in(ring, basis)
    # the staged runs add the monomials of their grevlex basis too
    stage1 = buchberger(gens, "grevlex")
    assert added <= _monomials(basis) | _monomials(stage1.basis)


def test_lex_run_keeps_only_what_it_can_read():
    """A lex run over Q that retires most of its elements holds only
    the live ones: on the 16-point grid {0, 1} x {-1, 0, 1, 2} x {-1, 1}
    behind the unimodular change of coordinates y = M x, its traced
    peak is 83 KB on CPython 3.11, against 329 KB when retired elements
    and the monomials of every S-polynomial stayed until the end."""
    ring = Ring(("x0", "x1", "x2"), QQ)
    x = _vars(ring)
    m = ((1, 2, -1), (1, 3, 0), (-1, 0, 4))
    values = ((0, 1), (-1, 0, 1, 2), (-1, 1))
    gens = []
    for row, axis in zip(m, values):
        y = sum((c * xj for c, xj in zip(row, x)), Poly.zero(ring))
        gens.append(math.prod((y - a for a in axis), start=Poly.one(ring)))
    # an untraced run first fills the interpreter's free lists, so the
    # traced peak does not depend on what ran before
    buchberger(gens, "lex")
    tracemalloc.start()
    try:
        gb = buchberger(gens, "lex")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(gb), gb.pair_count, quotient_dimension(gb)) == (4, 92, 16)
    assert peak < 160 * 1024


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_pipeline_matches_direct_lex(idx):
    gens = CORPUS[idx]
    direct = buchberger(gens, "lex")
    staged = grevlex_then_lex(gens)
    assert staged.basis == direct.basis
    assert staged.order == "lex"


@pytest.mark.parametrize("idx", range(0, len(CORPUS), 3))
def test_reduced_basis_unique_under_permutation(idx):
    gens = list(CORPUS[idx])
    base = buchberger(gens, "lex").basis
    rng = random.Random(idx)
    for _ in range(3):
        rng.shuffle(gens)
        assert buchberger(gens, "lex").basis == base


def test_scaling_invariance():
    x, y = _vars(R2)
    gens = [x ** 2 + y ** 2 - 1, x * y - 1]
    scaled = [g * Fraction(7, 3) for g in gens]
    assert buchberger(gens, "lex").basis == buchberger(scaled, "lex").basis


def test_spec_toy_basis():
    x, y = _vars(R2)
    gb = buchberger([x ** 2 + y, y], "lex")
    assert set(gb.basis) == {x ** 2, y}


def test_zero_dimensionality_detection():
    x, y = _vars(R2)
    assert is_zero_dimensional(buchberger([x ** 2 - 1, y ** 2 - 1], "lex"))
    assert not is_zero_dimensional(buchberger([x * y], "lex"))


def test_quotient_dimension_values():
    x, y = _vars(R2)
    assert quotient_dimension(buchberger([x ** 2 - 1, y ** 2 - 1], "lex")) == 4
    assert quotient_dimension(buchberger([x ** 2 + y ** 2 - 1, x * y - 1], "lex")) == 4
    assert quotient_dimension(buchberger([x * y], "lex")) == math.inf
    assert quotient_dimension(buchberger([x, y], "lex")) == 1
    assert quotient_dimension(buchberger([x, Poly.one(R2)], "lex")) == 0
    u, v, w = _vars(R3)
    gb = buchberger([u + v + w, u * v + v * w + w * u, u * v * w - 1], "lex")
    assert quotient_dimension(gb) == 6


def _staircase_box_count(gb):
    """Reference count: the monomials below the pure-power exponents that
    no leading monomial divides (a constant gives an empty box)."""
    lms = [p.leading_monomial(gb.order) for p in gb.basis]
    box = [
        min(l[i] for l in lms if not any(l[:i] + l[i + 1:]))
        for i in range(gb.ring.arity)
    ]
    return sum(
        1 for m in itertools.product(*map(range, box))
        if not any(mono_divides(l, m) for l in lms)
    )


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_quotient_dimension_matches_box_count(order):
    for idx, gens in enumerate(CORPUS):
        gb = buchberger(gens, order)
        expected = (
            _staircase_box_count(gb) if is_zero_dimensional(gb) else math.inf
        )
        assert quotient_dimension(gb) == expected, idx


def test_quotient_dimension_wh2_matches_box_count(d2_pipeline):
    _, gb, _ = d2_pipeline
    assert quotient_dimension(gb) == _staircase_box_count(gb) == 32


def test_reduced_lex_basis_has_monic_pure_power_per_level():
    """What the solver relies on: a zero-dimensional reduced lex basis
    holds, for each x_i, an element of lowest variable x_i whose leading
    term is a monic x_i^k; its other terms have x_i-degree below k."""
    checked = 0
    for idx, gens in enumerate(CORPUS):
        gb = buchberger(gens, "lex")
        if not is_zero_dimensional(gb) or quotient_dimension(gb) == 0:
            continue
        for i in range(gb.ring.arity):
            pure = [
                p for p in gb.basis
                if min(p.support()) == i
                and sum(p.leading_monomial("lex")) == p.leading_monomial("lex")[i]
            ]
            assert pure, (idx, i)
            for p in pure:
                lm = p.leading_monomial("lex")
                assert p.leading_coeff("lex") == 1, (idx, i)
                assert all(m[i] < lm[i] for m, _ in p.terms if m != lm), (idx, i)
        checked += 1
    assert checked >= 15


def test_membership_decisions():
    x, y = _vars(R2)
    gb = buchberger([x + y], "lex")
    assert reduces_to_zero((x + y) ** 2, gb)
    assert reduces_to_zero((x + y) * (x - 3), gb)
    assert not reduces_to_zero(x, gb)
    gb2 = buchberger([x ** 2], "lex")
    assert not reduces_to_zero(x, gb2)


def test_trivial_ideal_detection():
    x, y = _vars(R2)
    gb = buchberger([x, x + 1], "lex")
    assert gb.basis == (Poly.one(R2),)
    assert quotient_dimension(gb) == 0


def test_pair_budget_exhaustion():
    x, y = _vars(R2)
    gens = [x ** 3 - 2 * x * y, x ** 2 * y - 2 * y ** 2 + x]
    with pytest.raises(PairBudgetExceeded) as exc:
        buchberger(gens, "grevlex", pair_budget=1)
    assert exc.value.pairs_processed >= 1
    assert len(exc.value.partial) >= 1
    # generous budget completes
    gb = buchberger(gens, "grevlex", pair_budget=10 ** 6)
    assert gb.pair_count > 1


def test_staged_budget_counts_both_stages():
    # x^2 + y + z - 1 and its two rotations: a grevlex basis already, so
    # stage 1 takes no pair and the lex stage two
    x, y, z = _vars(R3)
    gens = [x ** 2 + y + z - 1, x + y ** 2 + z - 1, x + y + z ** 2 - 1]
    assert grevlex_then_lex(gens).pair_count == 2
    for budget in (0, 1):
        with pytest.raises(PairBudgetExceeded) as exc:
            grevlex_then_lex(gens, pair_budget=budget)
        assert exc.value.pairs_processed == budget + 1
    assert grevlex_then_lex(gens, pair_budget=2).pair_count == 2


def test_staged_budget_exhausted_in_stage_two():
    # two pairs in each stage; budget 2 leaves the lex stage none
    gens = CORPUS[8]
    stage1 = buchberger(gens, "grevlex")
    assert stage1.pair_count == 2
    assert grevlex_then_lex(gens).pair_count == 4
    for budget in (2, 3):
        with pytest.raises(PairBudgetExceeded) as exc:
            grevlex_then_lex(gens, pair_budget=budget)
        assert exc.value.pairs_processed == budget + 1
        # the generators are those of the lex stage run on its own
        with pytest.raises(PairBudgetExceeded) as lex:
            buchberger(stage1.basis, "lex", pair_budget=budget - 2)
        assert exc.value.partial == lex.value.partial


def test_base_field_invariance():
    """Q-coefficient generators declared over Q(zeta_12) give bases with
    the same rational coefficients."""
    F = CycloField(12)
    for gens in (CORPUS[1], CORPUS[2], CORPUS[4], CORPUS[10]):
        gb_q = buchberger(gens, "lex")
        lifted = [g.with_field(F) for g in gens]
        gb_c = buchberger(lifted, "lex")
        assert [p.with_field(QQ) for p in gb_c.basis] == list(gb_q.basis)
        staged = grevlex_then_lex(lifted)
        assert [p.with_field(QQ) for p in staged.basis] == list(gb_q.basis)


def test_cyclo_coefficient_ideal():
    F = CycloField(12)
    R = Ring(("x", "y"), F)
    z = cyclo_root_of_unity(12, 1)
    x, y = Poly.variable(R, 0), Poly.variable(R, 1)
    gens = [x ** 2 - z, y - z * x]
    gb = buchberger(gens, "lex")
    assert is_groebner(gb)
    for g in gens:
        assert reduces_to_zero(g, gb)
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) == 2


def _basis_cases():
    wh2 = gen_wh_system(2).equations
    lifted = [g.with_field(CycloField(12)) for g in CORPUS[10]]
    return [buchberger(wh2, "lex"), buchberger(lifted, "grevlex")]


@pytest.mark.parametrize("gb", _basis_cases(),
                         ids=["wh2-lex-Q", "corpus10-grevlex-cyclo12"])
def test_basis_json_round_trip(gb):
    obj = gb.to_json()
    assert obj["format"] == "basis"
    back = GroebnerBasis.from_json(obj)
    assert back.ring == gb.ring
    assert (back.basis, back.order, back.pair_count) == (
        gb.basis, gb.order, gb.pair_count)
    assert obj["reduced"] is True
    assert obj["zero_dimensional"] and obj["quotient_dimension"] == quotient_dimension(gb)


@pytest.mark.parametrize("obj", [
    {"format": "basis_partial", "order": "lex", "pair_budget": 1,
     "pairs_processed": 2, "partial_size": 3},
    {"format": "solutions"},
], ids=["basis_partial", "solutions"])
def test_basis_from_json_rejects_other_formats(obj):
    with pytest.raises(ValueError, match="not a basis file"):
        GroebnerBasis.from_json(obj)


@pytest.mark.parametrize("element", [[], [{"c": "0", "e": [0, 0]}]],
                         ids=["no-terms", "zero-coefficient"])
def test_basis_from_json_rejects_zero_element(element):
    obj = buchberger(CORPUS[1], "lex").to_json()
    obj["basis"].insert(1, element)
    with pytest.raises(ValueError, match="basis element 1 is zero"):
        GroebnerBasis.from_json(obj)


def test_determinism_repeated_runs():
    gens = CORPUS[4]
    a = buchberger(gens, "lex")
    b = buchberger(gens, "lex")
    assert a.basis == b.basis and a.pair_count == b.pair_count


def test_interreduce_keeps_the_ideal():
    """(x^2 - y, x^2) is no Groebner basis; interreduction keeps the
    generator y that dropping the covered leading monomial x^2 loses."""
    from eqlines import groebner

    x, y = _vars(R2)
    assert groebner._interreduce([x ** 2 - y, x ** 2], "lex") == [y, x ** 2]


def test_interreduce_stops_once_leading_monomials_stay(monkeypatch):
    """[x + y, y]: one pass reduces x + y to x and keeps both leading
    monomials, so no confirming pass runs. The reduction works in place:
    the list given is the list returned, holding the reduced elements."""
    from eqlines import groebner

    calls = []

    def counting(p, divisors, order):
        calls.append(p)
        return reduce_poly(p, divisors, order)

    monkeypatch.setattr(groebner, "reduce_poly", counting)
    x, y = _vars(R2)
    polys = [x + y, y]
    assert groebner._interreduce(polys, "lex") is polys
    assert polys == [x, y]
    assert len(calls) == 2


def test_empty_and_zero_generators_rejected():
    with pytest.raises(ValueError):
        buchberger([], "lex")
    with pytest.raises(ValueError):
        buchberger([Poly.zero(R2)], "lex")


def test_generators_from_two_rings_rejected():
    x, _ = _vars(R2)
    u, _ = _vars(Ring(("u", "v"), QQ))
    with pytest.raises(ValueError, match="different rings"):
        buchberger([x, u], "lex")


# certificate checker --------------------------------------------------------

def test_certificate_identity_with_square():
    x, = _vars(R1)
    # x^2 + 1 = 1 + x^2 read as sum g*f = 1 + sum p^2
    cert = Certificate(
        f_list=(x ** 2 + 1,), g_list=(Poly.one(R1),), p_list=(x,)
    )
    assert check_certificate(cert, "one_plus_squares")


def test_certificate_unsatisfiable_pair():
    x, = _vars(R1)
    # f = {x, x-1} with g = {1, -1}: 1*x + (-1)*(x-1) = 1
    cert = Certificate(f_list=(x, x - 1), g_list=(Poly.one(R1), -Poly.one(R1)))
    assert check_certificate(cert, "one")


def test_certificate_rejects_perturbations():
    x, = _vars(R1)
    bad = Certificate(f_list=(x, x - 1), g_list=(Poly.one(R1), Poly.one(R1)))
    assert not check_certificate(bad, "one")
    off = Certificate(
        f_list=(x, x - 2), g_list=(Poly.one(R1), -Poly.one(R1))
    )
    assert not check_certificate(off, "one")
    wrong_square = Certificate(
        f_list=(x ** 2 + 1,), g_list=(Poly.one(R1),), p_list=(x + 1,)
    )
    assert not check_certificate(wrong_square, "one_plus_squares")


def test_certificate_validation_errors():
    x, = _vars(R1)
    with pytest.raises(ValueError):
        check_certificate(
            Certificate(f_list=(x,), g_list=(Poly.one(R1),), p_list=(x,)),
            "one",
        )
    with pytest.raises(ValueError):
        check_certificate(
            Certificate(f_list=(x,), g_list=(Poly.one(R1),)), "both"
        )
    with pytest.raises(ValueError):
        check_certificate(Certificate(f_list=(x,), g_list=()), "one")
    t = Poly.variable(Ring(("t",), QQ), 0)
    with pytest.raises(ValueError, match="different rings"):
        check_certificate(
            Certificate(f_list=(x, t - 1), g_list=(Poly.one(R1),) * 2), "one"
        )

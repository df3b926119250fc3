"""Polynomial ring: orders, arithmetic, division, serialization.

Division is checked on ``reduce_poly``, the library's only division
loop, against a textbook reference division written below in Poly
arithmetic.
"""

from fractions import Fraction
import json

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from eqlines import polyring
from eqlines.exact import CycloField, QQ, cyclo_embed, cyclo_root_of_unity
from eqlines.polyring import (
    Poly,
    Ring,
    _divisibility_word,
    _guard_bits,
    _key_weights,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomial_key,
    reduce_poly,
    s_polynomial,
)
from eqlines.sicgen import gen_wh_system

R2 = Ring(("x", "y"), QQ)
R3 = Ring(("x", "y", "z"), QQ)

monos = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def poly_from(d, ring=R2):
    return Poly.from_dict(ring, d)


small_polys = st.builds(
    lambda items: poly_from(
        {(a, b): c for (a, b, _), c in items.items()}
    ),
    st.dictionaries(monos, coeffs, max_size=5),
)


@given(a=monos, b=monos)
def test_mono_algebra(a, b):
    m = mono_mul(a, b)
    assert mono_divides(a, m) and mono_divides(b, m)
    assert mono_div(m, a) == b
    l = mono_lcm(a, b)
    assert l == mono_lcm(b, a)
    assert mono_divides(a, l) and mono_divides(b, l)


def test_lex_order_is_tuple_order():
    key = monomial_key("lex")
    assert key((1, 0, 0)) > key((0, 5, 5))
    assert key((2, 1, 0)) > key((2, 0, 9))


def test_grevlex_degree_2_chain():
    # x^2 > xy > y^2 > xz > yz > z^2 for x > y > z
    key = monomial_key("grevlex")
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)


@given(a=monos, b=monos)
def test_grevlex_degree_dominates(a, b):
    key = monomial_key("grevlex")
    if sum(a) > sum(b):
        assert key(a) > key(b)


@settings(max_examples=80, deadline=None)
@given(f=small_polys, g=small_polys, h=small_polys)
def test_poly_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == Poly.zero(R2)
    assert f * Poly.one(R2) == f
    assert f + g == g + f


def test_canonical_form():
    f = poly_from({(1, 0): Fraction(1), (0, 0): Fraction(0)})
    g = poly_from({(1, 0): Fraction(1)})
    assert f == g
    assert f.terms == g.terms
    assert all(c != 0 for _, c in f.terms)
    # lex descending term order
    exps = [m for m, _ in poly_from(
        {(0, 2): 1, (1, 0): 1, (0, 0): 3}).terms]
    assert exps == sorted(exps, reverse=True)


def test_leading_term_depends_on_order():
    x, y = Poly.variable(R2, 0), Poly.variable(R2, 1)
    f = x + y ** 2
    lm_lex, _ = f.leading_term("lex")
    lm_grev, _ = f.leading_term("grevlex")
    assert lm_lex == (1, 0)
    assert lm_grev == (0, 2)


def test_pow_and_scalar_ops():
    x, y = Poly.variable(R2, 0), Poly.variable(R2, 1)
    f = (x + y) ** 2
    assert f == x ** 2 + 2 * x * y + y ** 2
    assert (f * Fraction(1, 2)) * 2 == f
    assert (f + 1) - 1 == f


def test_poly_equals_only_polys():
    """== agrees with hash: a constant polynomial is no scalar."""
    five = Poly.constant(R2, 5)
    assert five != 5 and 5 != five
    assert {5: "a"}.get(five) is None
    assert five == Poly.constant(R2, Fraction(5))


def _reference_division(f, gs, order):
    """Textbook multivariate division (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, Ch. 2, §3, Thm. 3) in Poly arithmetic.

    Returns (quotients, remainder) with f = sum(q_i * g_i) + remainder.
    """
    ring = f.ring
    quots = [Poly.zero(ring)] * len(gs)
    rem = Poly.zero(ring)
    p = f
    while not p.is_zero():
        lm, lc = p.leading_term(order)
        # a canonical polynomial never leads with a zero coefficient; this
        # also keeps the loop finite if canonical forms ever break
        assert lc
        for i, g in enumerate(gs):
            gm, gc = g.leading_term(order)
            if mono_divides(gm, lm):
                t = Poly.from_dict(ring, {mono_div(lm, gm): lc / gc})
                quots[i] = quots[i] + t
                p = p - t * g
                break
        else:
            lt = Poly.from_dict(ring, {lm: lc})
            rem = rem + lt
            p = p - lt
    return quots, rem


@settings(max_examples=80, deadline=None)
@given(f=small_polys, gs=st.lists(small_polys, min_size=1, max_size=3))
def test_division_invariant(f, gs):
    gs = [g for g in gs if not g.is_zero()]
    if not gs:
        return
    for order in ("lex", "grevlex"):
        quots, rem = _reference_division(f, gs, order)
        recon = rem
        for q, g in zip(quots, gs):
            recon = recon + q * g
        assert recon == f
        lms = [g.leading_monomial(order) for g in gs]
        for m, _ in rem.terms:
            assert not any(mono_divides(lm, m) for lm in lms)
        assert reduce_poly(f, gs, order) == rem


def test_divide_examples():
    x, y = Poly.variable(R2, 0), Poly.variable(R2, 1)
    f = x ** 2 * y + x * y ** 2 + y ** 2
    # classic textbook division: remainder x + y + 1, and 2x + 1 with the
    # divisors swapped
    assert reduce_poly(f, [x * y - 1, y ** 2 - 1], "lex") == x + y + 1
    assert reduce_poly(f, [y ** 2 - 1, x * y - 1], "lex") == 2 * x + 1


def test_s_polynomial_cancels_leads():
    x, y = Poly.variable(R2, 0), Poly.variable(R2, 1)
    f = x ** 3 * y ** 2 - x ** 2 * y ** 3 + x
    g = 3 * x ** 4 * y + y ** 2
    s = s_polynomial(f, g, "grevlex")
    key = monomial_key("grevlex")
    lcm = mono_lcm(f.leading_term("grevlex")[0], g.leading_term("grevlex")[0])
    assert all(key(m) < key(lcm) for m, _ in s.terms)


def test_s_polynomial_leaves_the_table_alone():
    """An S-polynomial is a throwaway: the ring's table gains none of its
    monomials, and its value is (L/LT(f)) f - (L/LT(g)) g."""
    ring = Ring(("x", "y"), QQ)
    x, y = Poly.variable(ring, 0), Poly.variable(ring, 1)
    f = 2 * x ** 3 * y ** 2 - x ** 2 * y ** 3 + x
    g = 3 * x ** 4 * y + y ** 2
    n = len(ring._monos)
    s = s_polynomial(f, g, "lex")
    assert len(ring._monos) == n
    assert s == (Poly.from_dict(ring, {(1, 0): Fraction(1, 2)}) * f
                 - Poly.from_dict(ring, {(0, 1): Fraction(1, 3)}) * g)


def test_reduce_poly_returns_f_when_nothing_divides():
    x, y = Poly.variable(R2, 0), Poly.variable(R2, 1)
    f = x * y + y + 1
    assert reduce_poly(f, [y ** 2 - 1, x ** 2], "lex") is f
    assert reduce_poly(f, [y - 1], "lex") == x + 2


def test_eval_exact_rational_and_oracle():
    x, y = Poly.variable(R2, 0), Poly.variable(R2, 1)
    f = x ** 3 - 2 * x * y + Fraction(1, 2)
    pt = (Fraction(3, 2), Fraction(-1, 3))
    assert f.eval_exact(pt) == Fraction(27, 8) + 1 + Fraction(1, 2)
    with mpmath.workprec(100):
        num = mpmath.mpf(1.5) ** 3 - 2 * mpmath.mpf(1.5) * (mpmath.mpf(-1) / 3) + mpmath.mpf(0.5)
        assert abs(num - mpmath.mpf(f.eval_exact(pt).numerator) / f.eval_exact(pt).denominator) < mpmath.mpf(2) ** -90


def test_eval_exact_cyclo_point():
    # rational polynomial evaluated at a point in a larger field
    x = Poly.variable(Ring(("x",), QQ), 0)
    f = x ** 2 + 1
    z = cyclo_root_of_unity(4, 1)
    assert f.eval_exact((z,)) == 0
    # the zero polynomial still evaluates to an element of its field
    F = CycloField(4)
    assert F.render(Poly.zero(Ring(("x",), F)).eval_exact((z,))) == "0 @ n=4"


def test_cyclo_coefficients_fast_eval():
    F = CycloField(12)
    R = Ring(("x", "y"), F)
    z = cyclo_root_of_unity(12, 1)
    x, y = Poly.variable(R, 0), Poly.variable(R, 1)
    f = x * y * z + x ** 2 * (z ** 5) - 3
    pt = (Fraction(2, 3), Fraction(-5, 4))
    v = f.eval_exact(pt)
    with mpmath.workprec(100):
        zn = cyclo_embed(z, 90)
        want = (
            mpmath.mpf(2) / 3 * (mpmath.mpf(-5) / 4) * zn
            + (mpmath.mpf(2) / 3) ** 2 * zn ** 5
            - 3
        )
        assert abs(cyclo_embed(v, 90) - want) < mpmath.mpf(2) ** -80


def _json_round_trip(f):
    # the file layout: a Ring header plus the term list, through json text
    obj = json.loads(json.dumps({**f.ring.to_json(), "terms": f.terms_to_json()}))
    return Poly.terms_from_json(obj["terms"], Ring.from_json(obj))


def test_json_round_trip_qq():
    f = poly_from({(2, 1): Fraction(3, 7), (0, 0): Fraction(-2)})
    g = _json_round_trip(f)
    assert g == f and g.ring == f.ring


def test_json_round_trip_cyclo():
    F = CycloField(12)
    R = Ring(("u", "v"), F)
    z = cyclo_root_of_unity(12, 7)
    f = Poly.from_dict(R, {(1, 1): z, (0, 2): F.coerce(Fraction(1, 3))})
    g = _json_round_trip(f)
    assert g == f and g.ring.field == F


def test_with_field_round_trip():
    f = poly_from({(1, 1): Fraction(2, 3), (0, 0): Fraction(1)})
    up = f.with_field(CycloField(12))
    assert up.ring.field == CycloField(12)
    back = up.with_field(QQ)
    assert back == f
    # rational coefficients are Fractions in every field, so they lift
    assert up.with_field(CycloField(24)).with_field(QQ) == f
    # an irrational one keeps its conductor and stays out of Q
    g = up * cyclo_root_of_unity(12, 1)
    with pytest.raises(ValueError, match="conductor mismatch"):
        g.with_field(CycloField(24))
    with pytest.raises(TypeError, match="cannot coerce"):
        g.with_field(QQ)


def test_ring_mismatch_rejected():
    x = Poly.variable(R2, 0)
    z = Poly.variable(R3, 2)
    with pytest.raises(ValueError):
        x + z
    with pytest.raises(ValueError, match="ring mismatch"):
        reduce_poly(x, [z], "lex")


def test_support_and_degree():
    f = poly_from({(2, 0): 1, (1, 3): 2})
    assert f.total_degree() == 4
    assert f.support() == {0, 1}
    assert Poly.zero(R2).is_zero()
    assert Poly.constant(R2, Fraction(5)).constant_value() == 5


# ---------------------------------------------------------------------------
# packed keys, width widening, shared monomials
# ---------------------------------------------------------------------------

# exponents up to the 16-bit bound, where a packed field is fullest
wide_monos = st.tuples(*[st.integers(min_value=0, max_value=2 ** 15 - 1)] * 3)


def _packed(m, order, width=16):
    return sum(e * w for e, w in zip(m, _key_weights(len(m), order, width)))


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@given(a=st.one_of(monos, wide_monos), b=st.one_of(monos, wide_monos))
def test_packed_keys_order_and_add(order, a, b):
    key = monomial_key(order)
    ka, kb = _packed(a, order), _packed(b, order)
    assert (ka > kb) == (key(a) > key(b))
    assert (ka == kb) == (a == b)
    assert _packed(mono_mul(a, b), order) == ka + kb


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@given(a=st.one_of(monos, wide_monos), b=st.one_of(monos, wide_monos))
def test_guard_bit_divisibility(order, a, b):
    guard = _guard_bits(3, 16)
    wa = _divisibility_word(_packed(a, order), order, 3, 16)
    wb = _divisibility_word(_packed(b, order), order, 3, 16)
    assert not wa & guard and not wb & guard
    assert (((wa | guard) - wb) & guard == guard) == mono_divides(b, a)
    # a product of exponents below the bound cannot carry
    assert _divisibility_word(
        _packed(mono_mul(a, b), order), order, 3, 16
    ) == wa + wb


def _widths(monkeypatch):
    """Record the field width of every packed division attempt."""
    seen = []
    divide = polyring._divide

    def spy(f, divisors, heads, order, width):
        seen.append(width)
        return divide(f, divisors, heads, order, width)

    monkeypatch.setattr(polyring, "_divide", spy)
    return seen


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("f, g, rem, widths", [
    # a product of two terms within the bound crosses it: restart at 32
    ({(20000, 20000): 1}, {(20000, 0): 1, (0, 20000): -1}, {(0, 40000): 1},
     [16, 32]),
    # an input exponent of 40000 needs 17 bits from the start
    ({(40000, 0): 1}, {(20000, 0): 1, (0, 1): -1}, {(0, 2): 1}, [17]),
])
def test_division_widens_the_fields(monkeypatch, order, f, g, rem, widths):
    f, g = poly_from(f), poly_from(g)
    seen = _widths(monkeypatch)
    r = reduce_poly(f, [g], order)
    assert seen == widths
    assert r == poly_from(rem) == _reference_division(f, [g], order)[1]


def test_division_widens_for_a_divisor_tail(monkeypatch):
    # under lex a tail exponent is not bounded by the head; the tail is
    # packed only when the divisor is first used
    x, y = Poly.variable(R2, 0), Poly.variable(R2, 1)
    seen = _widths(monkeypatch)
    assert reduce_poly(x, [x - y ** 40000], "lex") == y ** 40000
    assert seen == [16, 32]
    seen.clear()
    assert reduce_poly(y, [x - y ** 40000], "lex") == y
    assert seen == [16]


def test_ring_shares_one_tuple_per_monomial():
    ring = Ring(("x", "y", "z"), QQ)
    f = Poly.from_dict(ring, {(1, 2, 0): 1, (0, 0, 1): 2})
    g = Poly.from_dict(ring, {(1, 2, 0): 3})
    assert f.terms[0][0] is g.terms[0][0]
    x, y, z = (Poly.variable(ring, i) for i in range(3))
    assert (x * y ** 2).terms[0][0] is f.terms[0][0]
    r = reduce_poly(x * y ** 2 * z + z, [z - 1], "lex")
    assert r == x * y ** 2 + 1
    assert r.terms[0][0] is f.terms[0][0]
    # the table is no part of the ring's value
    other = Ring(("x", "y", "z"), QQ)
    h = Poly.from_dict(other, {(1, 2, 0): 1, (0, 0, 1): 2})
    assert other == ring and hash(other) == hash(ring)
    assert other.to_json() == ring.to_json()
    assert h == f and hash(h) == hash(f)
    assert h.terms[0][0] == f.terms[0][0]
    assert h.terms[0][0] is not f.terms[0][0]
    assert f - h == Poly.zero(ring)


@pytest.mark.parametrize("mono", [(1,), (0, -1, 0), (1, 0, 0, 0)])
def test_poly_rejects_bad_exponents(mono):
    with pytest.raises(ValueError, match="bad exponent vector"):
        Poly(R3, [(mono, 2)])


def test_wh_equations_share_coefficients():
    system = gen_wh_system(5)
    coeffs = [c for q in system.equations for _, c in q.terms]
    assert len(coeffs) == 1639
    assert len({id(c) for c in coeffs}) <= 20
    assert all(q.ring is system.ring for q in system.equations)

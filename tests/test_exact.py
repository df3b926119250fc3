"""Exact cyclotomic arithmetic against independent numeric oracles."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from eqlines.exact import (
    _upoly_ext_gcd,
    CycloField,
    CycloNum,
    QQ,
    cyclo_embed,
    cyclo_from_str,
    cyclo_root_of_unity,
    cyclo_to_str,
    cyclotomic_poly,
    field_from_json,
    upoly_divmod,
    upoly_gcd,
    upoly_mul,
    upoly_squarefree,
    upoly_sub,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def brute_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_poly_known():
    assert tuple(cyclotomic_poly(1)) == (-1, 1)
    assert tuple(cyclotomic_poly(2)) == (1, 1)
    assert tuple(cyclotomic_poly(4)) == (1, 0, 1)
    assert tuple(cyclotomic_poly(6)) == (1, -1, 1)
    assert tuple(cyclotomic_poly(12)) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_degree_and_product():
    for n in (8, 9, 10, 15, 20, 36):
        assert len(cyclotomic_poly(n)) - 1 == brute_phi(n)
        assert all(type(c) is int for c in cyclotomic_poly(n))
        # prod over divisors reassembles x^n - 1
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = upoly_mul(prod, list(cyclotomic_poly(d)))
        expect = [Fraction(0)] * (n + 1)
        expect[0] = Fraction(-1)
        expect[n] = Fraction(1)
        assert list(prod) == expect


def test_root_of_unity_is_primitive():
    # phi = 1 at n = 1 and 2; 2*phi - 1 > n at 7 and 9
    for n in (1, 2, 4, 5, 7, 9, 12, 20):
        z = cyclo_root_of_unity(n, 1)
        acc = Fraction(1)
        for k in range(1, n):
            acc = acc * z
            assert acc == cyclo_root_of_unity(n, k)
            if k < n:
                assert acc != 1
        assert acc * z == 1


def test_first_root_of_unity_builds_only_phi_n():
    """A new conductor costs its Phi_n, not a table of n reduced powers
    (61 MB at n = 2003)."""
    tracemalloc.start()
    try:
        z = cyclo_root_of_unity(2003, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.num == (0, 1) + (0,) * 2000
    assert peak < 1_000_000


def test_minpoly_annihilates_generator():
    for n in (4, 8, 12, 20):
        z = cyclo_root_of_unity(n, 1)
        val = Fraction(0)
        for c in reversed(cyclotomic_poly(n)):
            val = val * z + c
        assert type(val) is Fraction and val == 0


def test_embedding_matches_exponential():
    for n in (4, 12, 20):
        for k in range(n):
            got = cyclo_embed(cyclo_root_of_unity(n, k), 120)
            with mpmath.workprec(140):
                want = mpmath.expjpi(mpmath.mpf(2 * k) / n)
                assert abs(got - want) < mpmath.mpf(2) ** -110


def test_conjugate_of_root():
    for n in (1, 2, 4, 7, 9, 12, 20):
        for k in range(n):
            z = cyclo_root_of_unity(n, k)
            assert z.conjugate() == cyclo_root_of_unity(n, (n - k) % n)


def _rand_cyclo(n, draw_coeffs):
    x = Fraction(0)
    z = cyclo_root_of_unity(n, 1)
    p = Fraction(1)
    for c in draw_coeffs:
        x = x + p * c
        p = p * z
    return x


cyclo_elems = st.builds(
    lambda cs: _rand_cyclo(12, cs),
    st.lists(rationals, min_size=1, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(a=cyclo_elems, b=cyclo_elems)
def test_conjugation_is_ring_hom(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    norm = a * a.conjugate()
    assert norm.conjugate() == norm


@settings(max_examples=60, deadline=None)
@given(a=cyclo_elems)
def test_inverse(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            1 / a
    elif isinstance(a, CycloNum):
        assert a * a.inverse() == 1
    else:
        assert a * (1 / a) == 1


@settings(max_examples=60, deadline=None)
@given(a=cyclo_elems, b=cyclo_elems, c=cyclo_elems)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == 0
    assert a * 1 == a


@settings(max_examples=60, deadline=None)
@given(a=cyclo_elems)
def test_string_round_trip(a):
    field = CycloField(12)
    text = field.render(a)
    assert field.parse(text) == a
    if isinstance(a, CycloNum):
        assert text == cyclo_to_str(a) and cyclo_from_str(text) == a


@settings(max_examples=40, deadline=None)
@given(a=cyclo_elems)
def test_embedding_is_additive_hom(a):
    b = cyclo_root_of_unity(12, 5) + Fraction(1, 3)
    with mpmath.workprec(140):
        lhs = cyclo_embed(a * b, 120)
        rhs = cyclo_embed(a, 120) * cyclo_embed(b, 120)
        assert abs(lhs - rhs) < mpmath.mpf(2) ** -90
        lhs = cyclo_embed(a + b, 120)
        rhs = cyclo_embed(a, 120) + cyclo_embed(b, 120)
        assert abs(lhs - rhs) < mpmath.mpf(2) ** -90


def test_rational_detection():
    z4 = cyclo_root_of_unity(4, 1)
    sq = z4 * z4
    assert type(sq) is Fraction and sq == -1
    assert isinstance(z4, CycloNum)
    trace = z4 + z4.conjugate()
    assert type(trace) is Fraction and trace == 0


def test_rational_hash_compat():
    z = cyclo_root_of_unity(12, 1)
    x = (z + Fraction(3, 4)) - z
    assert type(x) is Fraction and x == Fraction(3, 4)
    assert hash(x) == hash(Fraction(3, 4))
    assert CycloNum(12, [Fraction(3, 4), 0, 0, 0]) == Fraction(3, 4)
    assert z != Fraction(3, 4) and Fraction(3, 4) != z


def test_rational_embed():
    with mpmath.workprec(80):
        v = QQ.embed(Fraction(1, 3), 64).real
        assert abs(v - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -60


def test_field_descriptors():
    assert field_from_json("Q") is QQ
    f = field_from_json({"cyclotomic": 12})
    assert f == CycloField(12)
    assert f.name == "Q(zeta_12)"
    assert QQ.coerce(3) == Fraction(3)
    x = f.coerce(Fraction(1, 2))
    assert f.render(x) and f.parse(f.render(x)) == x
    with pytest.raises(ValueError):
        CycloField(20).coerce(cyclo_root_of_unity(12, 1))


def test_rational_scalars_are_fractions_in_every_field():
    f = CycloField(12)
    for x in (f.coerce(3), f.coerce(Fraction(3, 7)), f.zero(), f.one(),
              f.parse("-3/7 @ n=12"), f.parse("0 @ n=12")):
        assert type(x) is Fraction
    # the text of a rational value is the one the power basis gave
    for q, text in [(Fraction(3, 7), "3/7 @ n=12"), (Fraction(-3, 7), "-3/7 @ n=12"),
                    (Fraction(0), "0 @ n=12"), (5, "5 @ n=12"), (-1, "-1 @ n=12")]:
        assert f.render(q) == text
        assert f.parse(text) == q
    z = cyclo_root_of_unity(12, 1)
    with pytest.raises(TypeError, match=r"cannot coerce CycloNum\(12, .* into Q"):
        QQ.coerce(z)


@pytest.mark.parametrize("p", [256, 512, 1024])
def test_rational_cyclo_embed(p):
    """cyclo_embed takes rationals: 16 guard bits as for any element,
    and the value QQ.embed gives once rounded to the asked precision."""
    q = Fraction(3, 7)
    got = cyclo_embed(q, p)
    with mpmath.workprec(p + 16):
        assert got == mpmath.mpc(mpmath.mpf(3) / mpmath.mpf(7))
    assert got.real._mpf_[1].bit_length() > p
    assert cyclo_embed(3, p) == QQ.embed(3, p)
    assert CycloField(12).embed(q, p) == got
    with mpmath.workprec(p):
        assert +got == QQ.embed(q, p)


def test_parse_checks_the_conductor_first():
    before = cyclotomic_poly.cache_info().currsize
    with pytest.raises(ValueError, match="conductor mismatch: 997 vs 12"):
        CycloField(12).parse("1 @ n=997")
    assert cyclotomic_poly.cache_info().currsize == before


def test_upoly_division_invariant():
    a = [Fraction(2), Fraction(0), Fraction(-3), Fraction(1)]
    b = [Fraction(-1), Fraction(1)]
    q, r = upoly_divmod(a, b)
    assert upoly_mul(q, b) == [x - y for x, y in
                               zip(a, r + [Fraction(0)] * (len(a) - len(r)))]
    g = upoly_gcd(upoly_mul(a, b), b)
    # gcd is monic and divides both inputs
    assert g[-1] == 1
    assert not upoly_divmod(b, g)[1]


def test_upoly_ext_gcd_exact_on_int_lists():
    # u*a + v*b = g holds exactly and every coefficient is a Fraction,
    # also when the last nonzero remainder is one of the int inputs
    for a, b, want in [
        ([3, 1, -2, 5], list(cyclotomic_poly(12)), [1]),
        ([3], list(cyclotomic_poly(4)), [1]),
        # (3x - 6)(3x^2 + 1) and 3x - 6: the gcd is x - 2
        ([-6, 3, -18, 9], [-6, 3], [-2, 1]),
    ]:
        g, u, v = _upoly_ext_gcd(a, b)
        assert g == want
        assert all(type(c) is Fraction for c in g + u + v)
        assert upoly_sub(upoly_mul(u, a), upoly_sub(g, upoly_mul(v, b))) == []


def _upoly_results(a, b):
    """Every coefficient list upoly_sub, upoly_mul, upoly_divmod and
    upoly_squarefree return for the inputs a and b."""
    square = upoly_mul(upoly_mul(b, b), a)
    return [upoly_sub(a, b), upoly_sub(b, a), upoly_mul(a, b),
            *upoly_divmod(upoly_mul(a, a), b),
            *(f for f, _ in upoly_squarefree(square))]


def test_upoly_helpers_keep_cyclotomic_scalars():
    z = cyclo_root_of_unity(12, 1)
    assert [type(c) for c in upoly_mul([0, z], [z, 1])] == [Fraction, CycloNum, CycloNum]
    assert [type(c) for c in upoly_sub([z], [z, 1])] == [Fraction, Fraction]
    for a, b in [([0, z], [z, 1]), ([1, 0, z], [z, 1]), ([3, 1], [z, 0, 1])]:
        results = _upoly_results(a, b)
        assert all(results[:3])
        coeffs = [c for r in results for c in r]
        assert any(type(c) is CycloNum for c in coeffs)
        for c in coeffs:
            lift(12, c)


def test_upoly_helpers_give_fractions_over_q():
    for a, b in [([1, 0, 1], [0, 1]), ([2, 0, -3, 1], [-1, 1]), ([3], [1, 2])]:
        results = _upoly_results(a, b)
        assert all(results[:3])
        assert all(type(c) is Fraction for r in results for c in r)


# ---------------------------------------------------------------------------
# reference arithmetic: power basis coefficient tuples of Fractions, a full
# convolution, then reduction mod Phi_n by long division over Q
# ---------------------------------------------------------------------------

def ref_reduce(n, long):
    _, r = upoly_divmod([Fraction(c) for c in long], list(cyclotomic_poly(n)))
    return tuple(r) + (Fraction(0),) * (brute_phi(n) - len(r))


def ref_mul(n, a, b):
    long = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            long[i + j] += x * y
    return ref_reduce(n, long)


def ref_conjugate(n, a):
    long = [Fraction(0)] * n
    for k, c in enumerate(a):
        long[(n - k) % n] = c
    return ref_reduce(n, long)


def ref_pow(n, a, k):
    out = ref_reduce(n, [1])
    for _ in range(k):
        out = ref_mul(n, out, a)
    return out


def check_canonical(x):
    assert isinstance(x.den, int) and x.den > 0
    assert all(isinstance(c, int) for c in x.num)
    assert math.gcd(x.den, *x.num) == 1
    y = CycloNum(x.n, x.coeffs)
    assert y == x and hash(y) == hash(x)


def lift(n, x):
    """The power basis coefficients of a scalar of Q(zeta_n). A CycloNum
    must be canonical and irrational, and a rational value a Fraction."""
    if isinstance(x, CycloNum):
        assert x.n == n and any(x.num[1:])
        check_canonical(x)
        return x.coeffs
    assert type(x) is Fraction
    return (x,) + (Fraction(0),) * (brute_phi(n) - 1)


CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 20, 24, 36)


@st.composite
def cyclo_pairs(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    phi = brute_phi(n)
    # zero coefficients are drawn often, as in the generated systems
    elem = st.lists(
        st.one_of(st.just(Fraction(0)), rationals),
        min_size=phi, max_size=phi,
    )
    return n, tuple(draw(elem)), tuple(draw(elem))


@settings(max_examples=150, deadline=None)
@given(case=cyclo_pairs(), k=st.integers(min_value=0, max_value=4))
def test_arithmetic_matches_fraction_reference(case, k):
    n, a, b = case
    x, y = CycloNum(n, a), CycloNum(n, b)
    assert lift(n, x) == a and lift(n, y) == b
    for got, want in [
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (x * y, ref_mul(n, a, b)),
        (x.conjugate(), ref_conjugate(n, a)),
        (x ** k, ref_pow(n, a, k)),
        (-x, tuple(-c for c in a)),
    ]:
        assert lift(n, got) == want
    if x:
        inv = 1 / x
        if isinstance(x, CycloNum):
            assert x.inverse() == inv
        assert ref_mul(n, lift(n, inv), a) == ref_reduce(n, [1])
        assert lift(n, y / x) == ref_mul(n, b, lift(n, inv))
        assert lift(n, x ** -2) == ref_pow(n, lift(n, inv), 2)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(CONDUCTORS), q=rationals, r=rationals)
def test_rational_elements_act_like_fractions(n, q, r):
    """A rational value is a Fraction, however it is reached."""
    x = CycloNum(n, (q,) + (0,) * (brute_phi(n) - 1))
    assert type(x) is Fraction and x == q
    z = cyclo_root_of_unity(n, 1)
    w = z + q
    assert isinstance(w, CycloNum) == (brute_phi(n) > 1)
    for got, want in [(w - z, q), (z - w, -q), ((w - r) - z, q - r),
                      ((r - w) + z, r - q), (z * r / z, r), ((w * r) - z * r, q * r)]:
        assert type(got) is Fraction and got == want
        assert hash(got) == hash(want) and {want: "q"}[got] == "q"
    if q:
        got = r / (z * q) * z
        assert type(got) is Fraction and got == r / q

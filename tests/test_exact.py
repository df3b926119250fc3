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
        acc = CycloNum.from_rational(n, 1)
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
        val = CycloNum.from_rational(n, 0)
        for c in reversed(cyclotomic_poly(n)):
            val = val * z + c
        assert val.is_zero()


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
    x = CycloNum.from_rational(n, 0)
    z = cyclo_root_of_unity(n, 1)
    p = CycloNum.from_rational(n, 1)
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
    assert norm.is_real()


@settings(max_examples=60, deadline=None)
@given(a=cyclo_elems)
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == 1


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
    assert cyclo_from_str(cyclo_to_str(a)) == a


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
    assert sq.is_rational()
    assert sq.rational_part() == -1
    assert not z4.is_rational()
    assert (z4 + z4.conjugate()).is_rational()


def test_rational_hash_compat():
    x = CycloNum.from_rational(12, Fraction(3, 4))
    assert x == Fraction(3, 4)
    assert hash(x) == hash(Fraction(3, 4))


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
    assert [type(c) for c in upoly_mul([0, z], [z, 1])] == [CycloNum] * 3
    assert [type(c) for c in upoly_sub([z], [z, 1])] == [CycloNum] * 2
    for a, b in [([0, z], [z, 1]), ([1, 0, z], [z, 1]), ([3, 1], [z, 0, 1])]:
        results = _upoly_results(a, b)
        assert all(results[:3])
        assert all(type(c) is CycloNum for r in results for c in r)


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
    assert x.coeffs == a and y.coeffs == b
    for got, want in [
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (x * y, ref_mul(n, a, b)),
        (x.conjugate(), ref_conjugate(n, a)),
        (x ** k, ref_pow(n, a, k)),
        (-x, tuple(-c for c in a)),
    ]:
        check_canonical(got)
        assert got.coeffs == want
    if not x.is_zero():
        inv = x.inverse()
        check_canonical(inv)
        assert ref_mul(n, inv.coeffs, a) == ref_reduce(n, [1])
        assert (y / x).coeffs == ref_mul(n, b, inv.coeffs)
        assert (x ** -2).coeffs == ref_pow(n, inv.coeffs, 2)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(CONDUCTORS), q=rationals, r=rationals)
def test_rational_elements_act_like_fractions(n, q, r):
    x = CycloNum.from_rational(n, q)
    check_canonical(x)
    assert x == q and hash(x) == hash(q)
    assert {q: "q"}[x] == "q" and {x: "x"}[q] == "x"
    assert (x + r).coeffs[0] == q + r and (x * r).coeffs[0] == q * r
    assert (x - r) == q - r and (r - x) == r - q
    if q:
        assert x.inverse() == 1 / q and r / x == r / q

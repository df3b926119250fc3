"""Verification layer: overlaps, unit certification, Gram analysis."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlines.exact import (
    QQ,
    CycloField,
    cyclotomic_poly,
    upoly_mul,
    upoly_squarefree,
)
from eqlines.polyring import Poly, Ring
from eqlines.sicgen import SeidelSpec, seidel_hexagon, seidel_icosahedron
from eqlines.solver import zauner_vectors
from eqlines.verify import (
    OverlapReport,
    SpectralError,
    VerificationError,
    gram_analysis,
    hexagon_lines,
    icosahedron_lines,
    spectral_checks,
    spectral_reconstruct,
    unit_certify,
    verify_equiangular_real,
    verify_fiducial,
)

RA = Ring(("x",), QQ)


def _poly(*little_endian):
    return Poly.from_dict(RA, {(k,): Fraction(c) for k, c in enumerate(little_endian)})


# -- fiducial / overlap checks ---------------------------------------------

def _d2_fiducial(prec=128):
    with mpmath.workprec(prec):
        a = mpmath.sqrt((3 + mpmath.sqrt(3)) / 6)
        b = mpmath.exp(mpmath.mpc(0, mpmath.pi / 4)) * mpmath.sqrt(
            (3 - mpmath.sqrt(3)) / 6
        )
        return [mpmath.mpc(a), b]


def test_verify_fiducial_standard_d2():
    out = verify_fiducial(_d2_fiducial(), tol=1e-12, precision=160)
    assert out["ok"]
    assert out["max_dev"] < mpmath.mpf(1e-12)
    rep = out["report"]
    assert rep.d == 2
    assert set(rep.entries) == {(0, 1), (1, 0), (1, 1)}


def test_verify_fiducial_rejects_basis_vector():
    out = verify_fiducial([1, 0, 0, 0], tol=1e-10, precision=128)
    assert not out["ok"]
    assert out["max_dev"] > 0.1


def test_verify_fiducial_zero_vector():
    with pytest.raises(VerificationError):
        verify_fiducial([0, 0, 0], tol=1e-10)


def test_verify_fiducial_accepts_unnormalized_input():
    v = [3 * x for x in _d2_fiducial()]
    assert verify_fiducial(v, tol=1e-12, precision=160)["ok"]


def test_overlap_report_json():
    out = verify_fiducial(zauner_vectors(192)[0], tol=1e-10, precision=192)
    assert out["ok"]
    doc = out["report"].to_json()
    assert doc["d"] == 4
    assert set(doc["entries"]) == {
        f"{a},{b}" for a in range(4) for b in range(4) if (a, b) != (0, 0)
    }
    for entry in doc["entries"].values():
        theta = float(entry["theta"])
        assert -math.pi < theta <= math.pi + 1e-15
        assert float(entry["modulus_error"]) < 1e-10


@pytest.mark.parametrize("v", [[1, math.nan], [complex(math.inf, 0), 1]],
                         ids=["nan", "inf"])
def test_verify_fiducial_rejects_non_finite(v):
    with pytest.raises(VerificationError, match="non-finite"):
        verify_fiducial(v)


def test_all_real_d2_solutions_are_fiducials(d2_pipeline):
    _, _, sols = d2_pipeline
    reals = [p for p in sols.points if p.tags["real"]]
    assert reals
    with mpmath.workprec(256):
        for p in reals:
            v = [p.coords[k] + mpmath.mpc(0, 1) * p.coords[2 + k] for k in range(2)]
            assert verify_fiducial(v, tol=1e-10, precision=256)["ok"]


# -- unit certification ------------------------------------------------------

def test_unit_certify_cyclotomics():
    for n in range(3, 51):
        cs = cyclotomic_poly(n)
        f = Poly.from_dict(RA, {(k,): Fraction(c) for k, c in enumerate(cs)})
        out = unit_certify(f)
        assert out["unit"], (n, out["reasons"])


def test_unit_certify_linear_units():
    assert unit_certify(_poly(1, 1))["unit"]
    assert unit_certify(_poly(-1, 1))["unit"]


def test_unit_certify_rejections():
    out = unit_certify(_poly(-2, 0, 1))
    assert not out["unit"]
    assert "not reciprocal and not x +- 1" in out["reasons"]
    out2 = unit_certify(_poly(1, 0, 2))
    assert not out2["unit"]
    assert "not monic" in out2["reasons"]
    out3 = unit_certify(_poly(Fraction(1, 2), 1))
    assert not out3["unit"]


def test_unit_certify_needs_rational_coefficients():
    r = Ring(("x",), CycloField(4))
    x = Poly.variable(r, "x")
    with pytest.raises(VerificationError, match="over Q"):
        unit_certify(x ** 2 + 1)


def test_unit_certify_rejects_non_univariate_input():
    r2 = Ring(("x", "y"), QQ)
    with pytest.raises(VerificationError, match="univariate polynomial"):
        unit_certify(Poly.variable(r2, 0) + Poly.variable(r2, 1))
    with pytest.raises(VerificationError, match="zero polynomial"):
        unit_certify(Poly.zero(RA))


# -- squarefree decomposition ------------------------------------------------

def test_squarefree_known():
    # (x-1)^2 (x+2)
    f = upoly_mul(upoly_mul([-1, 1], [-1, 1]), [2, 1])
    out = upoly_squarefree([Fraction(c) for c in f])
    assert out == [
        ([Fraction(2), Fraction(1)], 1),
        ([Fraction(-1), Fraction(1)], 2),
    ]


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_squarefree_reconstructs(tail, power):
    base = [Fraction(c) for c in tail] + [Fraction(1)]
    f = [Fraction(1)]
    for _ in range(power):
        f = upoly_mul(f, base)
    out = upoly_squarefree(f)
    rebuilt = [Fraction(1)]
    for factor, mult in out:
        for _ in range(mult):
            rebuilt = upoly_mul(rebuilt, factor)
    assert rebuilt == f  # f is monic already
    for factor, _ in out:
        assert factor[-1] == 1


# -- Seidel specs and Gram analysis ------------------------------------------

def test_seidel_spec_validation():
    with pytest.raises(ValueError, match="must be N x N"):
        SeidelSpec([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(ValueError, match="diagonal must be zero"):
        SeidelSpec([[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="off-diagonal signs must be"):
        SeidelSpec([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="must be symmetric"):
        SeidelSpec([[0, 1], [-1, 0]])


def test_seidel_spec_json_round_trip():
    spec = seidel_icosahedron()
    assert SeidelSpec.from_json(spec.to_json()) == spec


def test_gram_hexagon():
    out = gram_analysis(seidel_hexagon(), 2, precision=160)
    p = out["det_poly"]
    alpha = Poly.variable(p.ring, 0)
    assert p == -2 * alpha ** 3 - 3 * alpha ** 2 + 1
    assert p.eval_exact((Fraction(1, 2),)) == 0
    assert p.eval_exact((Fraction(0),)) == 1
    assert len(out["admissible_alphas"]) == 1
    with mpmath.workprec(160):
        assert abs(out["admissible_alphas"][0] - mpmath.mpf(0.5)) < 1e-30
    assert out["multiplicities"] == [1]
    assert out["odd_integer_flags"] == [None]


def test_gram_icosahedron():
    out = gram_analysis(seidel_icosahedron(), 3, precision=160)
    p = out["det_poly"]
    alpha = Poly.variable(p.ring, 0)
    assert p == -125 * alpha ** 6 + 75 * alpha ** 4 - 15 * alpha ** 2 + 1
    assert len(out["admissible_alphas"]) == 1
    with mpmath.workprec(160):
        assert abs(out["admissible_alphas"][0] - 1 / mpmath.sqrt(5)) < 1e-30
    assert out["multiplicities"] == [3]
    # N = 6 = 2d: the odd-integer reciprocal flag does not apply
    assert out["odd_integer_flags"] == [None]


def test_gram_two_lines_empty():
    out = gram_analysis(SeidelSpec([[0, 1], [1, 0]]), 1, precision=128)
    assert out["admissible_alphas"] == []


@pytest.mark.parametrize("sign, admissible", [(1, []), (-1, [Fraction(1, 3)])],
                         ids=["all-plus", "all-minus"])
def test_gram_keeps_only_roots_inside_zero_one(sign, admissible):
    """Four lines in R^3 with one sign everywhere: det(I + alpha*S) is
    (1 + 3 alpha)(1 - alpha)^3 for S = J - I and (1 - 3 alpha)(1 + alpha)^3
    for S = I - J. The roots -1/3 and 1, and the triple root -1, lie
    outside (0, 1); only 1/3 is kept, with multiplicity 1."""
    n = 4
    signs = [[0 if i == j else sign for j in range(n)] for i in range(n)]
    out = gram_analysis(SeidelSpec(signs), 3, precision=128)
    alpha = Poly.variable(out["det_poly"].ring, 0)
    assert out["det_poly"] == (1 + 3 * sign * alpha) * (1 - sign * alpha) ** 3
    assert len(out["admissible_alphas"]) == len(admissible)
    with mpmath.workprec(128):
        for a, exact in zip(out["admissible_alphas"], admissible):
            assert abs(a * exact.denominator - exact.numerator) < 1e-30
    assert out["multiplicities"] == [1] * len(admissible)
    assert out["odd_integer_flags"] == [None] * len(admissible)


def test_gram_requires_excess_lines():
    with pytest.raises(VerificationError):
        gram_analysis(seidel_hexagon(), 3)


@given(st.integers(0, 2 ** 14))
@settings(max_examples=40, deadline=None)
def test_gram_det_at_zero_is_one(bits):
    # random sign pattern on up to 6 lines; G(0) = I so det(0) = 1
    n = 3 + bits % 4
    entries = []
    k = bits
    for i in range(n):
        for j in range(i + 1, n):
            entries.append(1 if k & 1 else -1)
            k >>= 1
    signs = [[0] * n for _ in range(n)]
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            signs[i][j] = signs[j][i] = entries[t]
            t += 1
    out = gram_analysis(SeidelSpec(signs), 2, precision=96)
    assert out["det_poly"].eval_exact((Fraction(0),)) == 1


def test_det_poly_render():
    out = gram_analysis(seidel_hexagon(), 2)
    assert str(out["det_poly"]) == "-(2)*alpha^3 - (3)*alpha^2 + 1"


def _frac_det(m):
    """Determinant of a rational matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            u = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= u * m[k][j]
    return det


def _t8_signs():
    # 28 lines in R^7: pairs of points of K8, sign +1 when two pairs share
    # a point; the Gram matrix I + S/3 has rank 7
    pairs = list(itertools.combinations(range(8), 2))
    return [[0 if p == q else (1 if set(p) & set(q) else -1)
             for q in pairs] for p in pairs]


def test_gram_triangular_graph_t8():
    signs = _t8_signs()
    out = gram_analysis(SeidelSpec(signs), 7, precision=128)
    assert out["multiplicities"] == [21]
    with mpmath.workprec(128):
        assert abs(out["admissible_alphas"][0] - mpmath.mpf(1) / 3) < 1e-30
    assert out["odd_integer_flags"] == [True]
    # a seeded uniform N = 22 pattern: no admissible angle, and a
    # characteristic polynomial whose coefficients grow large
    rng = random.Random(22)
    uniform = [[0] * 22 for _ in range(22)]
    for i, j in itertools.combinations(range(22), 2):
        uniform[i][j] = uniform[j][i] = rng.choice((-1, 1))
    out_uniform = gram_analysis(SeidelSpec(uniform), 7, precision=128)
    assert out_uniform["admissible_alphas"] == []
    for pattern, res in ((signs, out), (uniform, out_uniform)):
        for a in (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11)):
            gram = [[1 if i == j else a * s for j, s in enumerate(row)]
                    for i, row in enumerate(pattern)]
            assert res["det_poly"].eval_exact((a,)) == _frac_det(gram)


# -- spectral reconstruction -------------------------------------------------

def _gram_from(spec, alpha):
    n = spec.N
    return np.eye(n) + alpha * np.array(spec.signs, dtype=float)


def test_spectral_round_trip_hexagon():
    g = _gram_from(seidel_hexagon(), 0.5)
    out = spectral_reconstruct(g, 2, tol=1e-10)
    assert out["recon_error"] <= 1e-10
    vecs = np.array(out["vectors"])
    assert vecs.shape == (3, 2)
    assert np.max(np.abs(vecs @ vecs.T - g)) <= 1e-10


def test_spectral_round_trip_icosahedron():
    g = _gram_from(seidel_icosahedron(), 1 / math.sqrt(5))
    out = spectral_reconstruct(g, 3, tol=1e-10)
    assert out["recon_error"] <= 1e-10
    vecs = np.array(out["vectors"])
    assert vecs.shape == (6, 3)


def test_spectral_rank_error():
    with pytest.raises(SpectralError):
        spectral_reconstruct(np.eye(4), 2, tol=1e-10)


def test_spectral_not_psd():
    g = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SpectralError):
        spectral_reconstruct(g, 2, tol=1e-10)


def test_spectral_ragged_gram():
    with pytest.raises(VerificationError, match="rectangular"):
        spectral_reconstruct([[1.0, 0.5], [0.5]], 2)


@pytest.mark.parametrize("gram,message", [
    ([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]], "square"),
    ([[1.0, 0.5], [-0.5, 1.0]], "symmetric"),
    ([[math.inf, 0.0], [0.0, 1.0]], "non-finite"),
    ([[1.0, 0.0], [0.0, -math.inf]], "non-finite"),
    ([[1.0, math.nan], [math.nan, 1.0]], "non-finite"),
    ([[math.nan, 0.0], [0.0, 1.0]], "non-finite"),
], ids=["non_square", "non_symmetric", "inf", "minus_inf", "nan_pair",
        "nan_diagonal"])
def test_spectral_rejects_malformed_gram(gram, message):
    with pytest.raises(VerificationError, match=message):
        spectral_reconstruct(gram, 2)


def test_spectral_checks_one_entry_per_alpha():
    """The hexagon embeds in R^2 at alpha 1/2 only; at 1/4 its Gram
    matrix has rank 3, and the entry records the error instead."""
    out = spectral_checks(seidel_hexagon(), [Fraction(1, 2), 0.25], 2)
    assert [e["ok"] for e in out] == [True, False]
    assert float(out[0]["recon_error"]) <= 1e-9
    assert out[1]["error"] == "numeric rank 3 exceeds dimension 2"


def test_spectral_vectors_have_length_d():
    out = spectral_reconstruct([[1.0, 0.0], [0.0, 1.0]], 3)
    assert [len(v) for v in out["vectors"]] == [3, 3]
    vecs = np.array(out["vectors"])
    assert np.max(np.abs(vecs @ vecs.T - np.eye(2))) <= 1e-15


def test_spectral_small_pivot_counts_toward_rank():
    """A pivot of 1e-6 lies above tol, so it is a dimension of its own."""
    g = [[1.0, 0.0], [0.0, 1e-6]]
    assert spectral_reconstruct(g, 2)["recon_error"] <= 1e-16
    with pytest.raises(SpectralError, match="numeric rank 2 exceeds dimension 1"):
        spectral_reconstruct(g, 1)


def test_spectral_not_psd_at_a_later_pivot():
    """The leading 2 x 2 block is positive definite, so the first two
    pivots pass; the third Schur complement entry is about -15.2."""
    g = [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]
    assert spectral_reconstruct([row[:2] for row in g[:2]], 2)
    with pytest.raises(SpectralError, match="not positive semi-definite"):
        spectral_reconstruct(g, 3)
    assert _eigh_reconstruct(g, 3, 1e-10) is None


def _eigh_reconstruct(g, d, tol):
    """numpy's eigendecomposition route to the same decision: the
    numeric rank (eigenvalues above tol) when g is positive
    semi-definite to within tol, has rank at most d and its top d
    eigenpairs rebuild it to within tol; None otherwise."""
    g = np.asarray(g, dtype=float)
    evals, evecs = np.linalg.eigh(g)
    if evals[0] < -tol:
        return None
    rank = int(np.sum(evals > tol))
    if rank > d:
        return None
    v = np.sqrt(np.clip(evals[-d:], 0, None))[:, None] * evecs[:, -d:].T
    return rank if np.max(np.abs(v.T @ v - g)) <= tol else None


def _switched_pattern(signs, rng):
    """The sign pattern of the same lines with random signs and order."""
    order = rng.sample(range(len(signs)), len(signs))
    flip = [rng.choice((-1, 1)) for _ in signs]
    return [[flip[i] * flip[j] * signs[i][j] for j in order] for i in order]


def test_spectral_matches_eigh_reference():
    """Seeded patterns with N = 6..22: lines drawn from T(8) or the
    icosahedron, so that admissible angles exist, and uniform random
    signs. At each admissible alpha and at random rationals, in R^d and
    in R^N, both routes accept or both reject, and when they accept the
    ranks agree and the vectors rebuild the Gram matrix to within tol."""
    rng = random.Random(2024)
    tol = 1e-10
    t8 = _t8_signs()
    accepted = rejected = admissible = 0
    for n in range(6, 23):
        if n == 6:
            planted, d = seidel_icosahedron().signs, 3
        else:
            d = 7 if n > 7 else 5
            pick = rng.sample(range(28), n)
            planted = [[t8[i][j] for j in pick] for i in pick]
        uniform = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            uniform[i][j] = uniform[j][i] = rng.choice((-1, 1))
        for signs in (_switched_pattern(planted, rng), uniform):
            alphas = gram_analysis(SeidelSpec(signs), d)["admissible_alphas"]
            admissible += len(alphas)
            alphas += [Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 30))
                       for _ in range(3)]
            for a, dim in itertools.product(alphas, (d, n)):
                g = np.eye(n) + float(a) * np.array(signs, dtype=float)
                want = _eigh_reconstruct(g, dim, tol)
                try:
                    out = spectral_reconstruct(g, dim, tol=tol)
                except SpectralError:
                    assert want is None, (n, a, dim)
                    rejected += 1
                    continue
                assert want is not None, (n, a, dim)
                vecs = np.array(out["vectors"])
                assert vecs.shape == (n, dim)
                assert np.linalg.matrix_rank(vecs) == want, (n, a, dim)
                assert np.max(np.abs(vecs @ vecs.T - g)) <= tol
                accepted += 1
    assert admissible >= 15 and accepted >= 40 and rejected >= 40, (
        admissible, accepted, rejected)


@settings(max_examples=150, deadline=None)
@given(
    b=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
               min_size=1, max_size=6),
    d=st.integers(1, 4),
    poke=st.none() | st.tuples(
        st.integers(0, 5), st.integers(0, 5),
        st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300,
                         1e-300, 0.5, -0.5]),
    ),
)
def test_spectral_accepts_only_a_true_round_trip(b, d, poke):
    """G = B B^T for an integer B, with one symmetric pair of entries
    perhaps overwritten by an extreme value. Either a VerificationError,
    or length-d finite vectors that rebuild G to within tol; untouched,
    G is accepted exactly when B has rank at most d."""
    n = len(b)
    g = [[float(sum(x * y for x, y in zip(u, w))) for w in b] for u in b]
    if poke is not None:
        i, j, x = poke[0] % n, poke[1] % n, poke[2]
        g[i][j] = g[j][i] = x
    try:
        out = spectral_reconstruct(g, d)
    except VerificationError:
        assert poke is not None or np.linalg.matrix_rank(np.array(b)) > d
        return
    assert poke is not None or np.linalg.matrix_rank(np.array(b)) <= d
    vecs = np.array(out["vectors"])
    assert vecs.shape == (n, d) and np.all(np.isfinite(vecs))
    assert np.max(np.abs(vecs @ vecs.T - np.array(g))) <= 1e-10


# -- real equiangular sets ----------------------------------------------------

def test_real_hexagon():
    out = verify_equiangular_real(hexagon_lines(), tol=1e-12)
    assert out["ok"]
    assert abs(out["alpha_est"] - 0.5) < 1e-12


def test_real_icosahedron():
    out = verify_equiangular_real(icosahedron_lines(), tol=1e-12)
    assert out["ok"]
    assert abs(out["alpha_est"] - 1 / math.sqrt(5)) < 1e-12


def test_real_corrupted_pair():
    lines = [list(v) for v in hexagon_lines()]
    lines[2][0] += 0.02
    out = verify_equiangular_real(lines, tol=1e-6)
    assert not out["ok"]


def test_real_standard_basis_alpha_zero():
    out = verify_equiangular_real([[1, 0], [0, 1]], tol=1e-12)
    assert out["ok"]
    assert abs(out["alpha_est"]) < 1e-15


@pytest.mark.parametrize("vectors,message", [
    ([[1, 0], [math.nan, 1]], "non-finite"),
    ([[1, 0], [0, math.inf]], "non-finite"),
    ([[1, 0], [0, 1, 0]], "same dimension"),
    ([[1, 0]], "at least two vectors"),
    ([[1e300, -1e300], [1e300, 1e300]], "overflows"),
], ids=["nan", "inf", "ragged", "one_vector", "overflow"])
def test_real_rejects_bad_vectors(vectors, message):
    with pytest.raises(VerificationError, match=message):
        verify_equiangular_real(vectors)


def _real_check_numpy(vectors):
    """The numpy formulation of verify_equiangular_real, as reference."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    mags = [abs(float(u @ w)) for j, u in enumerate(vs) for w in vs[j + 1:]]
    alpha_est = float(np.median(mags))
    max_dev = max([abs(float(u @ u) - 1.0) for u in vs]
                  + [abs(m - alpha_est) for m in mags])
    return alpha_est, max_dev


def test_real_matches_numpy_reference():
    t8 = _gram_from(SeidelSpec(_t8_signs()), 1 / 3)
    t8_vectors = spectral_reconstruct(t8, 7)["vectors"]
    for vectors in (hexagon_lines(), icosahedron_lines(), t8_vectors):
        out = verify_equiangular_real(vectors)
        alpha_est, max_dev = _real_check_numpy(vectors)
        assert abs(out["alpha_est"] - alpha_est) <= 1e-15
        assert abs(out["max_dev"] - max_dev) <= 1e-15

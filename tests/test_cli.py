"""Command line driver: exit codes, hash chaining, determinism."""

import argparse
import errno
import gc
import hashlib
import itertools
import json
import os
import re
from fractions import Fraction

import pytest

from eqlines.cli import _build_parser, main
from eqlines.polyring import Poly, Ring
from eqlines.exact import QQ


def _read(path):
    return json.loads(path.read_text())


def _gen_d2(tmp_path, name="sys.json"):
    out = tmp_path / name
    assert main(["gen", "--kind", "wh", "--d", "2", "--out", str(out)]) == 0
    return out


def _basis_d2(tmp_path, sys_path, name="basis.json", order="lex"):
    out = tmp_path / name
    rc = main([
        "groebner", "--in", str(sys_path), "--order", order,
        "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def d2_files(tmp_path_factory):
    """A WH d=2 system and its lex basis, shared by read-only tests."""
    base = tmp_path_factory.mktemp("d2")
    sp = _gen_d2(base)
    return sp, _basis_d2(base, sp)


@pytest.fixture(scope="module")
def d2_sols(d2_files):
    """The solutions file of d2_files, shared by read-only tests."""
    sp, bp = d2_files
    out = bp.parent / "sols.json"
    assert main(["solve", "--in", str(bp), "--system", str(sp),
                 "--out", str(out)]) == 0
    return out


def _t8_signs():
    # 28 lines in R^7: pairs of points of K8, sign +1 when two pairs share
    # a point
    pairs = list(itertools.combinations(range(8), 2))
    return [[0 if p == q else (1 if set(p) & set(q) else -1)
             for q in pairs] for p in pairs]


def test_gen_wh_d2_shape(tmp_path):
    doc = _read(_gen_d2(tmp_path))
    assert doc["format"] == "polysystem"
    assert doc["kind"] == "wh_fiducial"
    assert doc["d"] == 2
    assert len(doc["vars"]) == 4
    assert doc["metadata"]["rhs"]["phase"] == "0"


def test_gen_no_phase_fix(tmp_path):
    out = tmp_path / "sys.json"
    assert main(["gen", "--kind", "wh", "--d", "2", "--no-phase-fix",
                 "--out", str(out)]) == 0
    doc = _read(out)
    assert "phase" not in doc["labels"]
    assert "phase" not in doc["metadata"]["rhs"]
    assert len(doc["equations"]) == 4


def test_gen_complex_full_shape(tmp_path):
    out = tmp_path / "full.json"
    assert main(["gen", "--kind", "complex-full", "--d", "2",
                 "--out", str(out)]) == 0
    doc = _read(out)
    assert doc["kind"] == "complex_full"
    assert len(doc["vars"]) == 16


def test_gen_real_preset(tmp_path):
    out = tmp_path / "real.json"
    assert main(["gen", "--kind", "real", "--d", "2", "--n", "3",
                 "--alpha", "1/2", "--preset", "hexagon",
                 "--out", str(out)]) == 0
    doc = _read(out)
    assert doc["kind"] == "real_lines"
    assert doc["metadata"]["variant"] == "sign_resolved"
    # alpha was fixed on the command line, so it is not a variable
    assert doc["vars"][-1] == "u_3_2"


def test_gen_real_symbolic_alpha(tmp_path):
    out = tmp_path / "real.json"
    assert main(["gen", "--kind", "real", "--d", "2", "--n", "3",
                 "--preset", "hexagon", "--out", str(out)]) == 0
    assert _read(out)["vars"][-1] == "alpha"


def test_gen_real_requires_n(tmp_path):
    out = tmp_path / "real.json"
    rc = main(["gen", "--kind", "real", "--d", "2", "--out", str(out)])
    assert rc == 2


def test_gen_bad_dimension(tmp_path):
    rc = main(["gen", "--kind", "wh", "--d", "0",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_groebner_basis_format(tmp_path):
    sp = _gen_d2(tmp_path)
    doc = _read(_basis_d2(tmp_path, sp))
    assert doc["format"] == "basis"
    assert doc["order"] == "lex"
    assert doc["reduced"] is True
    assert doc["zero_dimensional"] is True
    assert doc["quotient_dimension"] == 32
    assert doc["input_hash"]
    assert doc["pair_count"] > 0


def test_groebner_budget_exhaustion(tmp_path):
    sp = _gen_d2(tmp_path)
    out = tmp_path / "partial.json"
    rc = main(["groebner", "--in", str(sp), "--pair-budget", "2",
               "--out", str(out)])
    assert rc == 3
    doc = _read(out)
    assert doc["format"] == "basis_partial"
    assert doc["pair_budget"] == 2
    assert doc["pairs_processed"] >= 1
    assert doc["partial_size"] >= 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_budget_exit_prints_its_summary(fmt, d2_files, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["groebner", "--in", str(d2_files[0]), "--pair-budget", "2",
                 "--format", fmt]) == 3
    printed = capsys.readouterr()
    assert printed.err == ""
    (line,) = printed.out.splitlines()
    name = _summary_out(line, fmt)
    assert name == "basis_wh_fiducial_d2.json"
    doc = _read(tmp_path / name)
    assert sorted(doc) == ["format", "input_hash", "order", "pair_budget",
                           "pairs_processed", "partial_size"]
    assert doc["format"] == "basis_partial"
    if fmt == "json":
        fields = json.loads(line)
    else:
        fields = dict(f.split("=", 1) for f in line.split(" "))
    assert sorted(fields) == ["elapsed", "out", "pairs_processed",
                              "partial_size"]
    for key in ("pairs_processed", "partial_size"):
        assert str(fields[key]) == str(doc[key])


def test_solve_rejects_partial(tmp_path, capsys):
    sp = _gen_d2(tmp_path)
    out = tmp_path / "partial.json"
    main(["groebner", "--in", str(sp), "--pair-budget", "2",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["solve", "--in", str(out), "--system", str(sp),
               "--out", str(tmp_path / "sols.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: basis file records a pair-budget failure; nothing to solve\n"
    )


def test_full_d2_pipeline(tmp_path, capsys):
    sp = _gen_d2(tmp_path)
    bp = _basis_d2(tmp_path, sp)
    sols = tmp_path / "sols.json"
    rc = main(["solve", "--in", str(bp), "--system", str(sp),
               "--out", str(sols)])
    assert rc == 0
    line = capsys.readouterr().out
    assert "total=32" in line
    assert "real=16" in line
    assert "real_up_to_sign=8" in line
    assert "orbits=2" in line
    doc = _read(sols)
    assert doc["format"] == "solutions"
    assert doc["d"] == 2
    assert len(doc["points"]) == 32

    rep = tmp_path / "verify.json"
    rc = main(["verify", "--in", str(sols), "--out", str(rep)])
    assert rc == 0
    vdoc = _read(rep)
    assert vdoc["format"] == "verify_report"
    assert vdoc["all_ok"] is True
    assert vdoc["n_checked"] == 16


def test_solve_empty_system_rejected(d2_files, tmp_path, capsys):
    # forced past the hash check, a system with no equations cannot
    # validate the points
    sp, bp = d2_files
    doc = _read(sp)
    doc["equations"], doc["labels"] = [], []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["solve", "--in", str(bp), "--system", str(empty), "--force",
               "--out", str(tmp_path / "sols.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: the system has no nonzero equation" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sols.json").exists()


def test_solve_rejects_zero_basis_element(d2_files, tmp_path, capsys):
    # a basis element without terms is refused when the file is read,
    # not later with "zero polynomial has no leading term"
    sp, bp = d2_files
    doc = _read(bp)
    doc["basis"][1] = []
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["solve", "--in", str(bad), "--system", str(sp), "--force",
               "--out", str(tmp_path / "sols.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad} is not a valid input file; "
                          "caused by ValueError: basis element 1 is zero")
    assert "Traceback" not in err
    assert not (tmp_path / "sols.json").exists()


def test_solve_realness_tolerance_json_summary(d2_files, tmp_path, capsys):
    # at the default realness tolerance 16 of the 32 points are real
    # (test_full_d2_pipeline); a tolerance of 1 accepts all of them
    sp, bp = d2_files
    capsys.readouterr()
    rc = main(["solve", "--in", str(bp), "--system", str(sp),
               "--tol-realness", "1", "--format", "json",
               "--out", str(tmp_path / "sols.json")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == 32
    assert summary["real"] == 32


def test_chain_mismatch_rejected(tmp_path):
    sp1 = _gen_d2(tmp_path, "sys1.json")
    bp = _basis_d2(tmp_path, sp1)
    sp2 = tmp_path / "sys2.json"
    main(["gen", "--kind", "wh", "--d", "3", "--out", str(sp2)])
    rc = main(["solve", "--in", str(bp), "--system", str(sp2),
               "--out", str(tmp_path / "sols.json")])
    assert rc == 2


def test_chain_mismatch_forced_still_validates_arity(tmp_path):
    sp1 = _gen_d2(tmp_path, "sys1.json")
    bp = _basis_d2(tmp_path, sp1)
    sp2 = tmp_path / "sys2.json"
    main(["gen", "--kind", "wh", "--d", "3", "--out", str(sp2)])
    rc = main(["solve", "--in", str(bp), "--system", str(sp2), "--force",
               "--out", str(tmp_path / "sols.json")])
    # forced past the hash check, still rejected on variable count
    assert rc == 2


def _pinned_runs(base):
    """(output file, argv) for each CLI command whose output is pinned."""
    def f(name):
        return str(base / name)
    return [
        ("sys.json", ["gen", "--kind", "wh", "--d", "2"]),
        ("sys3.json", ["gen", "--kind", "wh", "--d", "3", "--no-phase-fix"]),
        ("real.json", ["gen", "--kind", "real", "--d", "2", "--n", "3",
                       "--alpha", "1/2", "--preset", "hexagon"]),
        ("real_sq.json", ["gen", "--kind", "real", "--d", "2", "--n", "3"]),
        ("full.json", ["gen", "--kind", "complex-full", "--d", "2"]),
        ("basis.json", ["groebner", "--in", f("sys.json"), "--order", "lex"]),
        ("basis_gl.json", ["groebner", "--in", f("sys.json"),
                           "--order", "grevlex_then_lex"]),
        ("sols.json", ["solve", "--in", f("basis.json"),
                       "--system", f("sys.json"), "--precision", "512"]),
        ("verify.json", ["verify", "--in", f("sols.json")]),
        ("ov_z3.json", ["overlaps", "--zauner", "3"]),
        ("ov_in.json", ["overlaps", "--in", f("sols.json"), "--index", "3"]),
        ("gram_hex.json", ["gram", "--preset", "hexagon", "--d", "2"]),
        ("gram_ico.json", ["gram", "--preset", "icosahedron", "--d", "3"]),
        ("gram_t8.json", ["gram", "--in", f("t8.json"), "--d", "7"]),
    ]


# sha256 of each pinned output file. Numeric files depend on mpmath's
# rounding; these digests were taken with mpmath 1.3.0 on its pure-Python
# backend.
PINNED_SHA256 = {
    "sys.json": "93975085e23402f2986a5aedc463dfd7eb1b2023930c7c792600000d155ddf30",
    "sys3.json": "84da0579d3064698816434456d65958b5c0d436b7c415a1e43be9c78bf69515b",
    "real.json": "69532ed7c0ae09edbdd06b5bb6d53ac95a8ea1977fe3745fa18f71f36c03a987",
    "real_sq.json": "51e9aa5b02ab229a9a24ecf3425246b19d0e60ef65e338441a52eb4ea646789e",
    "full.json": "4424b3ad45e6eb271ef7dc8c97e90d5d6f127e774f53f2f996e38d22d4351589",
    "basis.json": "3e933cd2c8f133f89231080ce145a0235ac229ffbf9b6e96c5b65505618727c8",
    "basis_gl.json": "3e933cd2c8f133f89231080ce145a0235ac229ffbf9b6e96c5b65505618727c8",
    "sols.json": "660fd3cc40aced0c08b6cf377cf14ecec3069008759696fee811488d92ab2b42",
    "verify.json": "d5291c63e9e87427f10a70989bc055a1e23716a08298605021fbad8972f59536",
    "ov_z3.json": "821206e380faa249daef2c06b8c0d22aa3accbdec7f2bd9f641cdf9fd39f7a94",
    "ov_in.json": "dd2717e624ddeba330124cfe8f7bc54e3995e81beed722f2bb0ec295aefa43dd",
    "gram_hex.json": "b36abb6719d21b78209a6a60caa4e9186a6004725ec3a628dbbdb7ee406bdb59",
    "gram_ico.json": "8bec0b7adb704274094dd46f0cf2a035663abd64cb19039aff3604e95609fb40",
    "gram_t8.json": "974742a13b8c660f38d02e62427d219e4e32ae9b2586d56c5466dd67f92ee0c5",
}


def test_determinism_byte_identical(tmp_path):
    files = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        (base / "t8.json").write_text(json.dumps({"signs": _t8_signs()}))
        for name, argv in _pinned_runs(base):
            assert main(argv + ["--out", str(base / name)]) == 0, argv
        files[run] = {name: (base / name).read_bytes()
                      for name in PINNED_SHA256}
    assert files["a"] == files["b"]
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in files["a"].items()}
    assert digests == PINNED_SHA256


# sha256 of each gram report with every recon_error value blanked. The
# pinned digests above change whenever the float factorization rounds
# differently; these change only if anything else in a report does.
GRAM_MASKED_SHA256 = {
    "gram_hex.json": "fc16c18b3404a3079531b3c6bff3f05de83ee4437d395a333fe75f23ce7b22fe",
    "gram_ico.json": "66d999eba639dd49f0ea711efeefe6aaa33c7e8ef0ac8cfe83557d0be3e4b64d",
    "gram_t8.json": "05dab1ecca40ddc43973668cb980eda6a201ab929da969803f4b522093df05ad",
}


def test_gram_reports_differ_only_in_recon_error(tmp_path):
    (tmp_path / "t8.json").write_text(json.dumps({"signs": _t8_signs()}))
    digests = {}
    for name, argv in _pinned_runs(tmp_path):
        if name in GRAM_MASKED_SHA256:
            assert main(argv + ["--out", str(tmp_path / name)]) == 0, argv
            masked, count = re.subn(rb'"recon_error": "[^"]*"',
                                    b'"recon_error": ""',
                                    (tmp_path / name).read_bytes())
            assert count == 1, name
            digests[name] = hashlib.sha256(masked).hexdigest()
    assert digests == GRAM_MASKED_SHA256


def test_groebner_ignores_cache_env(tmp_path, monkeypatch, capsys):
    """groebner computes the basis every time: a basis planted in
    EQLINES_CACHE_DIR is never read."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("EQLINES_CACHE_DIR", str(cache))
    sp = _gen_d2(tmp_path)
    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    assert main(["groebner", "--in", str(sp), "--out", str(b1)]) == 0
    planted = _read(b1)
    planted["basis"] = [[{"c": "1", "e": [0, 0, 0, 0]}]]
    for f in cache.iterdir():
        f.write_text(json.dumps(planted, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["groebner", "--in", str(sp), "--out", str(b2)]) == 0
    assert b2.read_bytes() == b1.read_bytes()
    assert "quotient_dimension=32" in capsys.readouterr().out


def test_verify_exit_code_on_failure(tmp_path):
    sp = _gen_d2(tmp_path)
    bp = _basis_d2(tmp_path, sp)
    sols = tmp_path / "sols.json"
    main(["solve", "--in", str(bp), "--system", str(sp), "--out", str(sols)])
    doc = _read(sols)
    # corrupt one real point so the angle condition fails
    for p in doc["points"]:
        if p["tags"]["real"]:
            p["coords"][0][0] = "0.9"
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    rc = main(["verify", "--in", str(bad), "--force",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 4


def test_verify_derives_realness_from_the_coordinates(d2_sols, tmp_path):
    """verify checks the points whose coordinates are real, whatever
    ``real`` tags the file records: with every tag false it checks the
    same 16 points as the honest file, in the same report."""
    doc = _read(d2_sols)
    for p in doc["points"]:
        p["tags"]["real"] = False
    lying = tmp_path / "lying.json"
    lying.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    reports = []
    for sols in (d2_sols, lying):
        rep = tmp_path / f"report_{sols.stem}.json"
        assert main(["verify", "--in", str(sols), "--out", str(rep)]) == 0
        reports.append(_read(rep))
    honest, tampered = reports
    assert tampered["n_checked"] == 16 and tampered["all_ok"] is True
    assert tampered["input_hash"] != honest["input_hash"]
    del honest["input_hash"], tampered["input_hash"]
    assert tampered == honest


def test_solve_refuses_a_misstated_dimension(d2_files, tmp_path, capsys):
    """A basis file's recorded dimension must be its basis's own; other
    misstated dimensions are cases of test_malformed_input_file."""
    sp, bp = d2_files
    doc = _read(bp)
    doc.update(zero_dimensional=False, quotient_dimension=5)
    bad = tmp_path / "misstated.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["solve", "--in", str(bad), "--system", str(sp),
               "--out", str(tmp_path / "sols.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad} is not a valid input file; "
                          "caused by ValueError: recorded zero_dimensional "
                          "False is not True")
    assert not (tmp_path / "sols.json").exists()


def _other_system(tmp_path):
    # a d=2 system whose bytes, and so its hash, differ from d2_files'
    out = tmp_path / "other.json"
    assert main(["gen", "--kind", "wh", "--d", "2", "--no-phase-fix",
                 "--out", str(out)]) == 0
    return out


def test_verify_system_mismatch_rejected(d2_sols, tmp_path, capsys):
    other = _other_system(tmp_path)
    capsys.readouterr()
    rc = main(["verify", "--in", str(d2_sols), "--system", str(other),
               "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: system file does not match the hash recorded upstream; "
        "rerun the producing command or pass --force\n"
    )
    assert not (tmp_path / "rep.json").exists()


def test_verify_system_mismatch_forced(d2_sols, tmp_path, capsys):
    other = _other_system(tmp_path)
    capsys.readouterr()
    rc = main(["verify", "--in", str(d2_sols), "--system", str(other),
               "--force", "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    assert capsys.readouterr().err == (
        "warning: system file hash mismatch ignored by --force\n"
    )
    assert _read(tmp_path / "rep.json")["all_ok"] is True


def test_overlaps_index_out_of_range(d2_sols, tmp_path, capsys):
    capsys.readouterr()
    rc = main(["overlaps", "--in", str(d2_sols), "--index", "99",
               "--out", str(tmp_path / "ov.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --index out of range\n"


def test_overlaps_refuses_a_point_that_is_not_real(d2_sols, tmp_path,
                                                   capsys):
    """The coordinates of a complex point are no real and imaginary
    parts of a vector, so, as verify skips it, overlaps refuses it."""
    doc = _read(d2_sols)
    index = next(i for i, p in enumerate(doc["points"])
                 if not p["tags"]["real"])
    capsys.readouterr()
    rc = main(["overlaps", "--in", str(d2_sols), "--index", str(index),
               "--out", str(tmp_path / "ov.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --index {index} names a point that is not real\n")
    assert not (tmp_path / "ov.json").exists()


def test_solutions_file_without_dimension_rejected(d2_sols, tmp_path, capsys):
    doc = _read(d2_sols)
    del doc["d"]
    bad = tmp_path / "no_d.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", "--in", str(bad), "--out", str(tmp_path / "rep.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "solutions file does not record the dimension" in err
    assert "Traceback" not in err


def test_overlaps_zauner_ok(tmp_path):
    out = tmp_path / "ov.json"
    rc = main(["overlaps", "--zauner", "1", "--out", str(out)])
    assert rc == 0
    doc = _read(out)
    assert doc["format"] == "overlap_report"
    assert doc["ok"] is True
    assert len(doc["report"]["entries"]) == 15
    assert doc["source"] == {"zauner_k": 1}


def test_overlaps_reject_non_fiducial(tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps([["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]))
    rc = main(["overlaps", "--vector", str(vec),
               "--out", str(tmp_path / "ov.json")])
    assert rc == 4


def test_gram_hexagon_report(tmp_path):
    out = tmp_path / "gram.json"
    rc = main(["gram", "--preset", "hexagon", "--d", "2", "--out", str(out)])
    assert rc == 0
    doc = _read(out)
    assert doc["format"] == "gram_report"
    assert doc["det_poly"] == "-(2)*alpha^3 - (3)*alpha^2 + 1"
    ring = Ring(("alpha",), QQ)
    p = Poly.from_dict(
        ring,
        {tuple(t["e"]): Fraction(t["c"]) for t in doc["det_poly_terms"]},
    )
    assert p.eval_exact((Fraction(1, 2),)) == 0
    assert float(doc["admissible_alphas"][0]) == 0.5
    assert doc["spectral"][0]["ok"] is True


def test_gram_icosahedron_report(tmp_path):
    out = tmp_path / "gram.json"
    rc = main(["gram", "--preset", "icosahedron", "--d", "3",
               "--out", str(out)])
    assert rc == 0
    doc = _read(out)
    assert doc["multiplicities"] == [3]
    assert doc["spectral"][0]["ok"] is True


def test_gram_signs_file(tmp_path):
    signs = tmp_path / "signs.json"
    signs.write_text(json.dumps({"signs": [[0, 1], [1, 0]]}))
    out = tmp_path / "gram.json"
    rc = main(["gram", "--in", str(signs), "--d", "1", "--out", str(out)])
    assert rc == 0
    doc = _read(out)
    assert doc["admissible_alphas"] == []


def test_precision_floor(tmp_path):
    rc = main(["gram", "--preset", "hexagon", "--d", "2", "--precision", "10",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    # gen does not read --precision, so it does not take the option
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "wh", "--d", "2", "--precision", "10",
              "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "--d", "2", "--force"],
    ["groebner", "--in", "SYS", "--force"],
    ["groebner", "--in", "SYS", "--precision", "256"],
    ["groebner", "--in", "SYS", "--cache-dir", "c"],
    ["overlaps", "--zauner", "1", "--force"],
    ["gram", "--preset", "hexagon", "--d", "2", "--force"],
], ids=["gen-force", "groebner-force", "groebner-precision",
        "groebner-cache-dir", "overlaps-force", "gram-force"])
def test_option_not_taken(argv, tmp_path):
    """A subcommand takes only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2


def test_alpha_zero_denominator(tmp_path, capsys):
    rc = main(["gen", "--kind", "real", "--d", "2", "--n", "3",
               "--alpha", "1/0", "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --alpha '1/0' is not a rational number; "
                          "caused by ZeroDivisionError")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["gram", "--preset", "hexagon", "--d", "0"], "d must be at least 1"),
    (["overlaps", "--zauner", "1", "--precision", "52"],
     "precision must be at least 53 bits"),
    (["verify", "--in", "SOLS", "--tol", "0"], "tolerances must be positive"),
    (["overlaps", "--zauner", "1", "--tol", "-1"],
     "tolerances must be positive"),
    (["solve", "--in", "BASIS", "--system", "SYS", "--tol-cluster", "0"],
     "tolerances must be positive"),
    (["groebner", "--in", "SYS", "--pair-budget", "0"],
     "pair budget must be positive"),
    (["solve", "--in", "BASIS", "--system", "SYS", "--tol-residual", "nan"],
     "tolerances must be positive"),
    (["verify", "--in", "SOLS", "--tol", "inf"], "tolerances must be finite"),
    (["solve", "--in", "BASIS", "--system", "SYS", "--precision", "52"],
     "precision must be at least 53 bits"),
    (["overlaps", "--zauner", "2"], "--zauner takes 1, 3, 5 or 7"),
    (["overlaps"], "overlaps needs --in with --index, --vector or --zauner"),
    (["gram", "--d", "2"], "gram needs --preset or --in"),
    (["gram", "--preset", "foo", "--d", "2"],
     "unknown preset 'foo'; choose from ['hexagon', 'icosahedron']"),
])
def test_out_of_range_option(argv, message, d2_files, tmp_path, capsys):
    paths = {"SYS": str(d2_files[0]), "BASIS": str(d2_files[1]),
             "SOLS": str(tmp_path / "absent.json")}
    argv = [paths.get(a, a) for a in argv]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_input_file(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    rc = main(["groebner", "--in", str(absent),
               "--out", str(tmp_path / "b.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: missing file: {absent}\n"


@pytest.mark.parametrize("argv, culprit, code", [
    (["groebner", "--in", "DIR", "--out", "OUT"], "DIR", errno.EISDIR),
    (["gen", "--kind", "wh", "--d", "2", "--out", "DIR"], "DIR", errno.EISDIR),
    pytest.param(["gen", "--kind", "wh", "--d", "2", "--out", "/dev/full"],
                 "/dev/full", errno.ENOSPC,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
    # an empty path is the current directory, not an absent option
    (["gen", "--kind", "wh", "--d", "2", "--out", ""], ".", errno.EISDIR),
    (["verify", "--in", "SOLS", "--system", "", "--out", "OUT"], ".",
     errno.EISDIR),
], ids=["groebner-in", "gen-out", "gen-out-full-disk", "gen-out-blank",
        "verify-system-blank"])
def test_unopenable_path(argv, culprit, code, d2_sols, tmp_path, monkeypatch,
                         capsys):
    """A path that cannot be read or written exits 2 with a one-line
    error naming it, and writes no file."""
    paths = {"DIR": str(tmp_path), "OUT": str(tmp_path / "out.json"),
             "SOLS": str(d2_sols)}
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    rc = main([paths.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: cannot read or write {paths.get(culprit, culprit)}: "
                   f"{os.strerror(code)}\n")
    assert list(tmp_path.iterdir()) == []


_NOT_A_SYSTEM = '{"format": "polysystem"}'
_NOT_SIGNS = '{"rows": [[0, 1], [1, 0]]}'
# a d=2 solutions file whose one real point has 2 coordinates, not 4
_SHORT_COORDS = json.dumps({
    "format": "solutions", "precision": 256, "tolerances": {}, "d": 2,
    "points": [{"coords": [["0.5", "0"], ["0.5", "0"]], "residual": "0",
                "tags": {"real": True}}],
})


def _bad_tolerance(name, value):
    """A solutions file, empty but for one recorded tolerance."""
    return _tolerances({name: value})


def _tolerances(recorded):
    """An empty d=2 solutions file that records these tolerances."""
    return json.dumps({
        "format": "solutions", "precision": 256, "tolerances": recorded,
        "points": [], "d": 2,
    })


def _solutions_of_kind(kind):
    """A d=2 solutions file that records this system kind, with one
    real point."""
    return json.dumps({
        "format": "solutions", "precision": 256, "d": 2, "kind": kind,
        "tolerances": {"residual": "1e-10", "cluster": "1e-25",
                       "realness": "1e-20", "match": "1e-10"},
        "points": [{"coords": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]],
                    "residual": "0", "tags": {"real": True}}],
    })


def _system(coeff, exps=(1, 0, 0, 0), field="Q", d=2):
    """A one-equation system file in x0..x3 with one term."""
    return json.dumps({
        "format": "polysystem", "kind": "wh_fiducial", "d": d,
        "n_lines": 4, "vars": ["x0", "x1", "x2", "x3"], "field": field,
        "labels": ["p_0_0"], "equations": [[{"c": coeff, "e": list(exps)}]],
    })


def _reduced_basis(*polys, pair_count=0, zero_dimensional=False,
                   quotient_dimension=None):
    """A lex basis file in x, y over Q that claims to be reduced; each
    polynomial is a list of (coefficient, exponent vector) terms. The
    recorded dimension defaults to that of a basis without a pure power
    of y."""
    return json.dumps({
        "format": "basis", "order": "lex", "vars": ["x", "y"], "field": "Q",
        "reduced": True, "pair_count": pair_count,
        "basis": [[{"c": c, "e": e} for c, e in p] for p in polys],
        "zero_dimensional": zero_dimensional,
        "quotient_dimension": quotient_dimension,
    })


_X2_MINUS_Y = [("1", [2, 0]), ("-1", [0, 1])]
_X_Y = [("1", [1, 0])], [("1", [0, 1])]
_BOOL = "TypeError: True is a bool, not an integer"


@pytest.mark.parametrize("argv, content, cause", [
    (["groebner", "--in", "BAD"], _NOT_A_SYSTEM, "KeyError: 'vars'"),
    (["groebner", "--in", "BAD"], "[1, 2]", "AttributeError: "),
    (["groebner", "--in", "BAD"], "{nope", "JSONDecodeError: "),
    (["solve", "--in", "BASIS", "--system", "BAD"], _NOT_A_SYSTEM,
     "KeyError: 'vars'"),
    (["solve", "--in", "BAD", "--system", "SYS"], '{"format": "basis"}',
     "KeyError: 'vars'"),
    (["verify", "--in", "BAD"], '{"format": "solutions"}',
     "KeyError: 'precision'"),
    (["overlaps", "--in", "BAD", "--index", "0"],
     '{"format": "solutions", "precision": 256}', "KeyError: 'points'"),
    (["overlaps", "--vector", "BAD"], "[1, 0]", "TypeError: "),
    (["gram", "--in", "BAD", "--d", "2"], _NOT_SIGNS, "KeyError: 'signs'"),
    (["gen", "--kind", "real", "--d", "2", "--n", "3", "--in", "BAD"],
     _NOT_SIGNS, "KeyError: 'signs'"),
    (["groebner", "--in", "BAD"], _system("1/0"), "ZeroDivisionError: "),
    (["groebner", "--in", "BAD"],
     _system("(1/0)*z @ n=12", field={"cyclotomic": 12}),
     "ZeroDivisionError: "),
    (["groebner", "--in", "BAD"], _system("1", exps=(1.5, 0, 0, 0)),
     "TypeError: "),
    (["groebner", "--in", "BAD"],
     _system("1 @ n=12", field={"cyclotomic": 12.5}), "TypeError: "),
    (["gram", "--in", "BAD", "--d", "1"], '{"signs": [[0, 1.9], [1.9, 0]]}',
     "TypeError: "),
    (["groebner", "--in", "BAD"], _system("1", d=2.5), "TypeError: "),
    (["verify", "--in", "BAD"], '{"format": "solutions", "precision": 256, '
     '"tolerances": {}, "points": [], "d": 2.5}', "TypeError: "),
    (["verify", "--in", "BAD"], '{"format": "solutions", "precision": 256.5}',
     "TypeError: "),
    (["verify", "--in", "BAD"], _SHORT_COORDS,
     "ValueError: point 0 has 2 coordinates, not 4"),
    (["overlaps", "--in", "BAD", "--index", "0"], _SHORT_COORDS,
     "ValueError: point 0 has 2 coordinates, not 4"),
    (["verify", "--in", "BAD"], '{"format": "solutions", "precision": 10}',
     "ValueError: recorded precision 10 is below 53 bits"),
    (["verify", "--in", "BAD"], _bad_tolerance("realness", "-1"),
     "ValueError: tolerance realness must be positive and finite, not -1.0"),
    (["overlaps", "--in", "BAD", "--index", "0"], _bad_tolerance("match", "nan"),
     "ValueError: tolerance match must be positive and finite, not nan"),
    (["groebner", "--in", "BAD"], _system("1 @ n=997", field={"cyclotomic": 12}),
     "ValueError: conductor mismatch: 997 vs 12"),
    (["groebner", "--in", "BAD"], "[" * 100000, "RecursionError: "),
    (["groebner", "--in", "BAD"], _system("1 @ m=12", field={"cyclotomic": 12}),
     "ValueError: missing conductor annotation in '1 @ m=12'"),
    (["groebner", "--in", "BAD"], _system("2*z @ n=12", field={"cyclotomic": 12}),
     "ValueError: bad cyclotomic term '2*z' in '2*z @ n=12'"),
    (["groebner", "--in", "BAD"], _system("z^4 @ n=12", field={"cyclotomic": 12}),
     "ValueError: power 4 not reduced for n=12"),
    (["groebner", "--in", "BAD"], _system("1", field={"cyclotomic": 12, "x": 1}),
     "ValueError: unknown field tag {'cyclotomic': 12, 'x': 1}"),
    (["groebner", "--in", "BAD"], _system("1").replace('"x1"', '"x0"'),
     "ValueError: duplicate variable names"),
    (["groebner", "--in", "BAD"], _system("1").replace('"polysystem"', '"basis"'),
     "ValueError: not a polysystem file"),
    (["solve", "--in", "BAD", "--system", "SYS"],
     _reduced_basis(_X2_MINUS_Y, [("1", [2, 0])]),
     "ValueError: basis element 0 is reducible by the others"),
    (["solve", "--in", "BAD", "--system", "SYS"],
     _reduced_basis(_X2_MINUS_Y, [("1", [1, 1]), ("-1", [0, 0])]),
     "ValueError: basis is not a Groebner basis"),
    (["solve", "--in", "BAD", "--system", "SYS"],
     _reduced_basis([("2", [1, 0])]), "ValueError: basis element 0 is not monic"),
    (["solve", "--in", "BAD", "--system", "SYS"],
     _reduced_basis([("1", [1, 0])]).replace("true", "1"),
     "ValueError: reduced flag 1 is not a bool"),
    (["solve", "--in", "BAD", "--system", "SYS"],
     _reduced_basis([("1", [1, 0])]).replace("true", "false"),
     "ValueError: reduced flag is false: not a reduced basis"),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis([("1", [1, 0])], pair_count="many"),
     "TypeError: "),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis([("1", [1, 0])], pair_count=1.5),
     "TypeError: "),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis([("1", [1, 0])], pair_count=None),
     "TypeError: "),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis([("1", [1, 0])], pair_count=-4),
     "ValueError: pair count -4 is negative"),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis([("1", [1, 0])], zero_dimensional=True),
     "ValueError: recorded zero_dimensional True is not False"),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis(*_X_Y, zero_dimensional=True, quotient_dimension=5),
     "ValueError: recorded quotient_dimension 5 is not 1"),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis(*_X_Y, zero_dimensional=True, quotient_dimension=1.0),
     "ValueError: recorded quotient_dimension 1.0 is not 1"),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis(*_X_Y, zero_dimensional=True, quotient_dimension=True),
     "ValueError: recorded quotient_dimension True is not 1"),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis(*_X_Y, zero_dimensional=1, quotient_dimension=1),
     "ValueError: recorded zero_dimensional 1 is not True"),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis([("1", [1, 0])]).replace(', "quotient_dimension": null',
                                            ""),
     "KeyError: 'quotient_dimension'"),
    # JSON true is no number: each reader refuses it rather than take 1
    (["verify", "--in", "BAD"], '{"format": "solutions", "precision": 256, '
     '"tolerances": {}, "points": [], "d": true}', _BOOL),
    (["groebner", "--in", "BAD"],
     _system("1 @ n=12", field={"cyclotomic": True}), _BOOL),
    (["solve", "--in", "BAD", "--system", "SYS", "--force"],
     _reduced_basis([("1", [1, 0])], pair_count=True), _BOOL),
    (["groebner", "--in", "BAD"], _system("1", exps=(True, False, 0, 0)),
     _BOOL),
    (["groebner", "--in", "BAD"], _system("1", d=True), _BOOL),
    (["groebner", "--in", "BAD"],
     _system("1").replace('"n_lines": 4', '"n_lines": true'), _BOOL),
    (["gram", "--in", "BAD", "--d", "1"], '{"signs": [[0, true], [true, 0]]}',
     _BOOL),
    (["verify", "--in", "BAD"], '{"format": "solutions", "precision": true}',
     _BOOL),
    (["verify", "--in", "BAD"], _bad_tolerance("residual", True),
     "TypeError: tolerance residual is a bool, not a number"),
    (["verify", "--in", "BAD"], _tolerances({}),
     "ValueError: tolerances not recorded: residual, cluster, realness, "
     "match"),
    (["overlaps", "--in", "BAD", "--index", "0"],
     _tolerances({"residual": "1e-10", "cluster": "1e-25", "match": "1e-10"}),
     "ValueError: tolerances not recorded: realness"),
    (["verify", "--in", "BAD"], _solutions_of_kind(["wh_fiducial"]),
     "ValueError: unknown system kind ['wh_fiducial']"),
    (["overlaps", "--in", "BAD", "--index", "0"], _solutions_of_kind("wh"),
     "ValueError: unknown system kind 'wh'"),
], ids=["groebner", "groebner-list", "groebner-not-json", "solve-system",
        "solve-basis", "verify", "overlaps-in", "overlaps-vector", "gram",
        "gen-real", "groebner-zero-denominator",
        "groebner-cyclo-zero-denominator", "groebner-float-exponent",
        "groebner-float-conductor", "gram-float-sign", "groebner-float-d",
        "verify-float-d", "verify-float-precision", "verify-short-coords",
        "overlaps-short-coords", "verify-low-precision",
        "verify-negative-tolerance", "overlaps-nan-tolerance",
        "groebner-conductor-mismatch", "groebner-deep-json",
        "groebner-no-conductor", "groebner-bad-cyclo-term",
        "groebner-unreduced-power", "groebner-unknown-field",
        "groebner-duplicate-vars", "groebner-not-a-system",
        "solve-basis-unreduced", "solve-basis-not-groebner",
        "solve-basis-not-monic", "solve-basis-reduced-not-bool",
        "solve-basis-reduced-false",
        "solve-basis-pair-count-str", "solve-basis-pair-count-float",
        "solve-basis-pair-count-null", "solve-basis-pair-count-negative",
        "solve-basis-not-zero-dimensional", "solve-basis-wrong-dimension",
        "solve-basis-float-dimension", "solve-basis-bool-dimension",
        "solve-basis-int-zero-dimensional", "solve-basis-no-dimension",
        "verify-bool-d", "groebner-bool-conductor",
        "solve-basis-bool-pair-count", "groebner-bool-exponent",
        "groebner-bool-d", "groebner-bool-n-lines", "gram-bool-sign",
        "verify-bool-precision", "verify-bool-tolerance",
        "verify-no-tolerances", "overlaps-missing-tolerance",
        "verify-list-kind", "overlaps-unknown-kind"])
def test_malformed_input_file(argv, content, cause, d2_files, tmp_path,
                              capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    paths = {"BAD": str(bad), "SYS": str(d2_files[0]),
             "BASIS": str(d2_files[1])}
    argv = [paths.get(a, a) for a in argv]
    capsys.readouterr()
    rc = main(argv + ["--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad} is not a valid input file; "
                          f"caused by {cause}")
    assert "Traceback" not in err


def test_parser_built_once_and_parsing_leaves_no_cyclic_garbage():
    assert _build_parser() is _build_parser()
    argv = ["solve", "--in", "basis.json", "--system", "sys.json"]
    _build_parser().parse_args(argv)
    gc.collect()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert args.inp == "basis.json"


def test_parser_reuse_keeps_no_option_of_an_earlier_call(d2_files, tmp_path):
    # one parser serves every call: an option given once must not stick
    sp, bp = d2_files
    first, second = tmp_path / "sols1.json", tmp_path / "sols2.json"
    assert main(["solve", "--in", str(bp), "--system", str(sp),
                 "--tol-realness", "1e-5", "--out", str(first)]) == 0
    assert main(["solve", "--in", str(bp), "--system", str(sp),
                 "--out", str(second)]) == 0
    assert _read(first)["tolerances"]["realness"] == "1e-05"
    assert _read(second)["tolerances"]["realness"] == "1e-20"

    (tmp_path / "t8.json").write_text(json.dumps({"signs": _t8_signs()}))
    hexagon, t8 = tmp_path / "gram_hex.json", tmp_path / "gram_t8.json"
    assert main(["gram", "--preset", "hexagon", "--d", "2",
                 "--out", str(hexagon)]) == 0
    assert main(["gram", "--in", str(tmp_path / "t8.json"), "--d", "7",
                 "--out", str(t8)]) == 0
    assert _read(hexagon)["source"] == {"preset": "hexagon"}
    assert set(_read(t8)["source"]) == {"input_hash"}


def test_subcommand_options_in_order():
    # the order is the order of the --help listing
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: [s for a in p._actions for s in a.option_strings]
            for name, p in sub.choices.items()} == {
        "gen": ["-h", "--help", "--kind", "--d", "--n", "--alpha", "--preset",
                "--in", "--no-phase-fix", "--out", "--format"],
        "groebner": ["-h", "--help", "--in", "--order", "--pair-budget",
                     "--out", "--format"],
        "solve": ["-h", "--help", "--in", "--system", "--tol-residual",
                  "--tol-cluster", "--tol-realness", "--tol-match",
                  "--out", "--format", "--force", "--precision"],
        "verify": ["-h", "--help", "--in", "--system", "--tol", "--out",
                   "--format", "--force", "--precision"],
        "overlaps": ["-h", "--help", "--in", "--index", "--vector", "--zauner",
                     "--tol", "--out", "--format", "--precision"],
        "gram": ["-h", "--help", "--preset", "--in", "--d", "--tol", "--out",
                 "--format", "--precision"],
    }


def _summary_out(line, fmt):
    """The ``out`` field of a one-line summary; in text form it must be
    the last field (the JSON form sorts its keys)."""
    if fmt == "json":
        return json.loads(line)["out"]
    key, _, value = line.split(" ")[-1].partition("=")
    assert key == "out"
    return value


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_every_summary_names_the_file_written(fmt, tmp_path, monkeypatch,
                                              capsys):
    # without --out each command writes its default name here
    monkeypatch.chdir(tmp_path)
    sols = "solutions_wh_fiducial_d2.json"
    chain = [
        (["gen", "--d", "2"], "wh_d2.json"),
        (["groebner", "--in", "wh_d2.json"], "basis_wh_fiducial_d2.json"),
        (["solve", "--in", "basis_wh_fiducial_d2.json",
          "--system", "wh_d2.json"], sols),
        (["verify", "--in", sols], "verify_report.json"),
        (["overlaps", "--zauner", "1"], "overlap_report.json"),
        (["gram", "--preset", "hexagon", "--d", "2"], "gram_report.json"),
    ]
    for argv, name in chain:
        capsys.readouterr()
        assert main(argv + ["--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert _summary_out(lines[0], fmt) == name
        assert (tmp_path / name).is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for _, name in chain)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["verify", "overlaps"])
def test_failed_check_exits_4_after_its_report(command, fmt, d2_sols,
                                                tmp_path, capsys):
    bad = tmp_path / "bad.json"
    if command == "verify":
        doc = _read(d2_sols)
        real = next(p for p in doc["points"] if p["tags"]["real"])
        real["coords"][0][0] = "0.9"
        bad.write_text(json.dumps(doc))
        argv, ok_key = ["verify", "--in", str(bad)], "all_ok"
    else:
        bad.write_text(json.dumps([["1", "0"]] + [["0", "0"]] * 3))
        argv, ok_key = ["overlaps", "--vector", str(bad)], "ok"
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out), "--format", fmt]) == 4
    line = capsys.readouterr().out.strip()
    assert _summary_out(line, fmt) == str(out)
    if fmt == "json":
        assert json.loads(line)["ok"] is False
    else:
        assert "ok=False" in line.split(" ")
    assert _read(out)[ok_key] is False


@pytest.mark.parametrize("command", ["groebner", "solve"])
def test_system_kind_cannot_name_a_path(command, d2_files, tmp_path,
                                        monkeypatch, capsys):
    # the default output name is built from the kind, so a kind that
    # climbs the tree would write outside the working directory
    sp, bp = d2_files
    doc = _read(sp)
    doc["kind"] = "x/../../../escaped"
    work = tmp_path / "a" / "b" / "work"
    work.mkdir(parents=True)
    evil = work / "evil.json"
    evil.write_text(json.dumps(doc))
    monkeypatch.chdir(work)
    argv = {"groebner": ["groebner", "--in", "evil.json"],
            "solve": ["solve", "--in", str(bp), "--system", "evil.json",
                      "--force"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(
        "caused by ValueError: unknown system kind 'x/../../../escaped'\n")
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == [evil]
    assert list(work.iterdir()) == [evil]


@pytest.mark.parametrize("argv, message", [
    (["overlaps", "--zauner", "1", "--index", "5"],
     "--index is read only with --in"),
    (["gen", "--kind", "wh", "--d", "2", "--preset", "hexagon",
      "--alpha", "1/3", "--n", "7"],
     "--kind wh does not read --n, --alpha, --preset"),
    (["gen", "--kind", "complex-full", "--d", "1", "--no-phase-fix"],
     "--kind complex-full does not read --no-phase-fix"),
    (["gen", "--kind", "real", "--d", "2", "--n", "3", "--no-phase-fix"],
     "--kind real does not read --no-phase-fix"),
    # an option given at its old default value is given all the same
    (["gen", "--kind", "wh", "--d", "2", "--n", "0", "--alpha", ""],
     "--kind wh does not read --n, --alpha"),
    (["gen", "--kind", "complex-full", "--d", "2", "--preset", "",
      "--in", ""], "--kind complex-full does not read --preset, --in"),
    (["overlaps", "--zauner", "1", "--index", "-1"],
     "--index is read only with --in"),
], ids=["overlaps-zauner-index", "gen-wh-real-options",
        "gen-complex-full-phase-fix", "gen-real-phase-fix",
        "gen-wh-default-values", "gen-complex-full-default-values",
        "overlaps-zauner-default-index"])
def test_option_the_source_does_not_read_rejected(argv, message, tmp_path,
                                                  capsys):
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["groebner", "solve"])
@pytest.mark.parametrize("change, cause", [
    ({"d": 0}, "d and n_lines must be positive"),
    ({"d": -2}, "d and n_lines must be positive"),
    ({"d": 3}, "a wh_fiducial system in d=3 has 6 variables and 9 lines, "
     "not 4 and 4"),
    ({"n_lines": 5}, "a wh_fiducial system in d=2 has 4 variables and "
     "4 lines, not 4 and 5"),
    ({"kind": "complex_full"}, "a complex_full system in d=2 has "
     "16 variables and 4 lines, not 4 and 4"),
    ({"kind": "real_lines"}, "a real_lines system in d=2 has 8 variables "
     "and 4 lines, not 4 and 4"),
], ids=["d-zero", "d-negative", "d-three", "n-lines", "complex-full",
        "real-lines"])
def test_system_shape_must_match_its_kind(command, change, cause, d2_files,
                                          tmp_path, monkeypatch, capsys):
    sp, bp = d2_files
    doc = _read(sp)
    doc.update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    argv = {"groebner": ["groebner", "--in", str(bad)],
            "solve": ["solve", "--in", str(bp), "--system", str(bad),
                      "--force"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad} is not a valid input file; "
        f"caused by ValueError: {cause}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("argv, message", [
    (["gram", "--preset", "hexagon", "--in", "SIGNS", "--d", "2"],
     "give --preset or --in, not both"),
    (["gen", "--kind", "real", "--d", "2", "--n", "3", "--preset", "hexagon",
      "--in", "SIGNS"], "give --preset or --in, not both"),
    (["overlaps", "--zauner", "1", "--vector", "MISSING"],
     "give one of --in, --vector and --zauner"),
    (["overlaps", "--zauner", "1", "--in", "SOLS", "--index", "0"],
     "give one of --in, --vector and --zauner"),
    (["overlaps", "--vector", "MISSING", "--in", "SOLS", "--index", "0"],
     "give one of --in, --vector and --zauner"),
    # an empty path or a zero is a source given all the same
    (["gram", "--d", "2", "--preset", "hexagon", "--in", ""],
     "give --preset or --in, not both"),
    (["gen", "--kind", "real", "--d", "2", "--n", "3", "--preset", "",
      "--in", "SIGNS"], "give --preset or --in, not both"),
    (["overlaps", "--zauner", "0", "--vector", "MISSING"],
     "give one of --in, --vector and --zauner"),
    (["overlaps", "--zauner", "1", "--in", "", "--index", "0"],
     "give one of --in, --vector and --zauner"),
], ids=["gram", "gen-real", "overlaps-zauner-vector", "overlaps-zauner-in",
        "overlaps-vector-in", "gram-empty-in", "gen-real-empty-preset",
        "overlaps-zauner-0-vector", "overlaps-zauner-empty-in"])
def test_conflicting_sources_rejected(argv, message, d2_sols, tmp_path,
                                      capsys):
    signs = tmp_path / "signs.json"
    signs.write_text(json.dumps({"signs": [[0, 1], [1, 0]]}))
    paths = {"SIGNS": str(signs), "SOLS": str(d2_sols),
             "MISSING": str(tmp_path / "missing.json")}
    out = tmp_path / "out.json"
    capsys.readouterr()
    rc = main([paths.get(a, a) for a in argv] + ["--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()

"""Command line pipeline: generate, groebner, solve, verify, overlaps, gram.

Every command reads JSON, writes JSON, and prints a one-line summary.
Output files are canonical (sorted keys, two-space indent, trailing
newline) so identical configurations produce byte-identical files.
Each file embeds the sha256 of its upstream input; downstream commands
refuse a mismatched chain unless --force is given. Timing is printed
to the console only, never written into files.

Exit codes: 0 success, 2 validation or configuration failure, 3 pair
budget exhaustion, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from . import groebner as gb_mod
from .groebner import (
    GroebnerBasis,
    PairBudgetExceeded,
    buchberger,
    grevlex_then_lex,
    is_zero_dimensional,
    quotient_dimension,
)
from .polyring import Poly, Ring
from .exact import field_from_json
from .sicgen import (
    PolySystem,
    gen_complex_full,
    gen_real_system,
    gen_wh_system,
)
from .solver import (
    SolutionSet,
    SolverError,
    Tolerances,
    _dps,
    _is_real_point,
    classify,
    match_zauner,
    solve_triangular,
    zauner_vectors,
)
from .verify import (
    SeidelSpec,
    VerificationError,
    gram_analysis,
    seidel_hexagon,
    seidel_icosahedron,
    spectral_reconstruct,
    verify_fiducial,
)

__all__ = ["RunConfig", "ConfigError", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

CACHE_ENV = "EQLINES_CACHE_DIR"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    kind: str = "wh"
    d: int = 2
    n: int = 0
    alpha: str = ""
    order: str = "lex"
    precision: int = 256
    tolerances: Tolerances = field(default_factory=Tolerances)
    pair_budget: int = 10**7
    max_points: int = 0
    tol: float = 1e-10
    index: int = -1
    preset: str = ""
    zauner_k: int = 0
    phase_fix: bool = True
    inp: str = ""
    system: str = ""
    vector: str = ""
    out: str = ""
    cache_dir: str = ""
    force: bool = False
    fmt: str = "text"

    def validate(self):
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if self.precision < 53:
            raise ConfigError("precision must be at least 53 bits")
        t = self.tolerances
        if min(t.residual, t.cluster, t.realness, t.match) <= 0:
            raise ConfigError("tolerances must be positive")
        if self.tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.pair_budget < 1:
            raise ConfigError("pair budget must be positive")
        return self


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------

def canonical_bytes(obj):
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def write_canonical(path, obj):
    data = canonical_bytes(obj)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def read_json(path):
    data = Path(path).read_bytes()
    return json.loads(data.decode()), hashlib.sha256(data).hexdigest()


def _check_chain(expected, actual, what, force):
    if expected != actual:
        if force:
            print(f"warning: {what} hash mismatch ignored by --force",
                  file=sys.stderr)
            return
        raise ConfigError(
            f"{what} does not match the hash recorded upstream; "
            "rerun the producing command or pass --force"
        )


def _summary(cfg, fields):
    if cfg.fmt == "json":
        print(json.dumps(dict(fields), sort_keys=True))
    else:
        print(" ".join(f"{k}={v}" for k, v in fields))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _parse_alpha(text):
    if not text:
        return None
    return Fraction(text)


def cmd_gen(cfg):
    if cfg.kind == "wh":
        system = gen_wh_system(cfg.d, phase_fix=cfg.phase_fix)
    elif cfg.kind == "complex-full":
        system = gen_complex_full(cfg.d)
    elif cfg.kind == "real":
        if cfg.n < 2:
            raise ConfigError("real systems need --n of at least 2")
        signs = None
        if cfg.preset:
            signs = _seidel_preset(cfg.preset).signs
        elif cfg.inp:
            obj, _ = read_json(cfg.inp)
            signs = SeidelSpec.from_json(obj).signs
        system = gen_real_system(
            cfg.d, cfg.n, alpha=_parse_alpha(cfg.alpha), signs=signs
        )
    else:
        raise ConfigError(f"unknown kind {cfg.kind!r}")
    out = cfg.out or f"{cfg.kind.replace('-', '_')}_d{cfg.d}.json"
    write_canonical(out, system.to_json())
    _summary(cfg, [
        ("kind", system.kind),
        ("d", system.d),
        ("equations", len(system.equations)),
        ("field", system.ring.field.name),
        ("out", out),
    ])
    return EXIT_OK


def _cache_path(cfg, key):
    cache_dir = cfg.cache_dir or os.environ.get(CACHE_ENV, "")
    if not cache_dir:
        return None
    return Path(cache_dir) / f"{key}.json"


def basis_to_json(gb, input_hash):
    qdim = quotient_dimension(gb) if gb.reduced else None
    zero_dim = is_zero_dimensional(gb)
    return {
        "format": "basis",
        "input_hash": input_hash,
        "order": gb.order,
        "vars": list(gb.ring.vars),
        "field": gb.ring.field.to_json(),
        "reduced": gb.reduced,
        "pair_count": gb.pair_count,
        "basis": [p.terms_to_json() for p in gb.basis],
        "zero_dimensional": zero_dim,
        "quotient_dimension": qdim if zero_dim else None,
    }


def basis_from_json(obj):
    if obj.get("format") != "basis":
        raise ConfigError("input is not a basis file")
    ring = Ring(tuple(obj["vars"]), field_from_json(obj["field"]))
    basis = tuple(
        Poly.terms_from_json(t, ring) for t in obj["basis"]
    )
    return GroebnerBasis(
        ring=ring,
        order=obj["order"],
        basis=basis,
        reduced=obj["reduced"],
        pair_count=obj["pair_count"],
    )


def cmd_groebner(cfg):
    obj, input_hash = read_json(cfg.inp)
    system = PolySystem.from_json(obj)
    key = hashlib.sha256(
        f"{input_hash}:{cfg.order}:{cfg.pair_budget}".encode()
    ).hexdigest()
    out = cfg.out or f"basis_{system.kind}_d{system.d}.json"
    cached = _cache_path(cfg, key)
    t0 = time.monotonic()
    if cached is not None and cached.exists():
        data = cached.read_bytes()
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_bytes(data)
        doc = json.loads(data.decode())
        _summary(cfg, [
            ("cache", "hit"),
            ("basis_size", len(doc["basis"])),
            ("pair_count", doc["pair_count"]),
            ("zero_dimensional", doc["zero_dimensional"]),
            ("quotient_dimension", doc["quotient_dimension"]),
            ("out", out),
        ])
        return EXIT_OK
    try:
        if cfg.order == "grevlex_then_lex":
            gb = grevlex_then_lex(
                list(system.equations), pair_budget=cfg.pair_budget
            )
        elif cfg.order == "lex":
            gb = buchberger(
                list(system.equations), "lex", pair_budget=cfg.pair_budget
            )
        else:
            raise ConfigError(f"unknown order {cfg.order!r}")
    except PairBudgetExceeded as exc:
        doc = {
            "format": "basis_partial",
            "input_hash": input_hash,
            "order": cfg.order,
            "pair_budget": cfg.pair_budget,
            "pairs_processed": exc.pairs_processed,
            "partial_size": len(exc.partial),
        }
        write_canonical(out, doc)
        elapsed = time.monotonic() - t0
        print(
            f"pair budget {cfg.pair_budget} exhausted after "
            f"{exc.pairs_processed} pairs ({elapsed:.1f}s); "
            f"partial basis of {len(exc.partial)} elements not usable "
            f"downstream; report written to {out}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    elapsed = time.monotonic() - t0
    doc = basis_to_json(gb, input_hash)
    data = canonical_bytes(doc)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_bytes(data)
    if cached is not None:
        cached.parent.mkdir(parents=True, exist_ok=True)
        cached.write_bytes(data)
    _summary(cfg, [
        ("basis_size", len(gb.basis)),
        ("pair_count", gb.pair_count),
        ("zero_dimensional", doc["zero_dimensional"]),
        ("quotient_dimension", doc["quotient_dimension"]),
        ("elapsed", f"{elapsed:.2f}s"),
        ("out", out),
    ])
    return EXIT_OK


def cmd_solve(cfg):
    basis_obj, basis_hash = read_json(cfg.inp)
    if basis_obj.get("format") == "basis_partial":
        raise ConfigError(
            "basis file records a pair-budget failure; nothing to solve"
        )
    gb = basis_from_json(basis_obj)
    sys_obj, system_hash = read_json(cfg.system)
    system = PolySystem.from_json(sys_obj)
    _check_chain(
        basis_obj.get("input_hash"), system_hash,
        "system file", cfg.force,
    )
    tol = cfg.tolerances
    t0 = time.monotonic()
    sols = solve_triangular(
        gb,
        list(system.equations),
        precision=cfg.precision,
        tol=tol,
        max_points=cfg.max_points or None,
    )
    if system.kind == "wh_fiducial":
        classify(sols, system.d)
        if system.d == 4:
            match_zauner(sols)
    else:
        with mpmath.workprec(cfg.precision):
            for p in sols.points:
                p.tags["real"] = _is_real_point(p.coords, tol.realness)
    elapsed = time.monotonic() - t0
    doc = sols.to_json()
    doc["input_hash"] = basis_hash
    doc["system_hash"] = system_hash
    doc["d"] = system.d
    doc["kind"] = system.kind
    out = cfg.out or f"solutions_{system.kind}_d{system.d}.json"
    write_canonical(out, doc)
    counts = sols.counts()
    fields = [(k, v) for k, v in counts.items() if v is not None]
    fields.append(("elapsed", f"{elapsed:.2f}s"))
    fields.append(("out", out))
    _summary(cfg, fields)
    return EXIT_OK


def cmd_verify(cfg):
    sol_obj, sol_hash = read_json(cfg.inp)
    sols = SolutionSet.from_json(sol_obj)
    if cfg.system:
        _, system_hash = read_json(cfg.system)
        _check_chain(
            sol_obj.get("system_hash"), system_hash,
            "system file", cfg.force,
        )
    d = sol_obj.get("d")
    if d is None:
        raise ConfigError("solutions file does not record the dimension")
    per_point = []
    worst = mpmath.mpf(0)
    all_ok = True
    with mpmath.workprec(cfg.precision):
        for i, p in enumerate(sols.points):
            if not p.tags.get("real"):
                per_point.append(
                    {"index": i, "checked": False, "ok": None,
                     "max_dev": None}
                )
                continue
            v = [
                mpmath.mpc(p.coords[k].real, p.coords[d + k].real)
                for k in range(d)
            ]
            res = verify_fiducial(v, tol=cfg.tol, precision=cfg.precision)
            worst = max(worst, res["max_dev"])
            all_ok = all_ok and res["ok"]
            per_point.append(
                {
                    "index": i,
                    "checked": True,
                    "ok": res["ok"],
                    "max_dev": mpmath.nstr(res["max_dev"], 8),
                }
            )
    n_checked = sum(1 for e in per_point if e["checked"])
    doc = {
        "format": "verify_report",
        "input_hash": sol_hash,
        "tolerance": repr(cfg.tol),
        "n_points": len(sols.points),
        "n_checked": n_checked,
        "all_ok": all_ok,
        "worst_max_dev": mpmath.nstr(worst, 8),
        "per_point": per_point,
    }
    out = cfg.out or "verify_report.json"
    write_canonical(out, doc)
    _summary(cfg, [
        ("checked", n_checked),
        ("ok", all_ok),
        ("worst_max_dev", mpmath.nstr(worst, 8)),
        ("out", out),
    ])
    return EXIT_OK if all_ok else EXIT_VERIFY


def _load_vector(cfg):
    if cfg.zauner_k:
        if cfg.zauner_k not in (1, 3, 5, 7):
            raise ConfigError("--zauner takes 1, 3, 5 or 7")
        vecs = dict(zip((1, 3, 5, 7), zauner_vectors(cfg.precision)))
        return vecs[cfg.zauner_k], {"zauner_k": cfg.zauner_k}, None
    if cfg.vector:
        obj, h = read_json(cfg.vector)
        with mpmath.workprec(cfg.precision):
            v = [mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)) for re, im in obj]
        return v, {"vector_file": os.path.basename(cfg.vector)}, None
    if cfg.inp:
        sol_obj, sol_hash = read_json(cfg.inp)
        sols = SolutionSet.from_json(sol_obj)
        d = sol_obj.get("d")
        if d is None:
            raise ConfigError("solutions file does not record the dimension")
        if not 0 <= cfg.index < len(sols.points):
            raise ConfigError("--index out of range")
        p = sols.points[cfg.index]
        with mpmath.workprec(cfg.precision):
            v = [
                mpmath.mpc(p.coords[k].real, p.coords[d + k].real)
                for k in range(d)
            ]
        return v, {"index": cfg.index}, sol_hash
    raise ConfigError("overlaps needs --in with --index, --vector or --zauner")


def cmd_overlaps(cfg):
    v, source, upstream = _load_vector(cfg)
    res = verify_fiducial(v, tol=cfg.tol, precision=cfg.precision)
    doc = {
        "format": "overlap_report",
        "source": source,
        "ok": res["ok"],
        "max_dev": mpmath.nstr(res["max_dev"], 8),
        "report": res["report"].to_json(),
    }
    if upstream:
        doc["input_hash"] = upstream
    out = cfg.out or "overlap_report.json"
    write_canonical(out, doc)
    worst_mod = max(
        (e["modulus_error"] for e in res["report"].entries.values()),
        default=mpmath.mpf(0),
    )
    _summary(cfg, [
        ("ok", res["ok"]),
        ("max_dev", mpmath.nstr(res["max_dev"], 8)),
        ("worst_modulus_error", mpmath.nstr(worst_mod, 8)),
        ("out", out),
    ])
    return EXIT_OK if res["ok"] else EXIT_VERIFY


def _seidel_preset(name):
    presets = {"hexagon": seidel_hexagon, "icosahedron": seidel_icosahedron}
    if name not in presets:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(presets)}"
        )
    return presets[name]()


def cmd_gram(cfg):
    if cfg.preset:
        spec = _seidel_preset(cfg.preset)
        source = {"preset": cfg.preset}
    elif cfg.inp:
        obj, h = read_json(cfg.inp)
        spec = SeidelSpec.from_json(obj)
        source = {"input_hash": h}
    else:
        raise ConfigError("gram needs --preset or --in")
    res = gram_analysis(spec, cfg.d, precision=cfg.precision, tol=cfg.tol)
    dps = _dps(cfg.precision)
    spectral = []
    for a in res["admissible_alphas"]:
        g = np.eye(spec.N) + float(a) * np.array(spec.signs, dtype=float)
        try:
            sr = spectral_reconstruct(g, cfg.d, tol=max(cfg.tol, 1e-9))
            spectral.append({"ok": True, "recon_error": repr(sr["recon_error"])})
        except VerificationError as exc:
            spectral.append({"ok": False, "error": str(exc)})
    doc = {
        "format": "gram_report",
        "source": source,
        "N": spec.N,
        "d": cfg.d,
        "signs": [list(r) for r in spec.signs],
        "det_poly": str(res["det_poly"]),
        "det_poly_terms": res["det_poly"].terms_to_json(),
        "admissible_alphas": [mpmath.nstr(a, dps) for a in res["admissible_alphas"]],
        "multiplicities": res["multiplicities"],
        "odd_integer_flags": res["odd_integer_flags"],
        "spectral": spectral,
    }
    out = cfg.out or "gram_report.json"
    write_canonical(out, doc)
    _summary(cfg, [
        ("N", spec.N),
        ("d", cfg.d),
        ("admissible", ",".join(mpmath.nstr(a, 8) for a in res["admissible_alphas"]) or "-"),
        ("out", out),
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="eqlines",
        description="Generate, solve and verify equiangular-line systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="", help="output file path")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text", help="console summary style")
        p.add_argument("--force", action="store_true",
                       help="ignore upstream hash mismatches")
        p.add_argument("--precision", type=int, default=256,
                       help="working precision in bits")

    p = sub.add_parser("gen", help="generate a polynomial system")
    p.add_argument("--kind", choices=("complex-full", "wh", "real"),
                   default="wh")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=0,
                   help="number of lines (real kind)")
    p.add_argument("--alpha", default="",
                   help="rational angle value for the real kind, e.g. 1/2")
    p.add_argument("--preset", default="",
                   help="sign preset for the real kind")
    p.add_argument("--in", dest="inp", default="",
                   help="sign matrix JSON for the real kind")
    p.add_argument("--no-phase-fix", action="store_true",
                   help="omit the linear phase-fixing equation (wh kind)")
    common(p)

    p = sub.add_parser("groebner", help="compute a reduced lex basis")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--order", choices=("lex", "grevlex_then_lex"),
                   default="lex")
    p.add_argument("--pair-budget", type=int, default=10**7)
    p.add_argument("--cache-dir", default="",
                   help=f"cache directory (or set {CACHE_ENV})")
    common(p)

    p = sub.add_parser("solve", help="solve a zero-dimensional basis")
    p.add_argument("--in", dest="inp", required=True, help="basis file")
    p.add_argument("--system", required=True,
                   help="originating system file for residual checks")
    p.add_argument("--tol-residual", type=float, default=1e-10)
    p.add_argument("--tol-cluster", type=float, default=1e-25)
    p.add_argument("--tol-realness", type=float, default=1e-20)
    p.add_argument("--tol-match", type=float, default=1e-10)
    p.add_argument("--max-points", type=int, default=0,
                   help="branch cap; 0 means ten times the quotient dimension")
    common(p)

    p = sub.add_parser("verify", help="verify solutions as fiducials")
    p.add_argument("--in", dest="inp", required=True, help="solutions file")
    p.add_argument("--system", default="",
                   help="system file to revalidate the chain")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("overlaps", help="normalized overlap report")
    p.add_argument("--in", dest="inp", default="", help="solutions file")
    p.add_argument("--index", type=int, default=-1,
                   help="solution index within --in")
    p.add_argument("--vector", default="",
                   help="JSON file with [[re, im], ...] coordinates")
    p.add_argument("--zauner", dest="zauner_k", type=int, default=0,
                   help="use the closed-form d=4 fiducial k in {1,3,5,7}")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("gram", help="symbolic Gram analysis of a sign pattern")
    p.add_argument("--preset", default="",
                   help="hexagon or icosahedron")
    p.add_argument("--in", dest="inp", default="",
                   help="JSON file with a signs matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    return ap


def config_from_args(argv):
    args = _build_parser().parse_args(argv)
    kw = dict(
        command=args.command,
        out=args.out,
        fmt=args.fmt,
        force=args.force,
        precision=args.precision,
    )
    if args.command == "gen":
        kw.update(
            kind=args.kind, d=args.d, n=args.n, alpha=args.alpha,
            preset=args.preset, inp=args.inp,
            phase_fix=not args.no_phase_fix,
        )
    elif args.command == "groebner":
        kw.update(
            inp=args.inp, order=args.order, pair_budget=args.pair_budget,
            cache_dir=args.cache_dir,
        )
    elif args.command == "solve":
        kw.update(
            inp=args.inp, system=args.system, max_points=args.max_points,
            tolerances=Tolerances(
                residual=args.tol_residual,
                cluster=args.tol_cluster,
                realness=args.tol_realness,
                match=args.tol_match,
            ),
        )
    elif args.command == "verify":
        kw.update(inp=args.inp, system=args.system, tol=args.tol)
    elif args.command == "overlaps":
        kw.update(
            inp=args.inp, index=args.index, vector=args.vector,
            zauner_k=args.zauner_k, tol=args.tol,
        )
    elif args.command == "gram":
        kw.update(preset=args.preset, inp=args.inp, d=args.d, tol=args.tol)
    return RunConfig(**kw).validate()


_DISPATCH = {
    "gen": cmd_gen,
    "groebner": cmd_groebner,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "overlaps": cmd_overlaps,
    "gram": cmd_gram,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = config_from_args(argv)
        return _DISPATCH[cfg.command](cfg)
    except PairBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, VerificationError, SolverError, ValueError) as exc:
        tb = exc.__traceback__
        ctx = ""
        while tb is not None:
            ctx = f" [{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}]"
            tb = tb.tb_next
        print(f"error: {exc}{ctx}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

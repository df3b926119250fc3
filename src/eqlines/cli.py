"""Command line pipeline: generate, groebner, solve, verify, overlaps, gram.

Every command reads JSON, writes one JSON file, and prints a one-line
summary whose ``out`` field names that file, also when it exits 3 or 4;
``_emit`` does both and is the only code that writes a file.
Output files are canonical (sorted keys, two-space indent, trailing
newline) so identical configurations produce byte-identical files.
Each file embeds the SHA-256 of the bytes of its upstream input;
downstream commands refuse a mismatched chain unless --force is given.
The hash is CPython's builtin SHA-256, not hashlib's, so no command
loads OpenSSL. Timing is printed to the console only, never written
into files.

Exit codes: 0 success, 2 validation or configuration failure (a
malformed input file and a path that cannot be opened included), 3
pair budget exhaustion, 4 verification failure.

File formats and checks live in the layers: ``PolySystem``,
``GroebnerBasis``, ``SolutionSet`` and ``SeidelSpec`` read and write
their own files, a ``SolutionSet`` derives every point tag, and the
verifier runs every check. A command only parses options, reads files,
calls the layers and writes the reports.
Each command imports the layers it runs when it runs, so ``gen --kind
wh`` and ``groebner`` never load mpmath, the solver or the verifier.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        # an interpreter built without the builtin hash modules
        from hashlib import sha256

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    pass


def _check_args(args):
    """Reject out-of-range numeric options of the parsed command line.

    Only the options of the chosen subcommand are present in ``args``;
    a check whose option is absent is skipped."""
    opts = vars(args)
    if opts.get("d", 1) < 1:
        raise ConfigError("d must be at least 1")
    if opts.get("precision", 53) < 53:
        raise ConfigError("precision must be at least 53 bits")
    tols = [v for k, v in opts.items() if k.startswith("tol")]
    if any(not v > 0 for v in tols):
        raise ConfigError("tolerances must be positive")
    if any(math.isinf(v) for v in tols):
        raise ConfigError("tolerances must be finite")
    if opts.get("pair_budget", 1) < 1:
        raise ConfigError("pair budget must be positive")


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------

def read_json(path, parse=None):
    """Return the JSON document in ``path`` and the sha256 of its bytes.

    With ``parse``, the document is ``parse(obj)``. A file that does not
    decode (nested too deep included), or that the parser cannot read
    (a missing key, a value of the wrong type or shape, a zero
    denominator), raises ConfigError naming the file; a ConfigError from
    the parser itself passes through unchanged.
    """
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode())
        if parse is not None:
            doc = parse(doc)
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError,
            AttributeError, RecursionError) as exc:
        raise ConfigError(f"{path} is not a valid input file") from exc
    return doc, sha256(data).hexdigest()


def _check_chain(expected, actual, force):
    if expected != actual:
        if force:
            print("warning: system file hash mismatch ignored by --force",
                  file=sys.stderr)
            return
        raise ConfigError(
            "system file does not match the hash recorded upstream; "
            "rerun the producing command or pass --force"
        )


def _emit(args, default, doc, fields, code=EXIT_OK):
    """Finish a command: write ``doc`` as canonical JSON to ``--out``
    (``default`` when it is not given), print the summary ``fields``
    followed by ``out``, and return the exit ``code``."""
    out = default if args.out is None else args.out
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    try:
        Path(out).write_bytes(
            (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        )
    except OSError as exc:
        # a write that fails after the open (a full disk) names no file
        exc.filename = exc.filename or out
        raise
    fields = [*fields, ("out", out)]
    if args.fmt == "json":
        print(json.dumps(dict(fields), sort_keys=True))
    else:
        print(" ".join(f"{k}={v}" for k, v in fields))
    return code


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _parse_alpha(text):
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"--alpha {text!r} is not a rational number") from exc


def _seidel_spec(args):
    """The sign pattern named by --preset or read from --in, with its
    source for the report; (None, None) when neither is given."""
    from .sicgen import SeidelSpec, seidel_hexagon, seidel_icosahedron

    if args.preset is not None and args.inp is not None:
        raise ConfigError("give --preset or --in, not both")
    if args.preset is not None:
        presets = {"hexagon": seidel_hexagon, "icosahedron": seidel_icosahedron}
        if args.preset not in presets:
            raise ConfigError(
                f"unknown preset {args.preset!r}; choose from {sorted(presets)}"
            )
        return presets[args.preset](), {"preset": args.preset}
    if args.inp is not None:
        spec, h = read_json(args.inp, SeidelSpec.from_json)
        return spec, {"input_hash": h}
    return None, None


def cmd_gen(args):
    from .sicgen import gen_complex_full, gen_real_system, gen_wh_system

    given = {"--n": args.n, "--alpha": args.alpha, "--preset": args.preset,
             "--in": args.inp, "--no-phase-fix": None if args.phase_fix else True}
    reads = {"wh": ("--no-phase-fix",),
             "real": ("--n", "--alpha", "--preset", "--in")}.get(args.kind, ())
    unread = [o for o, v in given.items() if v is not None and o not in reads]
    if unread:
        raise ConfigError(f"--kind {args.kind} does not read {', '.join(unread)}")
    if args.kind == "wh":
        system = gen_wh_system(args.d, phase_fix=args.phase_fix)
    elif args.kind == "complex-full":
        system = gen_complex_full(args.d)
    else:  # "real"; argparse admits no other kind
        if args.n is None or args.n < 2:
            raise ConfigError("real systems need --n of at least 2")
        spec, _ = _seidel_spec(args)
        system = gen_real_system(
            args.d, args.n, alpha=_parse_alpha(args.alpha),
            signs=spec.signs if spec else None,
        )
    default = f"{args.kind.replace('-', '_')}_d{args.d}.json"
    return _emit(args, default, system.to_json(), [
        ("kind", system.kind),
        ("d", system.d),
        ("equations", len(system.equations)),
        ("field", system.ring.field.name),
    ])


def cmd_groebner(args):
    from .groebner import (
        DEFAULT_PAIR_BUDGET,
        PairBudgetExceeded,
        buchberger,
        grevlex_then_lex,
    )
    from .sicgen import PolySystem

    budget = getattr(args, "pair_budget", DEFAULT_PAIR_BUDGET)
    system, input_hash = read_json(args.inp, PolySystem.from_json)
    default = f"basis_{system.kind}_d{system.d}.json"
    t0 = time.monotonic()
    try:
        if args.order == "grevlex_then_lex":
            gb = grevlex_then_lex(list(system.equations), pair_budget=budget)
        else:  # "lex"; argparse admits no other order
            gb = buchberger(list(system.equations), "lex", pair_budget=budget)
    except PairBudgetExceeded as exc:
        elapsed = time.monotonic() - t0
        return _emit(args, default, {
            "format": "basis_partial",
            "input_hash": input_hash,
            "order": args.order,
            "pair_budget": budget,
            "pairs_processed": exc.pairs_processed,
            "partial_size": len(exc.partial),
        }, [
            ("pairs_processed", exc.pairs_processed),
            ("partial_size", len(exc.partial)),
            ("elapsed", f"{elapsed:.2f}s"),
        ], EXIT_BUDGET)
    elapsed = time.monotonic() - t0
    doc = gb.to_json()
    doc["input_hash"] = input_hash
    return _emit(args, default, doc, [
        ("basis_size", len(doc["basis"])),
        ("pair_count", doc["pair_count"]),
        ("zero_dimensional", doc["zero_dimensional"]),
        ("quotient_dimension", doc["quotient_dimension"]),
        ("elapsed", f"{elapsed:.2f}s"),
    ])


def cmd_solve(args):
    from dataclasses import replace

    from .groebner import GroebnerBasis
    from .sicgen import PolySystem
    from .solver import Tolerances, solve_triangular

    def parse_basis(obj):
        if obj.get("format") == "basis_partial":
            raise ConfigError(
                "basis file records a pair-budget failure; nothing to solve"
            )
        return obj.get("input_hash"), GroebnerBasis.from_json(obj)

    (recorded, gb), basis_hash = read_json(args.inp, parse_basis)
    system, system_hash = read_json(args.system, PolySystem.from_json)
    _check_chain(recorded, system_hash, args.force)
    tol = Tolerances(**{
        k[len("tol_"):]: v for k, v in vars(args).items() if k.startswith("tol_")
    })
    t0 = time.monotonic()
    sols = solve_triangular(
        gb,
        list(system.equations),
        precision=args.precision,
        tol=tol,
    )
    # only a wh_fiducial point holds a vector of C^d in 2d coordinates
    wh = system.kind == "wh_fiducial"
    sols = replace(sols, d=system.d if wh else None, kind=system.kind)
    elapsed = time.monotonic() - t0
    doc = sols.to_json()
    doc["input_hash"] = basis_hash
    doc["system_hash"] = system_hash
    return _emit(args, f"solutions_{system.kind}_d{system.d}.json", doc, [
        *((k, v) for k, v in sols.counts().items() if v is not None),
        ("elapsed", f"{elapsed:.2f}s"),
    ])


def _read_solutions(path):
    """The solutions file at ``path`` as (the system hash it records,
    SolutionSet), with the sha256 of its bytes; the file must record the
    dimension d, so that its points are vectors of C^d."""
    from .solver import SolutionSet

    def parse(obj):
        sols = SolutionSet.from_json(obj)
        if sols.d is None:
            raise ConfigError("solutions file does not record the dimension")
        return obj.get("system_hash"), sols

    return read_json(path, parse)


def cmd_verify(args):
    import mpmath

    from .sicgen import fiducial_from_coords
    from .verify import DEFAULT_TOL, verify_fiducial

    tol = getattr(args, "tol", DEFAULT_TOL)
    (recorded, sols), sol_hash = _read_solutions(args.inp)
    if args.system is not None:
        _, system_hash = read_json(args.system)
        _check_chain(recorded, system_hash, args.force)
    per_point = []
    worst = mpmath.mpf(0)
    with mpmath.workprec(args.precision):
        for i, p in enumerate(sols.points):
            entry = {"index": i, "checked": p.tags["real"],
                     "ok": None, "max_dev": None}
            if entry["checked"]:
                res = verify_fiducial(fiducial_from_coords(p.coords),
                                      tol=tol, precision=args.precision)
                worst = max(worst, res["max_dev"])
                entry["ok"] = res["ok"]
                entry["max_dev"] = mpmath.nstr(res["max_dev"], 8)
            per_point.append(entry)
    checked = [e for e in per_point if e["checked"]]
    all_ok = all(e["ok"] for e in checked)
    doc = {
        "format": "verify_report",
        "input_hash": sol_hash,
        "tolerance": repr(tol),
        "n_points": len(sols.points),
        "n_checked": len(checked),
        "all_ok": all_ok,
        "worst_max_dev": mpmath.nstr(worst, 8),
        "per_point": per_point,
    }
    return _emit(args, "verify_report.json", doc, [
        ("checked", len(checked)),
        ("ok", all_ok),
        ("worst_max_dev", mpmath.nstr(worst, 8)),
    ], EXIT_OK if all_ok else EXIT_VERIFY)


def _load_vector(args):
    import mpmath

    if sum(v is not None for v in (args.zauner_k, args.vector, args.inp)) > 1:
        raise ConfigError("give one of --in, --vector and --zauner")
    if args.index is not None and args.inp is None:
        raise ConfigError("--index is read only with --in")
    if args.zauner_k is not None:
        from .solver import zauner_vectors

        if args.zauner_k not in (1, 3, 5, 7):
            raise ConfigError("--zauner takes 1, 3, 5 or 7")
        vecs = dict(zip((1, 3, 5, 7), zauner_vectors(args.precision)))
        return vecs[args.zauner_k], {"zauner_k": args.zauner_k}, None
    if args.vector is not None:
        with mpmath.workprec(args.precision):
            v, _ = read_json(args.vector, lambda o: [
                mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)) for re, im in o
            ])
        return v, {"vector_file": os.path.basename(args.vector)}, None
    if args.inp is not None and args.index is not None:
        from .sicgen import fiducial_from_coords

        (_, sols), sol_hash = _read_solutions(args.inp)
        if not 0 <= args.index < len(sols.points):
            raise ConfigError("--index out of range")
        point = sols.points[args.index]
        if not point.tags["real"]:  # verify skips it too
            raise ConfigError(
                f"--index {args.index} names a point that is not real")
        with mpmath.workprec(args.precision):
            v = fiducial_from_coords(point.coords)
        return v, {"index": args.index}, sol_hash
    raise ConfigError("overlaps needs --in with --index, --vector or --zauner")


def cmd_overlaps(args):
    import mpmath

    from .verify import DEFAULT_TOL, verify_fiducial

    v, source, upstream = _load_vector(args)
    tol = getattr(args, "tol", DEFAULT_TOL)
    res = verify_fiducial(v, tol=tol, precision=args.precision)
    doc = {
        "format": "overlap_report",
        "source": source,
        "ok": res["ok"],
        "max_dev": mpmath.nstr(res["max_dev"], 8),
        "report": res["report"].to_json(),
    }
    if upstream:
        doc["input_hash"] = upstream
    worst_mod = max(
        (e["modulus_error"] for e in res["report"].entries.values()),
        default=mpmath.mpf(0),
    )
    return _emit(args, "overlap_report.json", doc, [
        ("ok", res["ok"]),
        ("max_dev", mpmath.nstr(res["max_dev"], 8)),
        ("worst_modulus_error", mpmath.nstr(worst_mod, 8)),
    ], EXIT_OK if res["ok"] else EXIT_VERIFY)


def cmd_gram(args):
    import mpmath

    from .solver import _dps
    from .verify import DEFAULT_TOL, gram_analysis, spectral_checks

    tol = getattr(args, "tol", DEFAULT_TOL)
    spec, source = _seidel_spec(args)
    if spec is None:
        raise ConfigError("gram needs --preset or --in")
    res = gram_analysis(spec, args.d, precision=args.precision)
    dps = _dps(args.precision)
    doc = {
        "format": "gram_report",
        "source": source,
        "N": spec.N,
        "d": args.d,
        **spec.to_json(),
        "det_poly": str(res["det_poly"]),
        "det_poly_terms": res["det_poly"].terms_to_json(),
        "admissible_alphas": [mpmath.nstr(a, dps) for a in res["admissible_alphas"]],
        "multiplicities": res["multiplicities"],
        "odd_integer_flags": res["odd_integer_flags"],
        "spectral": spectral_checks(spec, res["admissible_alphas"], args.d, tol),
    }
    return _emit(args, "gram_report.json", doc, [
        ("N", spec.N),
        ("d", args.d),
        ("admissible", ",".join(mpmath.nstr(a, 8) for a in res["admissible_alphas"]) or "-"),
    ])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argparse tree, built once; each subcommand's ``run`` default
    is the command that ``main`` dispatches to."""
    ap = argparse.ArgumentParser(
        prog="eqlines",
        description="Generate, solve and verify equiangular-line systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run, force=False, precision=False, tol=False):
        p.set_defaults(run=run)
        if tol:
            p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text", help="console summary style")
        if force:
            p.add_argument("--force", action="store_true",
                           help="ignore upstream hash mismatches")
        if precision:
            p.add_argument("--precision", type=int, default=256,
                           help="working precision in bits")

    p = sub.add_parser("gen", help="generate a polynomial system")
    p.add_argument("--kind", choices=("complex-full", "wh", "real"),
                   default="wh")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, help="number of lines (real kind)")
    p.add_argument("--alpha",
                   help="rational angle value for the real kind, e.g. 1/2")
    p.add_argument("--preset", help="sign preset for the real kind")
    p.add_argument("--in", dest="inp",
                   help="sign matrix JSON for the real kind")
    p.add_argument("--no-phase-fix", dest="phase_fix", action="store_false",
                   help="omit the linear phase-fixing equation (wh kind)")
    common(p, cmd_gen)

    p = sub.add_parser("groebner", help="compute a reduced lex basis")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--order", choices=("lex", "grevlex_then_lex"),
                   default="lex")
    p.add_argument("--pair-budget", type=int, default=argparse.SUPPRESS)
    common(p, cmd_groebner)

    p = sub.add_parser("solve", help="solve a zero-dimensional basis")
    p.add_argument("--in", dest="inp", required=True, help="basis file")
    p.add_argument("--system", required=True,
                   help="originating system file for residual checks")
    for name in ("residual", "cluster", "realness", "match"):
        p.add_argument(f"--tol-{name}", type=float, default=argparse.SUPPRESS)
    common(p, cmd_solve, force=True, precision=True)

    p = sub.add_parser("verify", help="verify solutions as fiducials")
    p.add_argument("--in", dest="inp", required=True, help="solutions file")
    p.add_argument("--system", help="system file to revalidate the chain")
    common(p, cmd_verify, force=True, precision=True, tol=True)

    p = sub.add_parser("overlaps", help="normalized overlap report")
    p.add_argument("--in", dest="inp", help="solutions file")
    p.add_argument("--index", type=int, help="solution index within --in")
    p.add_argument("--vector",
                   help="JSON file with [[re, im], ...] coordinates")
    p.add_argument("--zauner", dest="zauner_k", type=int,
                   help="use the closed-form d=4 fiducial k in {1,3,5,7}")
    common(p, cmd_overlaps, precision=True, tol=True)

    p = sub.add_parser("gram", help="symbolic Gram analysis of a sign pattern")
    p.add_argument("--preset", help="hexagon or icosahedron")
    p.add_argument("--in", dest="inp", help="JSON file with a signs matrix")
    p.add_argument("--d", type=int, required=True)
    common(p, cmd_gram, precision=True, tol=True)

    return ap


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        _check_args(args)
        return args.run(args)
    except (ValueError, ArithmeticError) as exc:
        # ConfigError, VerificationError and SolverError among them
        causes = []
        cause = exc.__cause__
        while cause is not None:
            causes.append(f"; caused by {type(cause).__name__}: {cause}")
            cause = cause.__cause__
        print(f"error: {exc}{''.join(causes)}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: cannot read or write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

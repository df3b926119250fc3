"""wh_chain: the paper's d=2 pipeline through the command line layer.

One instance runs ``eqlines gen --kind wh --d 2`` -> ``groebner`` ->
``solve`` -> ``verify`` and ``overlaps --zauner k`` (d=4) in process
through ``cli.main``. A round holds six instances; the seed shuffles
the working precisions (two each of 256, 512 and 1024 bits) and draws
each k from {1, 3, 5, 7}.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import mpmath

from eqlines import cli
from harness import Instance, InstanceFailed
import refs

NAME = "wh_chain"
WARM = [(4, (256, 512, 1024))]
PRECISIONS = (256, 256, 512, 512, 1024, 1024)
PAIR_BUDGET = 10_000
# paper / README table for d = 2
EXPECTED_COUNTS = {"total": 32, "real": 16, "real_up_to_sign": 8, "orbits": 2}

WORKDIR = None  # set by run.py to a scratch directory inside the checkout


def make_round(rng):
    precs = list(PRECISIONS)
    rng.shuffle(precs)
    return [
        Instance(f"d2@{p}", {"precision": p, "zauner": rng.choice((1, 3, 5, 7))})
        for p in precs
    ]


def _stage(tr, name, argv):
    with tr.span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    if rc != 0:
        raise InstanceFailed(f"{name} exit {rc}: {err.getvalue().strip()}")


def run(inst, tr):
    d = Path(tempfile.mkdtemp(dir=WORKDIR))
    p = str(inst.data["precision"])
    f = {k: str(d / f"{k}.json") for k in ("system", "basis", "solutions", "report", "overlaps")}
    tr.add("solver.expected", EXPECTED_COUNTS["total"])
    _stage(tr, "gen", ["gen", "--kind", "wh", "--d", "2", "--out", f["system"]])
    _stage(tr, "groebner", ["groebner", "--in", f["system"], "--order", "lex",
                            "--pair-budget", str(PAIR_BUDGET), "--out", f["basis"]])
    _stage(tr, "solve", ["solve", "--in", f["basis"], "--system", f["system"],
                         "--precision", p, "--out", f["solutions"]])
    _stage(tr, "verify", ["verify", "--in", f["solutions"], "--system", f["system"],
                          "--precision", p, "--out", f["report"]])
    _stage(tr, "overlaps", ["overlaps", "--zauner", str(inst.data["zauner"]),
                            "--precision", p, "--out", f["overlaps"]])
    return f


def check(inst, f, tr):
    docs = {k: json.loads(Path(v).read_text()) for k, v in f.items()}
    tr.add("cli.bytes_out", sum(Path(v).stat().st_size for v in f.values()))
    shutil.rmtree(Path(f["system"]).parent)
    problems = []
    tr.add("sicgen.equations", len(docs["system"]["equations"]))
    tr.add("groebner.pairs", docs["basis"]["pair_count"])
    tr.add("groebner.basis_size", len(docs["basis"]["basis"]))

    pts = docs["solutions"]["points"]
    tr.add("solver.points", len(pts))
    real = [q for q in pts if q["tags"].get("real")]
    counts = {
        "total": len(pts),
        "real": len(real),
        "real_up_to_sign": sum(1 for q in real if q["tags"].get("sign_canonical")),
        "orbits": len({q["tags"]["orbit_id"] for q in pts
                       if q["tags"].get("orbit_id") is not None}),
    }
    if counts != EXPECTED_COUNTS:
        problems.append(f"counts {counts} != {EXPECTED_COUNTS}")

    # every real point must be a d=2 fiducial by the overlap definition
    d = 2
    with mpmath.workprec(inst.data["precision"]):
        target = mpmath.mpf(1) / (d + 1)
        worst = mpmath.mpf(0)
        for q in real:
            c = [mpmath.mpf(re) for re, _ in q["coords"]]
            v = [mpmath.mpc(c[k], c[d + k]) for k in range(d)]
            norm2 = mpmath.fsum(abs(x) ** 2 for x in v)
            worst = max(worst, abs(norm2 - 1))
            for a in range(d):
                for b in range(d):
                    if (a, b) != (0, 0):
                        worst = max(worst, abs(refs.wh_overlap_sq(v, a, b) - target))
    if worst > mpmath.mpf("1e-30"):
        problems.append(f"real point off the fiducial conditions by {mpmath.nstr(worst, 5)}")

    rep = docs["report"]
    if not rep["all_ok"] or rep["n_checked"] != EXPECTED_COUNTS["real"]:
        problems.append(f"verify report all_ok={rep['all_ok']} checked={rep['n_checked']}")
    if not docs["overlaps"]["ok"]:
        problems.append("zauner overlaps not ok")
    return problems

"""Round loop, tracing and result assembly shared by every workload.

A workload module provides

    NAME            its name on the command line
    WARM            [(conductor, (precision, ...)), ...] cyclotomic caches
                    filled during set-up
    make_round(rng) list of Instance, built by the benchmark from the rng
    run(inst, tr)   the timed calls into the library; returns the output
    check(inst, out, tr)
                    compares the output with independent references and
                    returns a list of mismatches; runs untimed

Each run is a closed loop: one process, one instance in flight. The
seed fixes one round of instances; the round is rebuilt from the same
seed and repeated until the next repeat would overrun ``--seconds`` (at
least once; twice in a traced run, the first time untraced). The
instances of a round are what a run attempts, so ``attempted`` and
``failed`` depend on the seed alone, not on how many repeats fit.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import random
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import mpmath

from eqlines.groebner import PairBudgetExceeded
from eqlines.solver import SolverError
from eqlines.verify import VerificationError


@dataclass
class Instance:
    label: str
    data: dict = field(default_factory=dict)


class InstanceFailed(Exception):
    """The program declared a failure (non-zero exit, failed check it ran)."""


class RootRetryBudgetExceeded(Exception):
    """Root finding needed more precision retries than the budget allows."""


# Library exceptions that mean "the program gave up", as opposed to a
# wrong answer or a bug in the benchmark, which must not be swallowed.
DECLARED_FAILURES = (
    InstanceFailed,
    RootRetryBudgetExceeded,
    PairBudgetExceeded,
    SolverError,
    VerificationError,
)


@contextmanager
def root_retry_budget(retries):
    """Allow ``mpmath.polyroots`` to fail to converge ``retries`` times,
    then raise RootRetryBudgetExceeded from the next failure.

    The solver retries a non-converging root finding at higher precision
    several times over; a budget counted in retries, unlike one counted
    in seconds, gives the same outcome on every host and every run.
    """
    polyroots = mpmath.polyroots
    misses = 0

    def budgeted(*args, **kwargs):
        nonlocal misses
        try:
            return polyroots(*args, **kwargs)
        except mpmath.libmp.libhyper.NoConvergence as exc:
            misses += 1
            if misses > retries:
                raise RootRetryBudgetExceeded(
                    f"root finding did not converge after {retries} retries"
                ) from exc
            raise

    mpmath.polyroots = budgeted
    try:
        yield
    finally:
        mpmath.polyroots = polyroots


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, name, value):
        pass


class Tracer:
    """Spans around the benchmark's calls into each layer, plus counts.

    A span is (name, start, end, parent span, instance); spans stay in
    memory and are written out when the run ends.
    """

    def __init__(self):
        self.spans = []
        self.totals = {}
        self.counts = {}
        self.instance = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.totals[name] = self.totals.get(name, 0.0) + rec["end"] - rec["start"]

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Sample:
    index: int  # position in the round
    label: str
    seconds: float
    cpu: float
    status: str  # "ok", "failed" (declared by the program) or "wrong"
    reason: str = ""


@dataclass
class RunRecord:
    round_size: int = 0
    untraced_walls: list = field(default_factory=list)
    untraced_cpu: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    traced_samples: list = field(default_factory=list)

    def failed_instances(self, traced=True):
        """Positions in the round whose output failed in any repeat."""
        every = self.samples + (self.traced_samples if traced else [])
        return {s.index for s in every if s.status != "ok"}


def run_rounds(wl, seed, seconds, trace):
    """Repeat the seed's round of ``wl`` until the time budget; returns
    (record, tracer, profile)."""
    rec = RunRecord()
    tracer = Tracer() if trace else None
    profile = cProfile.Profile(builtins=False) if trace else None
    null = NullTracer()
    t_start = time.perf_counter()
    min_rounds = 2 if trace else 1
    last_round = 0.0
    r = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if r >= min_rounds and elapsed + last_round > seconds:
            break
        traced = trace and r > 0
        tr = tracer if traced else null
        t_round = time.perf_counter()
        # fresh objects each repeat, so no repeat reuses state of the last
        insts = wl.make_round(random.Random(f"{wl.NAME}:{seed}"))
        rec.round_size = len(insts)
        outs = []
        wall = cpu = 0.0
        for i, inst in enumerate(insts):
            if traced:
                tracer.instance = f"{r}.{i}"
                profile.enable()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out, err = wl.run(inst, tr), None
            except DECLARED_FAILURES as exc:
                out, err = None, f"{type(exc).__name__}: {exc}".strip()
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                if traced:
                    profile.disable()
            wall += t1 - t0
            cpu += c1 - c0
            outs.append((inst, out, err, t1 - t0, c1 - c0))
        for i, (inst, out, err, dt, dc) in enumerate(outs):
            if err is not None:
                sample = Sample(i, inst.label, dt, dc, "failed", err)
            else:
                problems = wl.check(inst, out, tr)
                sample = Sample(
                    i, inst.label, dt, dc, "wrong" if problems else "ok",
                    "; ".join(problems),
                )
            (rec.traced_samples if traced else rec.samples).append(sample)
        if traced:
            rec.traced_walls.append(wall)
        else:
            rec.untraced_walls.append(wall)
            rec.untraced_cpu.append(cpu)
        last_round = time.perf_counter() - t_round
        r += 1
    return rec, tracer, profile


def tail_percentile(values, min_beyond=10):
    """Highest whole percentile with at least ``min_beyond`` samples above it.

    Returns (percentile, value), or None when there are too few samples.
    """
    n = len(values)
    xs = sorted(values)
    for p in range(99, 49, -1):
        k = int(n * p / 100)  # samples strictly beyond index k - 1
        if n - k >= min_beyond and k >= 1:
            return p, xs[k - 1]
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from the traced rounds
# ---------------------------------------------------------------------------

def _src(module):
    return os.path.join("eqlines", module + ".py")


class ProfileView:
    """Call counts and times of library functions from cProfile stats."""

    def __init__(self, profile):
        self.raw = pstats.Stats(profile).stats if profile else {}

    def _match(self, suffix, func):
        for (fname, _, fn), entry in self.raw.items():
            if fname.endswith(suffix) and fn == func:
                yield entry

    def calls(self, module, func):
        return sum(e[1] for e in self._match(_src(module), func))

    def cumtime(self, module, func):
        return sum(e[3] for e in self._match(_src(module), func))

    def self_time(self, pred):
        return sum(e[2] for (fname, _, _), e in self.raw.items() if pred(fname))


def _time(tr, view, span, funcs):
    """Span total where the benchmark called the layer directly, else the
    cumulative cProfile time of the same public functions (reached
    through the command line layer)."""
    if span in tr.totals:
        return tr.totals[span]
    return sum(view.cumtime(m, f) for m, f in funcs)


def layer_metrics(rec, tr, profile):
    view = ProfileView(profile)
    rounds = len(rec.traced_walls)
    c = tr.counts
    per = lambda x: x / rounds

    basis_s = _time(tr, view, "groebner.basis", [("groebner", "buchberger")])
    pairs = c.get("groebner.pairs", 0)
    polyroots = sum(
        e[1] for (fname, _, fn), e in view.raw.items()
        if fn == "polyroots" and os.sep + "mpmath" + os.sep in fname
    )
    root_calls = view.calls("solver", "_roots_numeric")
    expected = c.get("solver.expected", 0)
    untraced = statistics.median(rec.untraced_walls)
    traced = statistics.median(rec.traced_walls)
    m = {
        "sicgen.gen_s": per(_time(tr, view, "sicgen.gen", [("sicgen", "gen_wh_system")])),
        "sicgen.equations": per(c.get("sicgen.equations", 0)),
        "groebner.basis_s": per(basis_s),
        "groebner.pairs": per(pairs),
        "groebner.basis_size": per(c.get("groebner.basis_size", 0)),
        "groebner.pairs_per_s": pairs / basis_s if basis_s else 0.0,
        "groebner.qdim_s": per(_time(tr, view, "groebner.qdim", [("groebner", "quotient_dimension")])),
        "groebner.budget_exhausted": per(c.get("groebner.budget_exhausted", 0)),
        "polyring.reduce_poly.calls": per(view.calls("polyring", "reduce_poly")),
        "polyring.reduce_poly_s": per(view.cumtime("polyring", "reduce_poly")),
        "polyring.s_polynomial.calls": per(view.calls("polyring", "s_polynomial")),
        "polyring.self_s": per(view.self_time(lambda f: f.endswith(_src("polyring")))),
        "exact.cyclo_mul.calls": per(view.calls("exact", "__mul__")),
        "exact.cyclo_inverse.calls": per(view.calls("exact", "inverse")),
        "exact.upoly_mul.calls": per(view.calls("exact", "upoly_mul")),
        "exact.upoly_divmod.calls": per(view.calls("exact", "upoly_divmod")),
        "exact.self_s": per(view.self_time(lambda f: f.endswith(_src("exact")))),
        "exact.fraction_s": per(view.self_time(lambda f: f.endswith(os.sep + "fractions.py"))),
        "solver.solve_s": per(_time(tr, view, "solver.solve", [("solver", "solve_triangular")])),
        "solver.points": per(c.get("solver.points", 0)),
        "solver.points_per_expected": c.get("solver.points", 0) / expected if expected else 0.0,
        "solver.root_calls": per(root_calls),
        "solver.root_retries": per(polyroots - root_calls),
        "solver.classify_s": per(_time(tr, view, "solver.classify", [("solver", "classify")])),
        "solver.zauner_s": per(_time(tr, view, "solver.zauner", [("solver", "zauner_vectors"), ("solver", "match_zauner")])),
        "mpmath.self_s": per(view.self_time(lambda f: os.sep + "mpmath" + os.sep in f)),
        "verify.fiducial_s": per(_time(tr, view, "verify.fiducial", [("verify", "verify_fiducial")])),
        "verify.gram_s": per(_time(tr, view, "verify.gram", [("verify", "gram_analysis")])),
        "verify.spectral_s": per(_time(tr, view, "verify.spectral", [("verify", "spectral_reconstruct")])),
        "verify.real_s": per(_time(tr, view, "verify.real", [("verify", "verify_equiangular_real")])),
        "cli.gen_s": per(tr.totals.get("cli.gen", 0.0)),
        "cli.groebner_s": per(tr.totals.get("cli.groebner", 0.0)),
        "cli.solve_s": per(tr.totals.get("cli.solve", 0.0)),
        "cli.verify_s": per(tr.totals.get("cli.verify", 0.0)),
        "cli.overlaps_s": per(tr.totals.get("cli.overlaps", 0.0)),
        "cli.bytes_out": per(c.get("cli.bytes_out", 0)),
        "trace.overhead_frac": traced / untraced,
    }
    return m

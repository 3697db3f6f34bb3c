"""One benchmark session in a fresh process: cold set-up, then the workload body.

    PYTHONPATH=src python3 perfbench/session.py --workload check-e8 --seed 1 --index 0 [--kind verify] [--trace]

`run.py` starts one of these per session and reads the JSON document it
prints as its last line of stdout.  The inputs are a function of (workload,
seed, kind, index): the n-th check session of a run queries its own stream,
so a run samples many inputs, and every verify session of a run must give
the same report.  `--trace` records a span around each of the session's
calls into the package; the spans stay in memory and are printed once,
with the document.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one client, one thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import random
import resource
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from adjoint_quadrics import (
    Elementary,
    FormKind,
    IntegerRing,
    IntegersMod,
    RootSystem,
    Word,
    ZeroWeight,
    apply_word,
    basis_vector,
    build_root_system,
    build_sign_table,
    enumerate_squares,
    eqset_from_json,
    evaluate_form,
    generate_all_equations,
    report_json,
    suite_cases,
    suite_combinatorics,
    suite_commutator,
    suite_jacobi,
    suite_orbit,
    suite_words,
)

Z = IntegerRing()

# A coordinate below SMALL_COORD keeps every monomial far inside int64; one
# at or above LARGE_COORD makes products of two such coordinates overflow it.
# Moduli split the same way.  The classes name input properties, not the
# evaluation path a given version of the package happens to take.
SMALL_COORD = 1 << 26
LARGE_COORD = 1 << 32
SMALL_MODULUS = 1 << 20
LARGE_MODULUS = 1 << 30

NEGATIVE_EVERY = 16
CLASSES = ("int", "zmod-small", "int-large", "zmod-large", "negative")


@dataclass(frozen=True)
class Spec:
    system: str
    rings: tuple
    large: bool  # positive queries need arbitrary-precision arithmetic
    queries: int  # membership queries per check session


WORKLOADS = {
    "verify-e7": Spec("E7", (Z, IntegersMod(4), IntegersMod(7)), False, 300),
    "check-e8": Spec("E8", (Z, IntegersMod(4), IntegersMod(7)), False, 48),
    # 2^31 - 1 is prime; 10^12 - 1 = 3^3 * 7 * 11 * 13 * 37 * 101 * 9901.
    "bigint-d7": Spec("D7", (Z, IntegersMod(2**31 - 1), IntegersMod(10**12 - 1)), True, 144),
}

# run_suite's order for suite="all".
SUITES = ("jacobi", "combinatorics", "cases", "commutator", "words", "orbit")


class Spans:
    """In-memory span log: rows of (id, name, parent id, start, end)."""

    def __init__(self):
        self.rows: list = []
        self._stack: list = [None]

    def __call__(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("log", "name", "id", "parent", "start")

    def __init__(self, log: Spans, name: str):
        self.log = log
        self.name = name

    def __enter__(self):
        log = self.log
        self.id = len(log.rows)
        log.rows.append(None)
        self.parent = log._stack[-1]
        log._stack.append(self.id)
        self.start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        self.log._stack.pop()
        self.log.rows[self.id] = (self.id, self.name, self.parent, self.start, end)


_NO_SPAN = contextlib.nullcontext()


def _no_span(name: str):
    return _NO_SPAN


@dataclass(frozen=True)
class Query:
    cls: str  # int, zmod-small, int-large, zmod-large or negative
    ring: object
    weight: object  # a root, or a ZeroWeight for negative controls
    word: Word


def _xi(rng: random.Random, ring):
    if isinstance(ring, IntegersMod):
        return rng.randrange(1, ring.modulus)
    return rng.choice((-2, -1, 1, 2))


def _word(rs: RootSystem, rng: random.Random, ring) -> Word:
    return Word(
        tuple(
            Elementary(rs.roots[rng.randrange(rs.n_roots)], _xi(rng, ring))
            for _ in range(rng.randint(1, 12))
        )
    )


def make_queries(rs: RootSystem, spec: Spec, seed: int, index: int) -> list[Query]:
    """The query stream of the index-th check session for a seed.

    Rings rotate; one query in NEGATIVE_EVERY is a negative control: a
    small word over Z applied to a zero-weight basis vector, which lies off
    the orbit.  With spec.large, the first factor applied to e^mu is
    x_{-mu}(xi) with a large xi, so the -mu coordinate is about -xi^2.
    """
    rng = random.Random(f"perfbench/{rs.system}/{seed}/{index}")
    out = []
    for i in range(spec.queries):
        if i % NEGATIVE_EVERY == NEGATIVE_EVERY - 1:
            out.append(Query("negative", Z, ZeroWeight(rng.randint(1, rs.rank)), _word(rs, rng, Z)))
            continue
        ring = spec.rings[i % len(spec.rings)]
        word = _word(rs, rng, ring)
        weight = rs.roots[rng.randrange(rs.n_roots)]
        if spec.large:
            if isinstance(ring, IntegersMod):
                xi = rng.randrange(1, ring.modulus)
            else:
                xi = rng.choice((-1, 1)) * rng.randrange(1 << 20, 1 << 21)
            word = Word(word.factors + (Elementary(RootSystem.negate(weight), xi),))
        if isinstance(ring, IntegersMod):
            cls = "zmod-large" if spec.large else "zmod-small"
        else:
            cls = "int-large" if spec.large else "int"
        out.append(Query(cls, ring, weight, word))
    return out


def inputs_digest(queries: list[Query]) -> str:
    doc = [
        [q.cls, q.ring.name, str(q.weight), q.word.to_json(q.ring)]
        for q in queries
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _class_holds(q: Query, v) -> bool:
    if q.cls in ("zmod-small", "zmod-large"):
        m = q.ring.modulus
        return m <= SMALL_MODULUS if q.cls == "zmod-small" else m > LARGE_MODULUS
    top = max(abs(x) for x in v.coords)
    return top >= LARGE_COORD if q.cls == "int-large" else top < SMALL_COORD


def gate(q: Query, v, ok: bool, witness, eqset) -> str | None:
    """None when the verdict is the expected one, else the reason it is not.

    A negative control must fail, and its witness value must be nonzero and
    equal evaluate_form on the named form, an independent per-form path.
    """
    if not _class_holds(q, v):
        return "query input left its class"
    if q.cls != "negative":
        return None if ok else f"positive query did not vanish: {witness}"
    if ok:
        return "negative control vanished"
    kind = FormKind(witness["kind"])
    kj = witness["key"]
    if kind is FormKind.PI2:
        key = tuple(kj["sigma"])
    else:
        key = (tuple(kj["alpha"]), tuple(kj["beta"]))
    expected = evaluate_form(eqset.form_for(kind, key), v)
    got = int(witness["value"])
    if got == 0 or got != expected:
        return f"witness value {got}, evaluate_form gives {expected}"
    return None


@dataclass
class Context:
    rs: object
    signs: object
    squares: list
    eqset: object

    def counts(self) -> dict:
        return {
            "squares.count": len(self.squares),
            "equations.forms": len(self.eqset.forms),
            "equations.monomials": sum(len(f.monomials) for f in self.eqset.forms),
        }


def setup(system: str, span) -> Context:
    with span("root_system.build"):
        rs = build_root_system(system)
    with span("signs.build"):
        signs = build_sign_table(rs)
    with span("squares.enumerate"):
        squares = enumerate_squares(rs)
    with span("equations.generate"):
        eqset = generate_all_equations(rs, signs)
    with span("equations.compile"):
        eqset.compiled()
    return Context(rs, signs, squares, eqset)


def verify_reports(ctx: Context, seed: int, span) -> list:
    """The suites of `verify --suite all`, called in run_suite's order."""
    rs, signs, eqset = ctx.rs, ctx.signs, ctx.eqset
    calls = {
        "jacobi": lambda: suite_jacobi(rs, signs, seed),
        "combinatorics": lambda: suite_combinatorics(rs, signs, seed),
        "cases": lambda: suite_cases(rs, signs, seed),
        "commutator": lambda: suite_commutator(rs, signs, seed),
        "words": lambda: suite_words(rs, signs, eqset, seed),
        "orbit": lambda: suite_orbit(rs, signs, eqset, seed),
    }
    reports = []
    for name in SUITES:
        with span(f"verify.{name}"):
            reports.append(calls[name]())
    return reports


def run_queries(ctx: Context, queries: list[Query], span):
    """Closed loop, one query at a time; returns per-query (ms, verdict)."""
    rs, signs, eqset = ctx.rs, ctx.signs, ctx.eqset
    results = []
    for q in queries:
        t0 = perf_counter()
        try:
            with span("query"):
                with span("action.apply_word"):
                    v = apply_word(rs, signs, q.word, basis_vector(rs, q.ring, q.weight))
                with span(f"equations.check.{q.cls}"):
                    ok, witness = eqset.check_vector(v)
        except Exception as exc:  # a raise is a failed operation, not a crash
            results.append((None, None, False, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(((perf_counter() - t0) * 1e3, v, ok, witness))
    return results


def run_session(workload: str, seed: int, index: int, kind: str, traced: bool) -> dict:
    """kind: 'check' (set-up, then the query stream) or 'verify' (set-up,
    then the suites and report_json)."""
    spec = WORKLOADS[workload]
    log = Spans() if traced else None
    span = log if traced else _no_span
    doc: dict = {"workload": workload, "seed": seed, "index": index, "kind": kind, "traced": traced}
    failures: list = []  # the first few reasons
    attempted = failed = 0

    def miss(reason, count=1):
        nonlocal failed
        failed += count
        failures.append(reason)

    t0 = perf_counter()
    with span("setup"):
        ctx = setup(spec.system, span)
    t_setup = perf_counter()
    doc["setup_s"] = t_setup - t0
    counts = ctx.counts()

    if kind == "verify":
        body = perf_counter()
        reports = verify_reports(ctx, seed, span)
        with span("verify.report_json"):
            text = report_json(reports)
        end = perf_counter()
        doc["report_digest"] = hashlib.sha256(text.encode()).hexdigest()
        for rep in reports:
            counts[f"verify.{rep.suite}.attempted"] = rep.attempted
            attempted += rep.attempted
            for check in rep.checks:
                if check["passed"] != check["attempted"]:
                    miss(
                        f"{rep.suite}/{check['name']}: {check['failures'][:1]}",
                        check["attempted"] - check["passed"],
                    )
        if not json.loads(text)["ok"] and not failed:
            miss("verify report is not ok")
    else:
        queries = make_queries(ctx.rs, spec, seed, index)
        doc["inputs_digest"] = inputs_digest(queries)
        counts["action.factors"] = sum(len(q.word.factors) for q in queries)
        for cls in CLASSES:
            counts[f"queries.{cls}"] = sum(q.cls == cls for q in queries)
        body = perf_counter()
        results = run_queries(ctx, queries, span)
        end = perf_counter()
        doc["query_loop_s"] = end - body

        # The gate runs after the timed window closes.
        latencies = []
        for q, (ms, v, ok, witness) in zip(queries, results):
            attempted += 1
            if ms is None:
                miss(witness)
                continue
            latencies.append(ms)
            reason = gate(q, v, ok, witness, ctx.eqset)
            if reason is not None:
                miss(f"{q.cls} query: {reason}")
        doc["latencies_ms"] = latencies

        if traced and spec.large:
            attempted += 1
            with span("equations.to_json"):
                text = ctx.eqset.to_json(ctx.rs)
            with span("equations.from_json"):
                loaded = eqset_from_json(ctx.rs, json.loads(text))
            counts["equations.json_bytes"] = len(text.encode())
            if loaded.forms != ctx.eqset.forms:
                miss("eqset_from_json(to_json) changed the forms")

    # Counting and query generation between the windows are the benchmark's work.
    windows = [(t0, t_setup), (body, end)]
    doc["total_s"] = sum(b - a for a, b in windows)
    doc["counts"] = counts
    doc["attempted"] = attempted
    doc["failed"] = failed
    doc["failures"] = failures[:5]
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
    if traced:
        rows = log.rows
        doc["spans"] = rows
        covered = sum(
            r[4] - r[3]
            for r in rows
            if r[1].split(".")[0] in LAYERS and any(a <= r[3] and r[4] <= b for a, b in windows)
        )
        doc["uncovered_s"] = doc["total_s"] - covered
    return doc


LAYERS = ("root_system", "signs", "squares", "equations", "action", "verify")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, default=0, help="session number within its kind")
    p.add_argument("--kind", choices=("check", "verify"), default="check")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    doc = run_session(args.workload, args.seed, args.index, args.kind, args.trace)
    print(json.dumps(doc, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

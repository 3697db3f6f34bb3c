"""Benchmark driver for adjoint-quadrics.

    python3 perfbench/run.py --workload check-e8 --seed 1 --seconds 40 --trace 0

Run from the repository root.  One client, closed loop, one thread: the
driver starts sessions (perfbench/session.py) one after another, each in a
fresh process, because a command-line user pays set-up on every call.  It
keeps starting them until the next one would end after --seconds (at least
one of each kind, two when tracing).  verify-e7 alternates check sessions
(set-up and E7 queries) with verify sessions (set-up and the suites), so
its set-up and query samples are spread over the whole run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced sessions, prints the per-layer metrics from the traced ones, and
writes every span once, at the end, to .bench_out/.  The last line of
stdout is the JSON result; the lines before it record the environment and
a readable summary.  The exit status is 0 only when every output passed the
correctness gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("verify-e7", "check-e8", "bigint-d7")
# Session kinds a workload cycles through; the default is ("check",).
KINDS = {"verify-e7": ("check", "verify")}
SESSION_TIMEOUT_S = 150
CLASSES = ("int", "zmod-small", "int-large", "zmod-large", "negative")
SUITES = ("jacobi", "combinatorics", "cases", "commutator", "words", "orbit")
# Counts every session of a run must repeat exactly.
FIXED_COUNTS = ("squares.count", "equations.forms", "equations.monomials")


class BenchError(RuntimeError):
    """The benchmark could not measure: a session crashed or the tree is incomplete."""


def _quantile(values, q: float) -> float:
    """Quantile by linear interpolation between closest ranks (0 for no samples)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def source_commit() -> str:
    """HEAD of the repository when the tree is a git checkout, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, to tell trees apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn(workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(
            cmd + list(flags),
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SESSION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"session timed out after {SESSION_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"session exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_sessions(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    kinds = KINDS.get(workload, ("check",))
    start = perf_counter()
    sessions: list = []
    walls: dict = {k: [] for k in kinds}
    while True:
        kind = kinds[len(sessions) % len(kinds)]
        if walls[kind]:
            ends_at = perf_counter() - start + statistics.median(walls[kind])
            enough = all(len(w) >= 1 + trace for w in walls.values())
            if enough and ends_at > seconds:
                return sessions
        index = len(walls[kind])
        flags = ["--index", str(index), "--kind", kind] + (["--trace"] if trace and index % 2 else [])
        t = perf_counter()
        sessions.append(spawn(workload, seed, *flags))
        walls[kind].append(perf_counter() - t)


def determinism_misses(sessions) -> list[str]:
    """Every session of a run builds the same system, and every verify
    session of a run must give the same report."""
    misses = set()
    for d in sessions:
        for name in FIXED_COUNTS:
            if d["counts"][name] != sessions[0]["counts"][name]:
                misses.add(f"{name} differs between sessions")
        first = next(f for f in sessions if f["kind"] == d["kind"])
        if d.get("report_digest") != first.get("report_digest"):
            misses.add("verify reports differ between sessions")
        if d["kind"] == "verify" and d["counts"] != first["counts"]:
            misses.add("verify counts differ between sessions")
    return sorted(misses)


def _main_kind(sessions) -> str:
    """The sessions total_s and peak RSS describe: verify where there are any."""
    return "verify" if any(d["kind"] == "verify" for d in sessions) else "check"


def end_to_end(sessions) -> tuple[dict, dict]:
    main = [d for d in sessions if d["kind"] == _main_kind(sessions)]
    checks = [d for d in sessions if d["kind"] == "check"]
    lat = [x for d in checks for x in d["latencies_ms"]]
    p95 = _quantile(lat, 0.95)
    loop_s = sum(d["query_loop_s"] for d in checks)
    return {
        "setup_s": (_median([d["setup_s"] for d in sessions]), "s"),
        "total_s": (_median([d["total_s"] for d in main]), "s"),
        "check_p95_ms": (p95, "ms"),
        "checks_per_s": (len(lat) / loop_s, "1/s"),
        "peak_rss_mb": (_median([d["rss_mb"] for d in main]), "MB"),
    }, {"queries": len(lat), "above_p95": sum(x > p95 for x in lat)}


def _self_times(rows) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    own = {r[0]: r[4] - r[3] for r in rows}
    for r in rows:
        if r[2] is not None:
            own[r[2]] -= r[4] - r[3]
    return own


def per_layer(sessions) -> dict:
    traced = [d for d in sessions if d["traced"]]
    main = _main_kind(sessions)
    once: dict = {}  # span name -> per-session self time (s)
    each: dict = {}  # span name -> every self time (s)
    for d in traced:
        own = _self_times(d["spans"])
        per_session: dict = {}
        for r in d["spans"]:
            per_session[r[1]] = per_session.get(r[1], 0.0) + own[r[0]]
            each.setdefault(r[1], []).append(own[r[0]])
        for name, s in per_session.items():
            once.setdefault(name, []).append(s)
    # Counts come from the first traced session of each kind (index 1), so
    # they repeat exactly for a seed however many sessions fit in the run.
    counts: dict = {}
    for d in reversed(traced):
        counts.update(d["counts"])
    checks = [d for d in traced if d["kind"] == "check"]

    def ms(name):
        return (_median(once.get(name, [])) * 1e3, "ms")

    out = {
        "root_system.build_ms": ms("root_system.build"),
        "signs.build_ms": ms("signs.build"),
        "squares.enumerate_ms": ms("squares.enumerate"),
        "squares.count": (counts["squares.count"], "count"),
        "equations.generate_ms": ms("equations.generate"),
        "equations.forms": (counts["equations.forms"], "count"),
        "equations.compile_ms": ms("equations.compile"),
        "equations.monomials": (counts["equations.monomials"], "count"),
    }
    monomials = counts["equations.monomials"]
    for cls in CLASSES:
        xs = [s * 1e3 for s in each.get(f"equations.check.{cls}", [])]
        out[f"equations.check_ms.{cls}.p50"] = (_quantile(xs, 0.5), "ms")
        out[f"equations.check_ms.{cls}.p95"] = (_quantile(xs, 0.95), "ms")
    for cls in CLASSES:
        p50 = out[f"equations.check_ms.{cls}.p50"][0]
        out[f"equations.ns_per_monomial.{cls}"] = (p50 * 1e6 / monomials, "ns")
    apply_s = each.get("action.apply_word", [])
    out["action.apply_word_ms.p50"] = (_quantile(apply_s, 0.5) * 1e3, "ms")
    out["action.apply_word_ms.p95"] = (_quantile(apply_s, 0.95) * 1e3, "ms")
    factors = counts["action.factors"]
    out["action.factors"] = (factors, "count")
    all_factors = sum(d["counts"]["action.factors"] for d in checks)
    out["action.us_per_factor"] = (sum(apply_s) * 1e6 / all_factors, "us")
    for suite in SUITES:
        out[f"verify.{suite}_s"] = (_median(once.get(f"verify.{suite}", [])), "s")
        out[f"verify.{suite}.attempted"] = (counts.get(f"verify.{suite}.attempted", 0), "count")
    out["verify.report_json_ms"] = ms("verify.report_json")
    out["equations.to_json_ms"] = ms("equations.to_json")
    out["equations.from_json_ms"] = ms("equations.from_json")
    out["equations.json_bytes"] = (counts.get("equations.json_bytes", 0), "bytes")
    totals = {
        on: _median([d["total_s"] for d in sessions if d["kind"] == main and d["traced"] == on])
        for on in (False, True)
    }
    out["trace.overhead_s"] = (totals[True] - totals[False], "s")
    uncovered = [d["uncovered_s"] for d in traced if d["kind"] == main]
    out["trace.uncovered_ms"] = (_median(uncovered) * 1e3, "ms")
    out["trace.spans"] = (len(next(d for d in traced if d["kind"] == main)["spans"]), "count")
    return out


def write_trace(workload: str, seed: int, env: dict, sessions) -> Path:
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {
        "env": env,
        "span_fields": ["id", "name", "parent", "start_s", "end_s"],
        "sessions": [{k: v for k, v in d.items() if k != "latencies_ms"} for d in sessions],
    }
    out.write_text(json.dumps(doc, separators=(",", ":")))
    return out


def expected_metrics(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="adjoint-quadrics benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    trace = bool(args.trace)

    if not (ROOT / "src" / "adjoint_quadrics" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        expected = expected_metrics(trace)
        sessions = run_sessions(args.workload, args.seed, args.seconds, trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **sessions[0]["versions"],
        "sessions": [d["kind"] + ("+trace" if d["traced"] else "") for d in sessions],
    }
    misses = determinism_misses(sessions)
    attempted = sum(d["attempted"] for d in sessions)
    failed = sum(d["failed"] for d in sessions) + len(misses)
    if trace:
        metrics = per_layer(sessions)
        env["trace_file"] = str(write_trace(args.workload, args.seed, env, sessions).relative_to(ROOT))
    else:
        metrics, samples = end_to_end(sessions)
        env.update(samples)
    if set(metrics) != set(expected) or any(metrics[k][1] != expected[k] for k in metrics):
        print("error: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3

    print("env " + json.dumps(env, sort_keys=True))
    for reason in misses + [f for d in sessions for f in d["failures"]]:
        print(f"MISS {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

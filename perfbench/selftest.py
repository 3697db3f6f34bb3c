"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Checks that
  * the verify-e7 call sequence gives the same report JSON as
    run_suite("E7", "all", seed), timing excluded;
  * eqset_from_json(to_json) on D7 reproduces the generated forms;
  * two fresh sessions with one seed and session index give identical
    counts, query inputs and reports, and another seed or index gives
    other inputs;
  * the correctness gate rejects wrong verdicts and wrong witness values.
Exit status 0 when all hold.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import session  # noqa: E402  (pins thread pools before numpy loads)
from run import KINDS, WORKLOADS, spawn  # noqa: E402

from adjoint_quadrics import apply_word, basis_vector, eqset_from_json, report_json, run_suite  # noqa: E402


def check_verify_sequence(seed: int) -> list[str]:
    ctx = session.setup("E7", session._no_span)
    ours = report_json(session.verify_reports(ctx, seed, session._no_span))
    ref = report_json(run_suite("E7", "all", seed))
    return [] if ours == ref else ["verify-e7 call sequence differs from run_suite"]


def check_json_round_trip() -> list[str]:
    ctx = session.setup("D7", session._no_span)
    loaded = eqset_from_json(ctx.rs, json.loads(ctx.eqset.to_json(ctx.rs)))
    return [] if loaded.forms == ctx.eqset.forms else ["D7 JSON round trip changed the forms"]


def check_determinism(seed: int) -> list[str]:
    """Two processes with one (workload, seed, kind, index) agree exactly;
    another seed or index gives other query inputs."""
    misses = []
    for workload in WORKLOADS:
        for kind in KINDS.get(workload, ("check",)):
            a = spawn(workload, seed, "--index", "1", "--kind", kind, "--trace")
            b = spawn(workload, seed, "--index", "1", "--kind", kind, "--trace")
            for key in ("counts", "inputs_digest", "report_digest", "failed"):
                if a.get(key) != b.get(key):
                    misses.append(f"{workload}/{kind}: {key} differs between two runs of seed {seed}")
            if a["failed"]:
                misses.append(f"{workload}/{kind}: {a['failures']}")
        ref = spawn(workload, seed, "--index", "0")
        for other in (spawn(workload, seed + 1, "--index", "0"), spawn(workload, seed, "--index", "2")):
            if other["inputs_digest"] == ref["inputs_digest"]:
                misses.append(
                    f"{workload}: seed {other['seed']} index {other['index']} repeats the inputs"
                    f" of seed {seed} index 0"
                )
            if other["counts"]["equations.forms"] != ref["counts"]["equations.forms"]:
                misses.append(f"{workload}: form count depends on the inputs")
    return misses


def check_gate(seed: int) -> list[str]:
    spec = session.WORKLOADS["check-e8"]
    ctx = session.setup(spec.system, session._no_span)
    queries = session.make_queries(ctx.rs, spec, seed, 0)
    misses = []
    for q in (queries[0], queries[session.NEGATIVE_EVERY - 1]):
        v = apply_word(ctx.rs, ctx.signs, q.word, basis_vector(ctx.rs, q.ring, q.weight))
        ok, witness = ctx.eqset.check_vector(v)
        if session.gate(q, v, ok, witness, ctx.eqset) is not None:
            misses.append(f"gate rejected a correct {q.cls} verdict")
        if session.gate(q, v, not ok, witness, ctx.eqset) is None:
            misses.append(f"gate accepted a flipped {q.cls} verdict")
        if witness is not None:
            wrong = dict(witness, value=str(int(witness["value"]) + 1))
            if session.gate(q, v, ok, wrong, ctx.eqset) is None:
                misses.append("gate accepted a wrong witness value")
    return misses


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark self-tests")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    checks = [
        ("verify sequence", lambda: check_verify_sequence(args.seed)),
        ("json round trip", check_json_round_trip),
        ("gate", lambda: check_gate(args.seed)),
        ("determinism", lambda: check_determinism(args.seed)),
    ]
    failed = False
    for name, fn in checks:
        misses = fn()
        failed = failed or bool(misses)
        print(f"{name}: {'ok' if not misses else 'FAIL'}")
        for m in misses:
            print(f"  {m}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

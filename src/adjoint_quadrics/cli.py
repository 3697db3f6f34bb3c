"""Command-line front end.

Reports are emitted as JSON on stdout; human-oriented progress lines go
to stderr and are suppressed by --quiet.  Exit status 0 means every
requested check passed, 1 that a check computed a negative verdict, and
2 that the input was bad; the error is then a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .action import AdjointVector, Word
from .equations import FormKind, generate_all_equations
from .rings import PolynomialRing, Ring, ring_from_name
from .root_system import build_root_system
from .signs import build_sign_table
from .squares import enumerate_squares
from .verify import SUITE_NAMES, report_json, run_suite, verify_orbit_membership


def _add_system(parser):
    parser.add_argument("--system", required=True, help="root system, e.g. D5, D6, E6, E7, E8")


class InputError(ValueError):
    """A vector file, word file or --rho value without the documented shape."""


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError("JSON nested too deeply") from None


def _read_json(path: str):
    with open(path) as f:
        return _parse_json(f.read())


def _input_ring(name) -> Ring:
    """The ring that the elements of a vector or word are parsed over."""
    if not isinstance(name, str):
        raise InputError("ring must be a string")
    ring = ring_from_name(name)
    if isinstance(ring, PolynomialRing):
        raise InputError("ring 'poly' has no element syntax; use int or zmod:<m>")
    return ring


def _check_element(s) -> None:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise InputError(f"ring element must be a string or an integer, not {json.dumps(s)}")


def _root(rs, value) -> tuple:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise InputError(f"root must be an array of integers, not {json.dumps(value)}")
    rs.root_index(value)
    return tuple(value)


def _load_vector(path: str, rs) -> AdjointVector:
    """{"system", "ring", "coords": [element, ...]} with one element per weight."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InputError("vector file must hold a JSON object")
    if doc.get("system") != str(rs.system):
        raise InputError("vector system mismatch")
    ring = _input_ring(doc.get("ring"))
    if not isinstance(doc.get("coords"), list):
        raise InputError("vector coords must be an array")
    for s in doc["coords"]:
        _check_element(s)
    coords = [ring.parse(s) for s in doc["coords"]]
    if len(coords) != rs.dim_v:
        raise InputError("vector has wrong length")
    return AdjointVector(rs, ring, coords)


def _load_word(path: str, rs, ring: Ring) -> Word:
    """[{"rho": root, "xi": element}, ...]"""
    doc = _read_json(path)
    if not isinstance(doc, list) or not all(isinstance(e, dict) for e in doc):
        raise InputError("word file must hold a JSON array of {rho, xi} objects")
    for e in doc:
        _root(rs, e.get("rho"))
        _check_element(e.get("xi"))
    return Word.from_json(doc, rs, ring)


def _progress(quiet: bool):
    if quiet:
        return None
    return lambda line: print(line, file=sys.stderr)


def cmd_roots(args) -> int:
    rs = build_root_system(args.system)
    if args.json:
        doc = {
            "system": str(rs.system),
            "dim_v": rs.dim_v,
            "count": rs.n_roots,
            "roots": [list(r) for r in rs.roots],
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(f"# {rs.system}: {rs.n_roots} roots, module rank {rs.dim_v}", file=sys.stderr)
        for r in rs.roots:
            print(" ".join(str(x) for x in r))
    return 0


def cmd_squares(args) -> int:
    rs = build_root_system(args.system)
    squares = enumerate_squares(rs)
    if args.count_only:
        doc = {"system": str(rs.system), "count": len(squares), "k": rs.k}
    else:
        doc = {
            "system": str(rs.system),
            "count": len(squares),
            "k": rs.k,
            "squares": [sq.to_json() for sq in squares],
        }
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0


_KIND_ALIASES = {"pi2": "pi/2", "2pi3": "2pi/3"}


def cmd_equations(args) -> int:
    rs = build_root_system(args.system)
    signs = build_sign_table(rs)
    eqset = generate_all_equations(rs, signs)
    if args.kind != "all":
        eqset = eqset.of_kind(FormKind(_KIND_ALIASES.get(args.kind, args.kind)))
    text = eqset.to_json(rs)
    if args.out and args.out != "-":
        with open(args.out, "w") as f:
            f.write(text)
            f.write("\n")
    else:
        print(text)
    print(
        json.dumps({"system": str(rs.system), "counts": eqset.counts()}, sort_keys=True),
        file=sys.stderr,
    )
    return 0


def cmd_check(args) -> int:
    rs = build_root_system(args.system)
    signs = build_sign_table(rs)
    v = _load_vector(args.vector, rs)
    eqset = generate_all_equations(rs, signs)
    ok, witness = eqset.check_vector(v)
    print(json.dumps({"ok": ok, "witness": witness}, sort_keys=True, separators=(",", ":")))
    return 0 if ok else 1


def cmd_orbit(args) -> int:
    rs = build_root_system(args.system)
    signs = build_sign_table(rs)
    ring = _input_ring(args.ring)
    word = _load_word(args.word, rs, ring)
    rho = _root(rs, _parse_json(args.rho))
    eqset = generate_all_equations(rs, signs)
    ok, witness = verify_orbit_membership(rs, signs, eqset, word, rho, ring)
    doc = {
        "ok": ok,
        "system": str(rs.system),
        "rho": list(rho),
        "ring": ring.name,
        "witness": witness,
    }
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    rings = tuple(ring_from_name(r) for r in args.ring) if args.ring else None
    reports = run_suite(
        args.system,
        suite=args.suite,
        seed=args.seed,
        samples=args.samples,
        rings=rings,
        progress=_progress(args.quiet),
    )
    print(report_json(reports, include_timing=args.timing))
    return 0 if all(r.ok for r in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adjoint-quadrics",
        description="Quadratic equations for highest weight orbits in adjoint "
        "representations of simply-laced Chevalley groups.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the roots of a system")
    _add_system(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("squares", help="enumerate maximal squares")
    _add_system(p)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("equations", help="generate the quadratic forms")
    _add_system(p)
    p.add_argument(
        "--kind", default="all", choices=["all", "pi2", "pi/2", "2pi3", "2pi/3", "pi"]
    )
    p.add_argument("--out", default="-", help="output file, '-' for stdout")
    p.set_defaults(func=cmd_equations)

    p = sub.add_parser("check", help="evaluate the forms on a vector file")
    _add_system(p)
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbit", help="check a word applied to a basis vector")
    _add_system(p)
    p.add_argument("--word", required=True, help="JSON file of [{rho, xi}] factors")
    p.add_argument("--rho", required=True, help="root coefficients as a JSON array")
    p.add_argument("--ring", default="int", help="int or zmod:<m>")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify", help="run verification suites")
    _add_system(p)
    p.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    samples_help = "cases, commutator, words and orbit; jacobi and combinatorics check every case"
    p.add_argument("--samples", type=int, default=None, help=samples_help)
    p.add_argument("--ring", action="append", help="may be repeated; words suite only")
    timing_help = "include the wall times of each suite and set-up phase in the report"
    p.add_argument("--timing", action="store_true", help=timing_help)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

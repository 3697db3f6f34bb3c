"""Verification suites: structure-constant identities, square combinatorics,
the symbolic case-identity ledger, commutator reductions, and randomized
orbit tests.

The ledger is the heart of the module.  For a form f = f^phi_{alpha,beta},
a root rho, and w = x_rho(xi) v with v generic, the difference
f(w) - f(v) equals a short combination of forms evaluated at v, with
coefficients in {0, +-xi, +-2 xi, +-xi^2}.  Which combination depends on
the angle class of rho against the square of (alpha, beta) and on a small
sub-case.  Every ledger entry is checked as a literal polynomial identity
over Z[xi, v_0, v_1, ...]:  the residual must be the zero polynomial.
The entries are treated as claims under test, so a transcription slip
surfaces as a nonzero residual rather than as silent wrongness.

Angle classes pi/2 and pi/3 carry no direct ledger entry; for those the
suite verifies the commutator reduction x_rho(xi) = [x_a(xi), x_b(eps)]
with both factors in already-covered classes, symbolically in xi on a
generic vector.

The cases and commutator suites check their identities on exact integer
coefficient arrays, a block of samples at a time (case_identities,
commutator_reductions, batch.ledger_block and batch.commutator_block).
Each identity is at most quadratic in v and quartic in xi, and x_rho(xi)
is the root's rows from action.elementary_rows, I + xi E1 + xi^2 E2.  A
ledger case expands f through the rows of its rho, subtracts the target
forms and passes iff every coefficient of xi^k v_p v_q is zero; a
reduction composes the four factors as a matrix polynomial over Z[xi] and
compares it with the rows of x_rho(xi), coefficient by coefficient.  Both
suites draw each sample uniformly among the (root, square) configurations
of its angle class (batch.Configs; a ledger sample then takes the pair of
the square its sub-case names), so samples counts configurations per
check.  A sample stays root and square numbers from its draw to its
report, read against the root system's tables and square index and classed
by squares.position_class; its sub-case names its forms by kind and pair.
The forms come from equations.form_monomials, the kernels that generate
the equation set, so the ledger checks what check_vector evaluates.  A
failing case's residual is printed as the Poly it equals.  The tests keep
an evaluation of the same forms over PolynomialRing, one case at a time,
as the reference the batched checks are compared with
(tests/reference.py); it shares with the suites what _prepare_case,
_reduction_plan, _square_forms and _square_verdict decide and the forms
_ledger_arrays reads.

The jacobi and combinatorics suites check every case on every system, so
their reports depend on the system alone (the seed is only recorded, and
samples does not reach them).  batch.jacobi_samples and
batch.combinatorics_samples list the cases in report order as root and
square numbers (the position lemma's in blocks of squares of one size,
whose failures batch.position_failures puts back in report order), and
the batch module evaluates both sides of every
comparison on blocks of them with numpy, over the sign table, the Gram and
sum tables and the root system's square index.  Two-way checks keep both
computations: the companion sets are a direct scan over the roots against
the square formulas.  Failure entries are built for the failing cases
only, in case order, so the reports are the ones the per-case loops gave.
The scalar square helpers that the batched checks are compared with are
kept with the tests (tests/reference.py).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import batch
from .action import (
    AdjointVector,
    Elementary,
    Word,
    apply_elementary,
    apply_word,
    basis_vector,
)
from .equations import EquationSet, FormKind, form_monomials, generate_all_equations
from .rings import IntegerRing, IntegersMod, Poly, PolynomialRing, Ring
from .root_system import Root, RootSystem, ZeroWeight, build_root_system
from .signs import SignTable, build_sign_table
from .squares import (
    _ANGLE_BY_DOT2,
    _NOT_A_ROOT,
    _SCAN_DISAGREES,
    SquareAngle,
    _impossible_product,
    _no_extension,
    _no_square,
    _not_a_member,
    position_class,
)

SUITE_NAMES = ("jacobi", "combinatorics", "cases", "commutator", "words", "orbit")
# The words suite draws words of 0 to this many factors.
_MAX_WORD_LENGTH = 12


@dataclass
class SuiteReport:
    """Outcome of one suite run; deterministic given (system, suite, seed)."""

    suite: str
    system: str
    seed: int | None
    checks: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(c["attempted"] for c in self.checks)

    @property
    def passed(self) -> int:
        return sum(c["passed"] for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.attempted == self.passed

    def add(self, name: str, attempted: int, failures: list, witness_limit: int = 5) -> None:
        self.checks.append(
            {
                "name": name,
                "attempted": attempted,
                "passed": attempted - len(failures),
                "failures": failures[:witness_limit],
            }
        )

    def to_jsonable(self, include_timing: bool = False):
        doc = {
            "suite": self.suite,
            "system": self.system,
            "seed": self.seed,
            "attempted": self.attempted,
            "passed": self.passed,
            "ok": self.ok,
            "checks": self.checks,
        }
        if include_timing:
            doc["wall_time_s"] = self.wall_time_s
        return doc


class Reports(list):
    """run_suite's reports, with the wall time in seconds of each set-up
    phase it ran (build_root_system, build_sign_table and, for the words
    and orbit suites, generate_all_equations)."""

    def __init__(self, setup_s: dict):
        super().__init__()
        self.setup_s = setup_s


def report_json(reports: list[SuiteReport], include_timing: bool = False) -> str:
    doc = {
        "ok": all(r.ok for r in reports),
        "reports": [r.to_jsonable(include_timing) for r in reports],
    }
    if include_timing and isinstance(reports, Reports):
        doc["setup_s"] = reports.setup_s
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def generic_vector(rs: RootSystem, ring: PolynomialRing) -> AdjointVector:
    """A vector whose coordinates are the independent variables v0, v1, ..."""
    return AdjointVector(rs, ring, [ring.variable(f"v{i}") for i in range(rs.dim_v)])


# ---------------------------------------------------------------------------
# The case-identity ledger.

LEDGER_ENTRIES: tuple[tuple[str, FormKind, str], ...] = (
    ("0", FormKind.PI2, "re-rooted"),
    ("0", FormKind.TWO_PI3, "j=1"),
    ("0", FormKind.TWO_PI3, "j=-1"),
    ("0", FormKind.TWO_PI3, "j!=+-1"),
    ("0", FormKind.PI, "j=1"),
    ("0", FormKind.PI, "j=-1"),
    ("0", FormKind.PI, "j!=+-1"),
    ("pi", FormKind.PI2, "any"),
    ("pi", FormKind.TWO_PI3, "j=1"),
    ("pi", FormKind.TWO_PI3, "j=-1"),
    ("pi", FormKind.TWO_PI3, "j!=+-1"),
    ("pi", FormKind.PI, "j=1"),
    ("pi", FormKind.PI, "j=-1"),
    ("pi", FormKind.PI, "j!=+-1"),
    ("2pi/3", FormKind.PI2, "any"),
    ("2pi/3", FormKind.TWO_PI3, "(b1,rho)=-1"),
    ("2pi/3", FormKind.TWO_PI3, "(b1,rho)=0"),
    ("2pi/3", FormKind.PI, "(b1,rho)=-1"),
    ("2pi/3", FormKind.PI, "(b1,rho)=0"),
)


@dataclass
class CaseResult:
    ok: bool
    angle: str
    phi: str
    subcase: str
    config: dict
    residual: str | None = None


def _ledger_target(rs, signs, phi: FormKind, a, b, r, kind: SquareAngle, mate):
    """(subcase label, [(int coeff, xi power, target form), ...]) for one
    ledger case, a form being (kind, i, j) for its orthogonal pair of root
    numbers.  a, b and r are alpha, beta and rho, and mate the member paired
    with rho (class 0) or with -rho (class pi)."""
    neg, sums = rs.neg, rs.sums
    PI2, TWO_PI3, PI = FormKind
    if kind is SquareAngle.IN_SQUARE:
        if phi is PI2:
            # Rooted at rho's own pair by the caller.
            return "re-rooted", [(-1, 1, (TWO_PI3, mate, neg[r])), (-1, 2, (PI2, mate, neg[r]))]
        if phi is TWO_PI3:
            if r == a:
                return "j=1", [(-1, 1, (PI, a, b)), (1, 2, (TWO_PI3, neg[a], neg[b]))]
            if r == b:
                return "j=-1", [(-2, 1, (PI2, a, neg[b]))]
            c = int(signs.table[a, neg[r]])
            return "j!=+-1", [(c, 1, (TWO_PI3, sums[a, neg[r]], sums[r, neg[b]]))]
        if r == a:
            return "j=1", [(-2, 1, (TWO_PI3, neg[a], neg[b]))]
        if r == b:
            return "j=-1", [(-2, 1, (TWO_PI3, neg[b], neg[a]))]
        return "j!=+-1", [(1, 1, (TWO_PI3, neg[r], mate))]

    if kind is SquareAngle.OPPOSITE_SQUARE:
        m = neg[r]  # the member
        if phi is PI2:
            return "any", []
        if phi is TWO_PI3:
            if m == a:
                return "j=1", []
            if m == b:
                return "j=-1", [(2, 1, (PI2, a, b))]
            return "j!=+-1", []
        if m == a:
            return "j=1", [(2, 1, (TWO_PI3, a, neg[b]))]
        if m == b:
            return "j=-1", [(-2, 1, (TWO_PI3, b, a))]
        return "j!=+-1", [(1, 1, (TWO_PI3, m, neg[mate]))]

    if kind is SquareAngle.TWO_THIRDS:
        d = rs.gram[a, r]
        if phi is PI2:
            return "any", []
        if phi is TWO_PI3:
            if d == -1:
                return "(b1,rho)=-1", []
            return "(b1,rho)=0", [(1, 1, (PI2, a, neg[r]))]
        if d == -1:
            return "(b1,rho)=-1", [(-1, 1, (TWO_PI3, neg[r], b))]
        return "(b1,rho)=0", [(-1, 1, (TWO_PI3, neg[r], a))]

    raise RuntimeError(f"no ledger entry for angle class {kind.value}")


def _members(rs, s: int) -> list[int]:
    """The member numbers of square s, in pair layout."""
    index = rs.square_index
    return index.members[index.start[s] :][: index.size[s]].tolist()


def _prepare_case(rs, signs, a: int, b: int, r: int, phi: FormKind):
    """What the ledger case of the form phi at root numbers (alpha, beta,
    rho) decides before any arithmetic: (angle class, sub-case, config, r,
    form, _ledger_target's targets)."""
    s = int(rs.square_index.square_of[a, b])
    if s < 0:
        raise RuntimeError(_no_square(rs.roots[a], rs.roots[b]))
    members = _members(rs, s)
    kind, p = position_class(rs, r, rs.square_index.sigma[s], members)
    mate = None if p is None else members[p ^ 1]
    if phi is FormKind.PI2 and kind is SquareAngle.IN_SQUARE:
        # The pi/2 form is square-keyed up to sign; root it at rho's pair.
        a, b = r, mate
    subcase, targets = _ledger_target(rs, signs, phi, a, b, r, kind, mate)
    roots = rs.roots
    config = dict(alpha=list(roots[a]), beta=list(roots[b]), rho=list(roots[r]), phi=phi.value)
    return kind.value, subcase, config, r, (phi, a, b), targets


def _ledger_arrays(rs, signs, cases):
    """What batch.ledger_block reads for the cases (rho's root number, form,
    [(coeff, power, target form)]), from form_monomials: (rho, (case, a, b,
    c), (case, power, a, b, coeff * c)), and per case None or the
    RuntimeError naming the first of its forms whose pair is in no square."""
    # Each case's own form, marked by power -1, then its target forms.
    rows = [
        (x, coeff, power, *g)
        for x, (_, form, targets) in enumerate(cases)
        for coeff, power, g in ((1, -1, form), *targets)
    ]
    owner, weight, power, kinds, ii, jj = zip(*rows)
    missing, (f, a, b, c) = form_monomials(rs, signs, kinds, ii, jj)
    errors = [None] * len(cases)
    for x in np.flatnonzero(missing)[::-1].tolist():
        errors[owner[x]] = RuntimeError(_no_square(rs.roots[ii[x]], rs.roots[jj[x]]))
    case, weight, power = (np.array(x, dtype=np.int64)[f] for x in (owner, weight, power))
    own = power < 0
    rho = np.array([r for r, _, _ in cases], dtype=np.int64)
    target = (case[~own], power[~own], a[~own], b[~own], weight[~own] * c[~own])
    return rho, (case[own], a[own], b[own], c[own]), target, errors


def _ledger_residuals(rs, signs, cases) -> list:
    """Per case as in _ledger_arrays: the nonzero terms (degree, p, q, coef)
    of f(x_rho(xi) v) - f(v) - sum coeff xi^power g(v), from
    batch.ledger_block, or the RuntimeError."""
    if not cases:
        return []
    rho, form, target, errors = _ledger_arrays(rs, signs, cases)
    case, *terms = batch.ledger_block(rs, signs, rho, form, target)
    bounds = np.searchsorted(case, np.arange(len(cases) + 1)).tolist()
    terms = list(zip(*(t.tolist() for t in terms)))
    return [error or terms[lo:hi] for error, lo, hi in zip(errors, bounds, bounds[1:])]


def _residual_text(rs, terms) -> str:
    """str() of the Poly with these terms, over the variables xi, v0, v1,
    ... registered in that order."""
    ring = PolynomialRing()
    ring.variable("xi")
    generic_vector(rs, ring)
    return str(Poly(ring, {(0,) * d + (p + 1, q + 1): c for d, p, q, c in terms}))


def case_identities(rs: RootSystem, signs: SignTable, phi: FormKind, configs) -> list:
    """The ledger identity of the form phi at each (alpha, beta, rho) of
    root numbers, checked together on integer coefficient arrays: per
    config, its CaseResult, or the RuntimeError its set-up raised."""
    results, prepared = [], []
    for a, b, r in configs:
        try:
            prepared.append((len(results), *_prepare_case(rs, signs, a, b, r, phi)))
            results.append(None)
        except RuntimeError as exc:
            results.append(exc)
    residuals = _ledger_residuals(rs, signs, [case[-3:] for case in prepared])
    for (i, angle, subcase, config, *_), terms in zip(prepared, residuals):
        if isinstance(terms, RuntimeError):
            results[i] = terms
        else:
            residual = _residual_text(rs, terms) if terms else None
            results[i] = CaseResult(not terms, angle, phi.value, subcase, config, residual)
    return results


@dataclass
class CommutatorResult:
    ok: bool
    config: dict
    epsilon: int | None = None
    factor_classes: tuple[str, str] | None = None
    detail: str | None = None
    mode: str = "reduction"


_MOVED = "a form moved under a root orthogonal to the square"
_NO_EPSILON = "no epsilon makes the commutator match"


def _square_forms(rs, s: int):
    """The forms attached to square s, named as in _ledger_target, in the
    order the fixes-square check reads them."""
    PI2, TWO_PI3, PI = FormKind
    m = _members(rs, s)
    ij = zip(m[::2], m[1::2])
    return [f for i, j in ij for f in ((PI2, i, j), (TWO_PI3, i, j), (TWO_PI3, j, i), (PI, i, j))]


def _square_verdict(config, moved):
    """The fixes-square result from whether each form of _square_forms moved,
    in order; a RuntimeError ends the list, the result unless a form moved."""
    for m in moved:
        if isinstance(m, RuntimeError):
            return m
        if m:
            return CommutatorResult(False, config, mode="fixes-square", detail=_MOVED)
    return CommutatorResult(True, config, mode="fixes-square")


def _reduction_plan(rs, r: int, s: int):
    """What the commutator reduction of root number r against square s
    decides before any arithmetic: (config, plan), plan being a failed
    CommutatorResult, None for the fixes-square sub-case, or the factors
    (a, b, their angle classes) of the decomposition x_rho(xi) =
    [x_a(xi), x_b(eps)] that rho's angle class (pi/2 or pi/3) names."""
    sigma, members = rs.square_index.sigma[s], _members(rs, s)
    kind, _ = position_class(rs, r, sigma, members)
    config = {"rho": list(rs.roots[r]), "sigma": sigma.tolist(), "class": kind.value}
    # Per doubled products of rho with a pair, which member of the first
    # such pair the factors are made from.
    if kind is SquareAngle.PERP:
        which = {(1, -1): 1, (-1, 1): 0}
        expected = (SquareAngle.IN_SQUARE, SquareAngle.OPPOSITE_SQUARE)
    elif kind is SquareAngle.THIRD:
        which = {(1, 0): 0, (0, 1): 1}
        expected = (SquareAngle.TWO_THIRDS, SquareAngle.IN_SQUARE)
    else:
        raise ValueError("commutator reduction applies to angle classes pi/2 and pi/3 only")
    chosen = None
    products = rs.gram[r, members].tolist()
    for p in range(0, len(members), 2):
        at = which.get(tuple(products[p : p + 2]))
        if at is not None:
            chosen = members[p + at]
            break
    if chosen is None and kind is SquareAngle.PERP:
        return config, None
    if chosen is None:
        return config, CommutatorResult(False, config, detail="no member at angle pi/3 found")
    if kind is SquareAngle.PERP:
        # beta_{-j} + rho, which lies in the square, and -beta_{-j}.
        a, b = int(rs.sums[chosen, r]), int(rs.neg[chosen])
    else:
        a, b = int(rs.sums[r, rs.neg[chosen]]), chosen  # rho - beta_{-1}
    if a < 0:
        return config, CommutatorResult(False, config, detail="factor is not a root")
    factor_classes = tuple(position_class(rs, x, sigma, members)[0].value for x in (a, b))
    if factor_classes != tuple(k.value for k in expected):
        detail = "factor angle classes differ from the named ones"
        return config, CommutatorResult(False, config, factor_classes=factor_classes, detail=detail)
    return config, (a, b, factor_classes)


def commutator_reductions(rs: RootSystem, signs: SignTable, configs) -> list:
    """The commutator reduction of each (rho, square) of root and square
    numbers, checked together on integer coefficient arrays: per config,
    its CommutatorResult, or the RuntimeError its set-up raised.  The reduction is found for rho's
    angle class and holds if some eps in (1, -1) makes the commutator equal
    x_rho(xi) as a matrix polynomial in xi.  One sub-case of class pi/2 has
    no such decomposition: rho orthogonal to every member of the square
    (on D_l for l >= 6 and on E_7, never on D_5, E_6 or E_8).  There
    x_rho(xi) must fix every form of the square, checked as the ledger
    check with no target forms (mode "fixes-square")."""
    results, reductions, fixed = [], [], []
    for r, s in configs:
        try:
            config, plan = _reduction_plan(rs, r, s)
        except RuntimeError as exc:
            results.append(exc)
            continue
        if plan is None:
            fixed.append((len(results), config, r, _square_forms(rs, s)))
        elif not isinstance(plan, CommutatorResult):
            a, b, classes = plan
            reductions.append((len(results), config, classes, (r, a, b)))
        results.append(plan)

    if reductions:
        rho, a, b = np.array([pos for *_, pos in reductions], dtype=np.int64).T
        epsilon = np.zeros(len(rho), dtype=np.int64)
        for eps in (1, -1):
            left = np.flatnonzero(epsilon == 0)
            if len(left):
                match = batch.commutator_block(rs, signs, rho[left], a[left], b[left], eps)
                epsilon[left[match]] = eps
        for (i, config, classes, _), eps in zip(reductions, epsilon.tolist()):
            if eps:
                results[i] = CommutatorResult(True, config, epsilon=eps, factor_classes=classes)
            else:
                results[i] = CommutatorResult(False, config, detail=_NO_EPSILON)

    residuals = iter(
        _ledger_residuals(rs, signs, [(rho, g, []) for _, _, rho, forms in fixed for g in forms])
    )
    for i, config, _, forms in fixed:
        results[i] = _square_verdict(config, [next(residuals) for _ in forms])
    return results


def verify_orbit_membership(
    rs: RootSystem,
    signs: SignTable,
    eqset: EquationSet,
    word: Word,
    rho: Root,
    ring: Ring,
):
    """Evaluate every form on (word applied to e^rho).

    Returns (all_vanish, witness); a False verdict is a result, not an
    error, so callers can use it for negative controls.
    """
    v = apply_word(rs, signs, word, basis_vector(rs, ring, rho))
    return eqset.check_vector(v)


# ---------------------------------------------------------------------------
# Sampling helpers.


def _rng_for(seed, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


# The doubled product with sigma of a root in each angle class of the ledger.
CASE_PRODUCTS = {"0": 2, "pi": -2, "2pi/3": -1}


def sample_case_config(rs, rng, entry, configs: batch.Configs) -> tuple[int, int, int]:
    """A single (alpha, beta, rho) of root numbers landing in the given
    ledger entry: (rho, square) drawn from configs, the configurations at
    the doubled product CASE_PRODUCTS names for the entry's angle, and the
    pair (alpha, beta) of that square the sub-case names."""
    angle, phi, subcase = entry
    r, s = configs.draw(rng)
    members = _members(rs, s)
    if angle == "2pi/3":
        # Order a pair to put the product with rho the sub-case names on alpha.
        x = rng.randrange(len(members))
        want = rng.choice((-1, 0)) if subcase == "any" else -1 if subcase == "(b1,rho)=-1" else 0
        x ^= int(rs.gram[members[x], r] != want)
        if rs.gram[members[x], r] != want:
            raise RuntimeError("2pi/3 pair pattern violated")
        return members[x], members[x ^ 1], r
    # Classes 0 and pi: p is the position of rho or -rho in the square.
    _, p = position_class(rs, r, rs.square_index.sigma[s], members)
    if subcase == "j=1":
        x = p
    elif subcase == "j=-1":
        x = p ^ 1
    elif subcase == "j!=+-1":
        x = rng.randrange(len(members) - 2)
        x += 2 * (x >= p - p % 2)
    else:
        x = rng.randrange(len(members))
    return members[x], members[x ^ 1], r


def _checked(samples: int, draw, check, failures: list):
    """(config, result) for each of `samples` draws, checked a block at a
    time by check(configs); a draw that raises is a failure entry instead."""
    for lo in range(0, samples, batch.BLOCK):
        configs = []
        for _ in range(min(batch.BLOCK, samples - lo)):
            try:
                configs.append(draw())
            except RuntimeError as exc:
                failures.append({"error": str(exc)})
        yield from zip(configs, check(configs))


# ---------------------------------------------------------------------------
# Suites.


def suite_jacobi(rs: RootSystem, signs: SignTable, seed=0) -> SuiteReport:
    """Structure-constant identities: support, antisymmetry, negation, the
    triangle rule, the orthogonal-quadruple rule, and the Jacobi cocycle,
    each on every case.  The seed is only recorded."""
    t0 = time.perf_counter()
    rep = SuiteReport("jacobi", str(rs.system), seed)

    table, gram, neg, index = signs.table, rs.gram, rs.neg, rs.square_index
    n, roots = rs.n_roots, rs.roots

    bad = int(np.count_nonzero((table != 0) != (gram == -1)))
    rep.add("nonzero-iff-sum-is-root", n * n, [{"count": bad}] * (1 if bad else 0))

    bad = int(np.count_nonzero(table + table.T))
    rep.add("antisymmetry", n * n, [{"count": bad}] * (1 if bad else 0))

    bad = int(np.count_nonzero(table[np.ix_(neg, neg)] + table))
    rep.add("negation", n * n, [{"count": bad}] * (1 if bad else 0))

    ii, jj = np.nonzero(gram == -1)
    kk = rs.sums[ii, jj]
    gg = neg[kk]
    t1 = table[ii, jj]
    t2 = table[jj, gg]
    t3 = table[gg, ii]
    bad = int(np.count_nonzero((t1 != t2) | (t2 != t3)))
    rep.add("triangle", len(ii), [{"count": bad}] * (1 if bad else 0))

    quads, triples, cartan = batch.jacobi_samples(rs)
    tb = batch.Tables(rs, signs)

    def root_lists(*positions):
        return [list(roots[x]) for x in positions]

    # N_{a,-g} N_{b,-d} = N_{a,-d} N_{b,-g} on two pairs of one square.
    count, kept, _ = batch.flagged(batch.quadruple_block, tb, quads, lambda bad: bad)
    failures = []
    for sq, p, q in zip(*kept):
        a, b, g, d = batch.quadruple(index, sq, p, q)
        failures.append({"pair": root_lists(a, b), "other": root_lists(g, d)})
    rep.add("orthogonal-quadruple", count, failures)

    # Pure-N Jacobi cocycle on triples with alpha+beta and alpha+beta+gamma
    # roots and no two of alpha, beta, gamma opposite (opposite pairs bracket
    # into the Cartan part, handled by the next check).
    count, kept, _ = batch.flagged(batch.cocycle_block, tb, triples, lambda bad: bad)
    rep.add("jacobi-cocycle", count, [{"triple": root_lists(*x)} for x in zip(*kept)])

    # Jacobi with gamma = -beta: the middle bracket lands in the Cartan part,
    # [e_b, e_-b] = h_b, contributing the pairing <alpha, beta>.
    count, kept, _ = batch.flagged(batch.cartan_block, tb, cartan, lambda bad: bad)
    rep.add("cartan-jacobi", count, [{"pair": root_lists(*x)} for x in zip(*kept)])

    rep.wall_time_s = time.perf_counter() - t0
    return rep


def suite_combinatorics(rs: RootSystem, signs: SignTable, seed=0) -> SuiteReport:
    """Square census, companion-set cardinalities and cross-construction,
    the five-class position lemma, sign columns, modified squares,
    conjugate pairs, and the A_3 to D_4 extension, each on every case.  The
    seed is only recorded."""
    t0 = time.perf_counter()
    rep = SuiteReport("combinatorics", str(rs.system), seed)
    tb = batch.Tables(rs, signs)
    gram, roots, squares = rs.gram, rs.roots, rs.squares
    size = rs.square_index.size

    n_pairs = int(np.count_nonzero(np.triu(gram == 0, k=1)))
    # Squares partition the orthogonal pairs; every E-system square has
    # exactly k pairs, D_l squares have l-1 or 3.
    sizes_ok = (
        all(sq.k == rs.k for sq in squares)
        if rs.system.family == "E"
        else all(sq.k in (rs.rank - 1, 3) for sq in squares)
    )
    ok_census = sum(sq.k for sq in squares) == n_pairs and sizes_ok
    rep.add(
        "square-census",
        1,
        [] if ok_census else [{"squares": len(squares), "k": rs.k, "pairs": n_pairs}],
    )

    pairs, configs, sign_squares, modified, triples = batch.combinatorics_samples(rs)

    def pair(x, y):
        return [list(roots[x]), list(roots[y])]

    def signed(pos):
        return int(pos // 2 + 1) * (1 if pos % 2 == 0 else -1)

    # Companion sets: the direct scans against the square formulas, the
    # counts, the square made of S_pi negatives, and conjugate pairs.
    count, (alpha, beta), (differ, wrong, conj_bad) = batch.flagged(
        batch.companion_block, tb, pairs, lambda *flags: np.logical_or.reduce(flags)
    )
    failures = [
        {"pair": pair(alpha[x], beta[x]), "error": _SCAN_DISAGREES}
        if differ[x]
        else {"pair": pair(alpha[x], beta[x])}
        for x in np.flatnonzero(differ | wrong)
    ]
    rep.add("companion-sets", count, failures)
    conj_failures = [
        {"pair": pair(alpha[x], beta[x])} for x in np.flatnonzero(conj_bad & ~differ & ~wrong)
    ]
    rep.add("conjugate-pairs", count, conj_failures)

    # Position lemma.  A class that cannot be resolved fails with
    # position_class's message.
    count, (rho, cl_sq), (d, missing) = batch.position_failures(tb, configs)
    failures = []
    for r, s, dx, miss in zip(rho, cl_sq, d.tolist(), missing):
        root, sq = roots[r], squares[s]
        failure = {"rho": list(root), "sigma": list(sq.sigma)}
        kind = _ANGLE_BY_DOT2.get(dx)
        if kind is None:
            failure["error"] = _impossible_product(dx, sq.sigma)
        elif miss:
            failure["error"] = _not_a_member(root, kind is SquareAngle.OPPOSITE_SQUARE)
        else:
            failure["class"] = kind.value
        failures.append(failure)
    rep.add("position-classes", count, failures)

    # Sign-column lemma: c(h) = c(h)_j * c(j) componentwise.
    _, (sc_sq,), (bad,) = batch.flagged(
        batch.sign_column_block, tb, sign_squares, lambda bad: bad.any((1, 2))
    )
    failures = [
        {"sigma": list(squares[sc_sq[x]].sigma), "j": signed(j), "h": signed(h)}
        for x, j, h in zip(*np.nonzero(bad))
    ]
    rep.add("sign-columns", int(np.sum(size**2)), failures)

    # Modified squares keep the stated members and stay maximal squares.
    _, (ms_sq,), (error, bad) = batch.flagged(
        batch.modified_square_block, tb, modified, lambda error, bad: (error | bad).any(1)
    )
    failures = [
        {"sigma": list(squares[ms_sq[x]].sigma), "j": signed(j), "error": _NOT_A_ROOT}
        if error[x, j]
        else {"sigma": list(squares[ms_sq[x]].sigma), "j": signed(j)}
        for x, j in zip(*np.nonzero(error | bad))
    ]
    rep.add("modified-squares", int(np.sum(size)), failures)

    # A_3 triples extend to D_4.
    count, kept, (found, delta, _) = batch.flagged(
        batch.a3_block, tb, triples, lambda found, delta, ok: ~ok
    )
    failures = []
    for x, fx, dx in zip(zip(*kept), found, delta):
        triple = [roots[v] for v in x]
        if fx:
            failures.append({"triple": [list(r) for r in triple], "delta": list(roots[dx])})
        else:
            failures.append({"triple": [list(r) for r in triple], "error": _no_extension(*triple)})
    rep.add("a3-extension", count, failures)

    rep.wall_time_s = time.perf_counter() - t0
    return rep


def suite_cases(rs: RootSystem, signs: SignTable, seed=0, samples: int | None = None) -> SuiteReport:
    """The symbolic case-identity ledger, sampled per entry; a draw that
    fails is a failure entry of its entry's check."""
    t0 = time.perf_counter()
    rep = SuiteReport("cases", str(rs.system), seed)
    if samples is None:
        samples = 100
    configs = {angle: batch.Configs(rs, d) for angle, d in CASE_PRODUCTS.items()}
    for entry in LEDGER_ENTRIES:
        angle, phi, subcase = entry
        rng = _rng_for(seed, f"cases/{angle}/{phi.value}/{subcase}")
        failures = []
        draw = partial(sample_case_config, rs, rng, entry, configs[angle])
        check = partial(case_identities, rs, signs, phi)
        for drawn, result in _checked(samples, draw, check, failures):
            if isinstance(result, RuntimeError):
                roots = (list(rs.roots[x]) for x in drawn)
                config = dict(zip(("alpha", "beta", "rho"), roots))
                failures.append({"config": config, "error": str(result)})
            elif result.angle != angle or (
                subcase not in ("re-rooted", "any") and result.subcase != subcase
            ):
                failures.append({"config": result.config, "error": "sampler missed the sub-case"})
            elif not result.ok:
                failures.append({"config": result.config, "residual": result.residual})
        rep.add(f"{angle}/{phi.value}/{subcase}", samples, failures)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def suite_commutator(
    rs: RootSystem, signs: SignTable, seed=0, samples: int | None = None
) -> SuiteReport:
    """Commutator reductions for the two classes without direct identities,
    sampled per class; a config where rho is orthogonal to the whole square
    (no decomposition exists) is checked by the fixes-square route, and a
    draw that fails is a failure entry of its class's check."""
    t0 = time.perf_counter()
    rep = SuiteReport("commutator", str(rs.system), seed)
    if samples is None:
        samples = 100
    check = partial(commutator_reductions, rs, signs)
    for label, d in (("pi/2", 0), ("pi/3", 1)):
        rng = _rng_for(seed, f"commutator/{label}")
        configs = batch.Configs(rs, d)
        failures = []
        modes = {"reduction": 0, "fixes-square": 0}
        for (r, s), result in _checked(samples, partial(configs.draw, rng), check, failures):
            if isinstance(result, RuntimeError):
                rho, sigma = list(rs.roots[r]), rs.square_index.sigma[s].tolist()
                failures.append({"rho": rho, "sigma": sigma, "error": str(result)})
            elif not result.ok:
                failures.append({"config": result.config, "detail": result.detail})
            else:
                modes[result.mode] += 1
        rep.add(f"class-{label}", samples, failures)
        rep.checks[-1]["reductions"] = modes["reduction"]
        rep.checks[-1]["fixes_square"] = modes["fixes-square"]
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def suite_words(
    rs: RootSystem,
    signs: SignTable,
    eqset: EquationSet,
    seed=0,
    samples: int | None = None,
    rings: tuple[Ring, ...] | None = None,
) -> SuiteReport:
    """Random elementary words: every form vanishes on g e^rho over every ring."""
    t0 = time.perf_counter()
    rep = SuiteReport("words", str(rs.system), seed)
    if samples is None:
        samples = 100
    if rings is None:
        rings = (IntegerRing(), IntegersMod(4), IntegersMod(7))
    for ring in rings:
        rng = _rng_for(seed, f"words/{ring.name}")
        failures = []
        for _ in range(samples):
            length = rng.randint(0, _MAX_WORD_LENGTH)
            factors = []
            for _ in range(length):
                rho = rs.roots[batch.draw_root(rs, rng)]
                if isinstance(ring, IntegersMod):
                    xi = rng.randrange(ring.modulus)
                else:
                    xi = rng.randint(-2, 2)
                factors.append(Elementary(rho, xi))
            word = Word(tuple(factors))
            rho0 = rs.roots[batch.draw_root(rs, rng)]
            ok, witness = verify_orbit_membership(rs, signs, eqset, word, rho0, ring)
            if not ok:
                failures.append(
                    {"word": word.to_json(ring), "rho": list(rho0), "witness": witness}
                )
        rep.add(f"ring-{ring.name}", samples, failures)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def suite_orbit(
    rs: RootSystem, signs: SignTable, eqset: EquationSet, seed=0, samples: int | None = None
) -> SuiteReport:
    """Base cases and controls: every form vanishes on every e^rho, at least
    one form is nonzero on the first zero-weight basis vector, inverses
    cancel, and the one-parameter law holds on random vectors."""
    t0 = time.perf_counter()
    rep = SuiteReport("orbit", str(rs.system), seed)
    if samples is None:
        samples = 50
    ring = IntegerRing()

    failures = []
    for rho in rs.roots:
        ok, witness = eqset.check_vector(basis_vector(rs, ring, rho))
        if not ok:
            failures.append({"rho": list(rho), "witness": witness})
    rep.add("vanishing-on-basis-roots", rs.n_roots, failures)

    ok, witness = eqset.check_vector(basis_vector(rs, ring, ZeroWeight(1)))
    rep.add(
        "negative-control-zero-weight",
        1,
        [] if not ok else [{"error": "every form vanished on the zero-weight vector"}],
    )

    rng = _rng_for(seed, "orbit/laws")
    mod7 = IntegersMod(7)
    failures = []
    for _ in range(samples):
        r = mod7 if rng.random() < 0.5 else ring
        v = AdjointVector(
            rs,
            r,
            [
                rng.randrange(7) if isinstance(r, IntegersMod) else rng.randint(-3, 3)
                for _ in range(rs.dim_v)
            ],
        )
        rho = rs.roots[batch.draw_root(rs, rng)]
        if isinstance(r, IntegersMod):
            xi, eta = rng.randrange(7), rng.randrange(7)
        else:
            xi, eta = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = apply_elementary(
            rs, signs, Elementary(rho, xi), apply_elementary(rs, signs, Elementary(rho, eta), v)
        )
        rhs = apply_elementary(rs, signs, Elementary(rho, r.add(xi, eta)), v)
        undone = apply_elementary(
            rs, signs, Elementary(rho, r.neg(xi)), apply_elementary(rs, signs, Elementary(rho, xi), v)
        )
        if lhs.coords != rhs.coords or undone.coords != v.coords:
            failures.append({"rho": list(rho), "ring": r.name})
    rep.add("one-parameter-and-inverse-laws", samples, failures)

    rep.wall_time_s = time.perf_counter() - t0
    return rep


def run_suite(
    system: str,
    suite: str = "all",
    seed: int = 0,
    samples: int | None = None,
    rings: tuple[Ring, ...] | None = None,
    progress=None,
) -> Reports:
    """Build the system once and dispatch to the requested suites.

    samples reaches the cases, commutator, words and orbit suites; jacobi
    and combinatorics check every case.  progress, when given, is called
    with one line per finished check.
    """
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    wanted = SUITE_NAMES if suite == "all" else (suite,)
    setup_s = {}

    def timed(phase: str, build, *args):
        t0 = time.perf_counter()
        out = build(*args)
        setup_s[phase] = time.perf_counter() - t0
        return out

    rs = timed("build_root_system", build_root_system, system)
    signs = timed("build_sign_table", build_sign_table, rs)
    eqset = None
    if "words" in wanted or "orbit" in wanted:
        eqset = timed("generate_all_equations", generate_all_equations, rs, signs)
    reports = Reports(setup_s=setup_s)
    for name in wanted:
        if name == "jacobi":
            rep = suite_jacobi(rs, signs, seed)
        elif name == "combinatorics":
            rep = suite_combinatorics(rs, signs, seed)
        elif name == "cases":
            rep = suite_cases(rs, signs, seed, samples)
        elif name == "commutator":
            rep = suite_commutator(rs, signs, seed, samples)
        elif name == "words":
            rep = suite_words(rs, signs, eqset, seed, samples, rings)
        else:
            rep = suite_orbit(rs, signs, eqset, seed, samples)
        reports.append(rep)
        if progress is not None:
            for check in rep.checks:
                status = "ok" if check["passed"] == check["attempted"] else "FAIL"
                progress(
                    f"[{rep.suite}] {check['name']}: "
                    f"{check['passed']}/{check['attempted']} {status}"
                )
    return reports

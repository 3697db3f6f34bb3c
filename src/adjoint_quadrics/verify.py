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
check.  A check's draws are one loop of random calls whose numbers are
resolved as arrays afterwards (sample_case_configs, Configs.at), and a
sample stays root and square numbers from its draw to its report.  The
cases suite sets every entry's samples up together as arrays
(_case_setup): the angle class from rho's doubled product with the
square's sigma, the sub-case, and the target forms, named by kind and
pair.  It draws, sets up and checks CASE_CHUNK draws of every entry
together, the ledger LEDGER_BLOCK cases at a time, and builds a
CaseResult, with its config and residual, only for a case that its report
lists.  The commutator suite classes each sample by
squares.position_class (_reduction_plan).  The forms come from equations.form_monomials, the
kernels that generate the equation set, so the ledger checks what
check_vector evaluates; a form they do not build fails its case with the
cause that equations.missing_form words.  A failing case's residual is
printed as the Poly it equals.  Under --timing both suites report the time
and item count of their draw, setup and ledger phases (SuiteReport.phases).
The tests keep the draws and the set-up one case at a time, and an
evaluation of the same forms over PolynomialRing, as the references the
batched suites are compared with (tests/reference.py); they share with the
suites what _reduction_plan, _square_forms and _square_verdict decide and
the forms _ledger_arrays reads.

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

import bisect
import json
import random
import time
from dataclasses import dataclass, field

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
from .equations import (
    _KINDS,
    EquationSet,
    FormKind,
    form_monomials,
    generate_all_equations,
    missing_form,
)
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
    # Per phase of the cases and commutator suites (draw, setup, ledger):
    # {"s": seconds, "items": count}, reported only with the timing.
    phases: dict = field(default_factory=dict)

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
            if self.phases:
                doc["phases"] = self.phases
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

# A form's kind is its position in _KINDS (FormKind's order), a case's
# sub-case its position in SUBCASES, and its angle class ANGLES[d + 2] for
# rho's doubled product d with the square's sigma.
SUBCASES = ("re-rooted", "any", "j=1", "j=-1", "j!=+-1", "(b1,rho)=-1", "(b1,rho)=0")
_RE_ROOTED, _ANY, _J1, _J_1, _J_OTHER, _B_1, _B0 = range(len(SUBCASES))
ANGLES = np.array([_ANGLE_BY_DOT2[d].value for d in range(-2, 3)])


@dataclass
class CaseResult:
    ok: bool
    angle: str
    phi: str
    subcase: str
    config: dict
    residual: str | None = None


def _position(index, s, member):
    """Per case x: the first position in square s[x]'s members (pair
    layout) that holds the root number member[x], or -1."""
    j = np.arange(int(index.size.max()))
    at = np.minimum(index.start[s][:, None] + j, len(index.members) - 1)
    hit = (index.members[at] == member[:, None]) & (j < index.size[s][:, None])
    return np.where(hit.any(1), hit.argmax(1), -1)


def _case_setup(rs, signs, phi, a, b, r):
    """What the ledger cases of the forms phi (positions in FormKind) at
    root numbers (alpha, beta, rho) decide before any arithmetic, as arrays:
    (d, sub, a, b, rows, errors).

    d is rho's doubled product with the sigma of the square that (alpha,
    beta) is filed under, which names the angle class; sub is the sub-case,
    a position in SUBCASES; (a, b) is the form's pair, the pi/2 form rooted
    at rho's own pair in class 0.  rows are the forms the ledger reads,
    (case, coeff, power, kind, i, j), each case's own form (power -1)
    before its target forms coeff xi^power g.  errors maps each case whose
    set-up fails to the message of the first check it fails."""
    index, neg, sums = rs.square_index, rs.neg, rs.sums
    PI2, TWO_PI3, PI = range(3)
    s = index.square_of[a, b]
    unfiled = s < 0
    s = np.where(unfiled, 0, s)
    d = (rs.pairings[r] * index.sigma[s]).sum(1)
    # The position p of rho (class 0) or -rho (class pi) in the square, and
    # the member it is paired with.
    own = np.where(d == 2, r, neg[r])
    p = _position(index, s, own)
    mate = index.members[index.start[s] + (p ^ 1)]

    errors = {}
    for bad, message in (
        (unfiled, lambda x: _no_square(rs.roots[a[x]], rs.roots[b[x]])),
        (
            (d < -2) | (d > 2),
            lambda x: _impossible_product(int(d[x]), tuple(int(v) for v in index.sigma[s[x]])),
        ),
        ((np.abs(d) == 2) & (p < 0), lambda x: _not_a_member(rs.roots[r[x]], d[x] == -2)),
        ((d == 0) | (d == 1), lambda x: f"no ledger entry for angle class {ANGLES[d[x] + 2]}"),
    ):
        for x in np.flatnonzero(bad).tolist():
            errors.setdefault(x, message(x))

    in0 = d == 2
    rooted = in0 & (phi == PI2)
    a, b = np.where(rooted, r, a), np.where(rooted, mate, b)
    j = np.select([own == a, own == b], [_J1, _J_1], _J_OTHER)
    two_thirds = np.where(rs.gram[a, r] == -1, _B_1, _B0)
    sub = np.where(phi == PI2, np.where(in0, _RE_ROOTED, _ANY), np.where(d == -1, two_thirds, j))

    n = len(r)
    ok = np.ones(n, dtype=bool)
    ok[list(errors)] = False
    nr, na, nb = neg[r], neg[a], neg[b]
    c0, cpi, c23 = ok & in0, ok & (d == -2), ok & (d == -1)

    def entry(cls, kind, subcase):
        return cls & (phi == kind) & (sub == subcase)

    # (cases, coeff, power, kind, i, j): the target forms, the first of each
    # case before its second.
    targets = (
        (c0 & (phi == PI2), -1, 1, TWO_PI3, mate, nr),
        (entry(c0, TWO_PI3, _J1), -1, 1, PI, a, b),
        (entry(c0, TWO_PI3, _J_1), -2, 1, PI2, a, nb),
        (entry(c0, TWO_PI3, _J_OTHER), signs.table[a, nr], 1, TWO_PI3, sums[a, nr], sums[r, nb]),
        (entry(c0, PI, _J1), -2, 1, TWO_PI3, na, nb),
        (entry(c0, PI, _J_1), -2, 1, TWO_PI3, nb, na),
        (entry(c0, PI, _J_OTHER), 1, 1, TWO_PI3, nr, mate),
        (entry(cpi, TWO_PI3, _J_1), 2, 1, PI2, a, b),
        (entry(cpi, PI, _J1), 2, 1, TWO_PI3, a, nb),
        (entry(cpi, PI, _J_1), -2, 1, TWO_PI3, b, a),
        (entry(cpi, PI, _J_OTHER), 1, 1, TWO_PI3, nr, neg[mate]),
        (entry(c23, TWO_PI3, _B0), 1, 1, PI2, a, nr),
        (entry(c23, PI, _B_1), -1, 1, TWO_PI3, nr, b),
        (entry(c23, PI, _B0), -1, 1, TWO_PI3, nr, a),
        (c0 & (phi == PI2), -1, 2, PI2, mate, nr),
        (entry(c0, TWO_PI3, _J1), 1, 2, TWO_PI3, na, nb),
    )
    rows = []
    for cases, *columns in ((ok, 1, -1, phi, a, b), *targets):
        x = np.flatnonzero(cases)
        rows.append((x, *(np.broadcast_to(c, n)[x] for c in columns)))
    rows = tuple(np.concatenate(c) for c in zip(*rows))
    return d, sub, a, b, rows, errors


def _ledger_arrays(rs, signs, rows):
    """What batch.ledger_block reads for the cases whose forms are rows,
    (case, coeff, power, kind, i, j) with each case's own form (power -1)
    before its target forms, from form_monomials: the own forms' monomials
    (case, a, b, c), the targets' terms (case, power, a, b, coeff * c), and
    a dict from each case with a form that form_monomials does not build
    to the message naming the first such form and why (missing_form)."""
    case, weight, power, kinds, ii, jj = rows
    missing, (f, a, b, c) = form_monomials(rs, signs, kinds, ii, jj)
    bad = np.flatnonzero(missing)
    bad = bad[np.unique(case[bad], return_index=True)[1]]
    errors = {int(case[x]): missing_form(rs, int(missing[x]), ii[x], jj[x]) for x in bad}
    case, weight, power = case[f], weight[f], power[f]
    own = power < 0
    target = (case[~own], power[~own], a[~own], b[~own], weight[~own] * c[~own])
    return (case[own], a[own], b[own], c[own]), target, errors


def _ledger_residuals(rs, signs, rho, rows):
    """The cases of root numbers rho whose forms are rows (as _ledger_arrays
    reads them), through batch.ledger_block LEDGER_BLOCK cases at a time:
    the nonzero terms (case, degree, p, q, coef) of f(x_rho(xi) v) - f(v) -
    sum coeff xi^power g(v), v generic, in case order, and _ledger_arrays'
    errors."""
    rows = tuple(x[np.argsort(rows[0], kind="stable")] for x in rows)
    terms, errors = [(np.zeros(0, dtype=np.int64),) * 5], {}
    for lo in range(0, len(rho), batch.LEDGER_BLOCK):
        hi = lo + batch.LEDGER_BLOCK
        case, *rest = (x[slice(*np.searchsorted(rows[0], [lo, hi]))] for x in rows)
        form, target, missing = _ledger_arrays(rs, signs, (case - lo, *rest))
        errors.update((lo + x, message) for x, message in missing.items())
        case, *found = batch.ledger_block(rs, signs, rho[lo:hi], form, target)
        terms.append((case + lo, *found))
    return tuple(np.concatenate(c) for c in zip(*terms)), errors


def _residual_text(rs, terms) -> str:
    """str() of the Poly with these terms, over the variables xi, v0, v1,
    ... registered in that order."""
    ring = PolynomialRing()
    ring.variable("xi")
    generic_vector(rs, ring)
    return str(Poly(ring, {(0,) * d + (p + 1, q + 1): c for d, p, q, c in terms}))


class CaseResults:
    """case_identities' outcome.  Per case x: ok[x], whether its identity
    holds; angle[x] and subcase[x], the labels of the ledger entry it
    landed in (meaningful where its set-up did not fail); and result(x), its
    CaseResult or the RuntimeError its set-up raised, built when it is read."""

    def __init__(self, rs, phi, a, b, r, d, sub, errors, terms):
        self._rs, self._phi, self._pairs, self._errors = rs, phi, (a, b, r), errors
        self._case, *self._terms = terms
        self.ok = np.bincount(self._case, minlength=len(r)) == 0
        self.ok[list(errors)] = False
        self.angle = ANGLES[np.clip(d + 2, 0, 4)]
        self.subcase = np.array(SUBCASES)[sub]

    def result(self, x: int):
        if x in self._errors:
            return RuntimeError(self._errors[x])
        rs, phi = self._rs, _KINDS[self._phi[x]]
        roots = [list(rs.roots[v[x]]) for v in self._pairs]
        config = dict(zip(("alpha", "beta", "rho"), roots), phi=phi.value)
        lo, hi = np.searchsorted(self._case, [x, x + 1])
        terms = list(zip(*(t[lo:hi].tolist() for t in self._terms)))
        residual = _residual_text(rs, terms) if terms else None
        return CaseResult(
            not terms, str(self.angle[x]), phi.value, str(self.subcase[x]), config, residual
        )


def case_identities(rs: RootSystem, signs: SignTable, phi, alpha, beta, rho, phases=None):
    """The ledger identity of the form phi[x] (a position in FormKind) at
    each (alpha[x], beta[x], rho[x]) of root numbers, set up as arrays and
    checked together on integer coefficient arrays: their CaseResults.
    phases, a SuiteReport's, gets the set-up and ledger times."""
    t0 = time.perf_counter()
    phi, a, b, r = (np.asarray(x, dtype=np.int64) for x in (phi, alpha, beta, rho))
    d, sub, a, b, rows, errors = _case_setup(rs, signs, phi, a, b, r)
    t0 = _clock(phases, "setup", len(r), t0)
    terms, missing = _ledger_residuals(rs, signs, r, rows)
    _clock(phases, "ledger", len(r) - len(errors), t0)
    errors.update(missing)
    return CaseResults(rs, phi, a, b, r, d, sub, errors, terms)


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


def _members(rs, s: int) -> list[int]:
    """The member numbers of square s, in pair layout."""
    index = rs.square_index
    return index.members[index.start[s] :][: index.size[s]].tolist()


def _square_forms(rs, s: int):
    """The forms attached to square s, each (FormKind, i, j) for its pair of
    root numbers, in the order the fixes-square check reads them."""
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


def commutator_reductions(rs: RootSystem, signs: SignTable, configs, phases=None) -> list:
    """The commutator reduction of each (rho, square) of root and square
    numbers, checked together on integer coefficient arrays: per config,
    its CommutatorResult, or the RuntimeError its set-up raised.  phases, a
    SuiteReport's, gets the set-up and ledger times.  The reduction is found
    for rho's angle class and holds if some eps in (1, -1) makes the
    commutator equal
    x_rho(xi) as a matrix polynomial in xi.  One sub-case of class pi/2 has
    no such decomposition: rho orthogonal to every member of the square
    (on D_l for l >= 6 and on E_7, never on D_5, E_6 or E_8).  There
    x_rho(xi) must fix every form of the square, checked as the ledger
    check with no target forms (mode "fixes-square")."""
    t0 = time.perf_counter()
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
    t0 = _clock(phases, "setup", len(configs), t0)

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

    # The fixes-square check: each form of the square is a case with no
    # target forms.
    forms = [(r, _KINDS.index(k), i, j) for _, _, r, fs in fixed for k, i, j in fs]
    rho, kinds, ii, jj = np.array(forms, dtype=np.int64).reshape(-1, 4).T
    n = len(rho)
    rows = (np.arange(n), np.ones(n, dtype=np.int64), np.full(n, -1), kinds, ii, jj)
    (case, *_), errors = _ledger_residuals(rs, signs, rho, rows)
    moved = iter(
        RuntimeError(errors[x]) if x in errors else m
        for x, m in enumerate((np.bincount(case, minlength=n) > 0).tolist())
    )
    for i, config, _, forms in fixed:
        results[i] = _square_verdict(config, [next(moved) for _ in forms])
    _clock(phases, "ledger", len(reductions) + len(fixed), t0)
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


def _clock(phases: dict | None, name: str, items: int, t0: float) -> float:
    """Add the seconds since t0 and the items to phase `name` of phases (a
    SuiteReport's), unless phases is None; return the time now."""
    now = time.perf_counter()
    if phases is not None:
        phase = phases.setdefault(name, {"s": 0.0, "items": 0})
        phase["s"] += now - t0
        phase["items"] += items
    return now


# The doubled product with sigma of a root in each angle class of the ledger.
CASE_PRODUCTS = {"0": 2, "pi": -2, "2pi/3": -1}


def sample_case_configs(rs, rng, entry, configs: batch.Configs, samples: int):
    """`samples` draws of (alpha, beta, rho), root numbers landing in the
    given ledger entry: (rho, square) drawn from configs, the configurations
    at the doubled product CASE_PRODUCTS names for the entry's angle, and
    the pair (alpha, beta) of that square the sub-case names.  Returns
    (alpha, beta, rho), -1 at a failed draw, and a dict from each failed
    draw to its message.

    The loop makes only the random calls: per draw, the configuration
    number, then what the sub-case asks, a position among the square's
    members, or all but rho's pair, and for class 2pi/3 the product with
    rho to put on alpha (tests/reference.py draws one at a time with the
    same calls).  The numbers are resolved after the loop.  A class 0 or
    pi draw whose rho (or -rho) is not a member fails before its sub-case's
    call, so where one does, the loop is made again from the same state
    with that call skipped, until every draw it skips is one that fails."""
    angle, phi, subcase = entry
    if not configs.total:
        none = np.full(samples, -1)
        return (none, none, none), dict.fromkeys(range(samples), configs.empty)
    # What the sub-case draws: a position among all members but `cut`.
    cut = 0 if angle == "2pi/3" else {"j=1": None, "j=-1": None, "j!=+-1": 2}.get(subcase, 0)
    choose = angle == "2pi/3" and subcase == "any"
    randrange, starts, total, size = rng.randrange, configs.starts, configs.total, configs.size
    index, state, skip = rs.square_index, rng.getstate(), set()
    while True:
        xs, ys, want = [], [], []
        for i in range(samples):
            x = randrange(total)
            xs.append(x)
            if cut is None or i in skip:
                ys.append(0)
                continue
            ys.append(randrange(size[bisect.bisect_right(starts, x) - 1] - cut))
            if choose:
                want.append(rng.choice((-1, 0)))
        r, s = configs.at(xs)
        start, y = index.start[s], np.array(ys)
        if angle == "2pi/3":
            break
        p = _position(index, s, r if angle == "0" else rs.neg[r])
        failed = np.flatnonzero(p < 0).tolist()
        if cut is None or set(failed) == skip:
            break
        skip = set(failed)
        rng.setstate(state)

    if angle == "2pi/3":
        # Order a pair to put the product with rho the sub-case names on alpha.
        if not choose:
            want = -1 if subcase == "(b1,rho)=-1" else 0
        x = y ^ (rs.gram[index.members[start + y], r] != want)
        failed = np.flatnonzero(rs.gram[index.members[start + x], r] != want).tolist()
        errors = dict.fromkeys(failed, "2pi/3 pair pattern violated")
    else:
        # p is the position of rho or -rho in the square.
        x = {"j=1": p, "j=-1": p ^ 1, "j!=+-1": y + 2 * (y >= p - p % 2)}.get(subcase, y)
        errors = {i: _not_a_member(rs.roots[r[i]], angle == "pi") for i in failed}
    alpha, beta = index.members[start + x], index.members[start + (x ^ 1)]
    for v in (alpha, beta, r):
        v[failed] = -1
    return (alpha, beta, r), errors


def _in_blocks(samples: int, errors: dict, flagged, failure) -> list:
    """The failure entries of a check of `samples` draws, in the order the
    suites listed them when they checked a block of BLOCK draws at a time:
    per block, its failed draws' errors, then failure(i) for each flagged
    draw i (in order)."""
    failures = []
    for lo in range(0, samples, batch.BLOCK):
        hi = lo + batch.BLOCK
        failures += [{"error": errors[i]} for i in sorted(errors) if lo <= i < hi]
        failures += [failure(i) for i in flagged if lo <= i < hi]
    return failures


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
    gram, roots, size = rs.gram, rs.roots, rs.square_index.size
    sigma = rs.square_index.sigma

    n_pairs = int(np.count_nonzero(np.triu(gram == 0, k=1)))
    # Squares partition the orthogonal pairs; every E-system square has
    # exactly k pairs, D_l squares have l-1 or 3.
    k = size // 2
    sizes_ok = bool(
        np.all(k == rs.k) if rs.system.family == "E" else np.all((k == rs.rank - 1) | (k == 3))
    )
    ok_census = int(k.sum()) == n_pairs and sizes_ok
    rep.add(
        "square-census",
        1,
        [] if ok_census else [{"squares": len(k), "k": rs.k, "pairs": n_pairs}],
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
        root = roots[r]
        failure = {"rho": list(root), "sigma": sigma[s].tolist()}
        kind = _ANGLE_BY_DOT2.get(dx)
        if kind is None:
            failure["error"] = _impossible_product(dx, tuple(failure["sigma"]))
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
        {"sigma": sigma[sc_sq[x]].tolist(), "j": signed(j), "h": signed(h)}
        for x, j, h in zip(*np.nonzero(bad))
    ]
    rep.add("sign-columns", int(np.sum(size**2)), failures)

    # Modified squares keep the stated members and stay maximal squares.
    _, (ms_sq,), (error, bad) = batch.flagged(
        batch.modified_square_block, tb, modified, lambda error, bad: (error | bad).any(1)
    )
    failures = [
        {"sigma": sigma[ms_sq[x]].tolist(), "j": signed(j), "error": _NOT_A_ROOT}
        if error[x, j]
        else {"sigma": sigma[ms_sq[x]].tolist(), "j": signed(j)}
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


def suite_cases(
    rs: RootSystem, signs: SignTable, seed=0, samples: int | None = None
) -> SuiteReport:
    """The symbolic case-identity ledger, sampled per entry; a draw that
    fails is a failure entry of its entry's check.  The draws of every
    entry are set up and checked together, CASE_CHUNK of each at a time."""
    t0 = time.perf_counter()
    rep = SuiteReport("cases", str(rs.system), seed)
    if samples is None:
        samples = 100
    configs = {angle: batch.Configs(rs, d) for angle, d in CASE_PRODUCTS.items()}
    rngs = [_rng_for(seed, f"cases/{a}/{phi.value}/{sub}") for a, phi, sub in LEDGER_ENTRIES]
    # Counting the configurations is part of drawing.
    _clock(rep.phases, "draw", 0, t0)
    failures = [[] for _ in LEDGER_ENTRIES]
    for lo in range(0, samples, batch.CASE_CHUNK):
        n = min(batch.CASE_CHUNK, samples - lo)
        for found, more in zip(failures, _check_cases(rs, signs, rngs, configs, n, rep.phases)):
            found += more
    for (angle, phi, subcase), found in zip(LEDGER_ENTRIES, failures):
        rep.add(f"{angle}/{phi.value}/{subcase}", samples, found)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def _check_cases(rs, signs, rngs, configs, n: int, phases) -> list:
    """The next n draws of every ledger entry, each from its generator in
    rngs, set up and checked together: per entry, their failure entries."""
    t0 = time.perf_counter()
    draws = []
    for entry, rng in zip(LEDGER_ENTRIES, rngs):
        (a, b, r), errors = sample_case_configs(rs, rng, entry, configs[entry[0]], n)
        kept = np.flatnonzero(r >= 0)
        phis = np.full(len(kept), _KINDS.index(entry[1]))
        draws.append((kept, errors, (phis, a[kept], b[kept], r[kept])))
    _clock(phases, "draw", n * len(LEDGER_ENTRIES), t0)
    cases = map(np.concatenate, zip(*(c for *_, c in draws)))
    results = case_identities(rs, signs, *cases, phases)

    out, offset = [], 0
    for (angle, phi, subcase), (kept, errors, (_, a, b, r)) in zip(LEDGER_ENTRIES, draws):
        span = slice(offset, offset + len(kept))
        flagged = ~results.ok[span] | (results.angle[span] != angle)
        if subcase not in ("re-rooted", "any"):
            flagged |= results.subcase[span] != subcase
        at = {int(i): x for x, i in enumerate(kept)}

        def failure(i):
            result = results.result(offset + at[i])
            if isinstance(result, RuntimeError):
                roots = (list(rs.roots[x[at[i]]]) for x in (a, b, r))
                return {"config": dict(zip(("alpha", "beta", "rho"), roots)), "error": str(result)}
            if result.angle != angle or (
                subcase not in ("re-rooted", "any") and result.subcase != subcase
            ):
                return {"config": result.config, "error": "sampler missed the sub-case"}
            return {"config": result.config, "residual": result.residual}

        out.append(_in_blocks(n, errors, kept[flagged].tolist(), failure))
        offset += len(kept)
    return out


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
    for label, d in (("pi/2", 0), ("pi/3", 1)):
        t = time.perf_counter()
        rng = _rng_for(seed, f"commutator/{label}")
        configs = batch.Configs(rs, d)
        failures = []
        modes = {"reduction": 0, "fixes-square": 0}
        # A block of draws at a time, each one configuration number.
        for lo in range(0, samples, batch.BLOCK):
            n, drawn = min(batch.BLOCK, samples - lo), []
            if configs.total:
                r, s = configs.at([rng.randrange(configs.total) for _ in range(n)])
                drawn = list(zip(r.tolist(), s.tolist()))
            else:
                failures += [{"error": configs.empty} for _ in range(n)]
            t = _clock(rep.phases, "draw", n, t)
            for (r, s), result in zip(drawn, commutator_reductions(rs, signs, drawn, rep.phases)):
                if isinstance(result, RuntimeError):
                    rho, sigma = list(rs.roots[r]), rs.square_index.sigma[s].tolist()
                    failures.append({"rho": rho, "sigma": sigma, "error": str(result)})
                elif not result.ok:
                    failures.append({"config": result.config, "detail": result.detail})
                else:
                    modes[result.mode] += 1
            t = time.perf_counter()
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

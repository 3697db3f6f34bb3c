"""Second implementations that the tests compare the package against.

Nothing in the package calls these.  Each computes, one case at a time,
something the package computes another way, and lives here so that it
stays independent of the code it checks:

- the scalar square helpers pair_sets, conjugate_pair, sign_column,
  modified_square and extend_a3_to_d4, and _class_pattern_ok, against the
  kernels of the batch module that the combinatorics suite runs;
- the per-form builders pi2_form, two_pi3_form and pi_form, which follow
  the companion-set descriptions of the forms (pi2_form reads the square's
  pairs), against the generation kernels, which build every form through
  its square;
- verify_case_identity and verify_commutator_reduction, which evaluate the
  ledger and the commutator reductions over PolynomialRing on a generic
  vector, against the integer coefficient arrays of the cases and
  commutator suites;
- apply_word_by_rules, which applies a word by the four rules of the
  action module's docstring, read through the root system's and the sign
  table's public helpers, against apply_word, which reads the same rules
  from their flat tables coordinate by coordinate;
- zero_weight_combo and inverse_word, which the action tests use.

The Poly references share with the suites what is decided before any
arithmetic (verify._prepare_case, verify._reduction_plan,
verify._square_forms, verify._square_verdict) and the forms the ledger
reads (verify._ledger_arrays), so they check the same forms the suites do.
Like those, they take their configurations as root and square numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adjoint_quadrics.action import AdjointVector, Elementary, Word, apply_elementary, apply_word
from adjoint_quadrics.equations import FormKind, QuadraticForm
from adjoint_quadrics.rings import PolynomialRing, Ring
from adjoint_quadrics.root_system import MaximalSquare, Root, RootSystem, ZeroWeight
from adjoint_quadrics.signs import SignTable
from adjoint_quadrics.squares import (
    _NOT_A_ROOT,
    _SCAN_DISAGREES,
    InvalidPairError,
    SquareAngle,
    _no_extension,
    square_of_pair,
)
from adjoint_quadrics.verify import (
    _NO_EPSILON,
    CaseResult,
    CommutatorResult,
    _ledger_arrays,
    _prepare_case,
    _reduction_plan,
    _square_forms,
    _square_verdict,
    generic_vector,
)

# ---------------------------------------------------------------------------
# Squares.


class NotAnA3TripleError(ValueError):
    """The supplied roots do not form an A_3 fundamental triple."""


def modified_square(rs: RootSystem, square: MaximalSquare, j: int) -> MaximalSquare:
    """The square with gamma_i = beta_j - beta_i (i != +-j), gamma_j = beta_j,
    gamma_{-j} = -beta_{-j}.

    The output keeps this explicit indexing (it is not re-canonicalized),
    so member(j) is beta_j and member(-j) is -beta_{-j}.
    """
    if j == 0 or abs(j) > square.k:
        raise ValueError(f"signed index {j} out of range for k={square.k}")
    bj = square.member(j)
    pairs = []
    for p in range(1, square.k + 1):
        if p == abs(j):
            gj, gmj = bj, rs.negate(square.member(-j))
            pairs.append((gj, gmj) if j > 0 else (gmj, gj))
            continue
        gi = tuple(x - y for x, y in zip(bj, square.member(p)))
        gmi = tuple(x - y for x, y in zip(bj, square.member(-p)))
        if gi not in rs.index or gmi not in rs.index:
            raise RuntimeError(_NOT_A_ROOT)
        pairs.append((gi, gmi))
    return MaximalSquare(tuple(x - y for x, y in zip(bj, square.member(-j))), tuple(pairs))


@dataclass
class SignColumn:
    """The +-1 column c(j) of a square: entry +1 at +-j, else the product
    -N_{beta_j,-beta_i} N_{beta_{-j},-beta_{-i}}."""

    j: int
    entries: dict[int, int]

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


def sign_column(rs: RootSystem, signs: SignTable, square: MaximalSquare, j: int) -> SignColumn:
    if j == 0 or abs(j) > square.k:
        raise ValueError(f"signed index {j} out of range for k={square.k}")
    neg = rs.neg
    bj = rs.root_index(square.member(j))
    bmj = rs.root_index(square.member(-j))
    entries: dict[int, int] = {}
    for i in square.signed_indices():
        if abs(i) == abs(j):
            entries[i] = 1
            continue
        bi = rs.root_index(square.member(i))
        bmi = rs.root_index(square.member(-i))
        entries[i] = -int(signs.table[bj, int(neg[bi])]) * int(signs.table[bmj, int(neg[bmi])])
    return SignColumn(j, entries)


@dataclass(frozen=True)
class PairSets:
    """The four companion sets of an orthogonal pair (alpha, beta).

    half_pi and two_thirds hold unordered pairs (stored sorted); pi and
    pi_prime hold ordered pairs (gamma, -gamma).
    """

    half_pi: frozenset
    two_thirds: frozenset
    pi: frozenset
    pi_prime: frozenset


def _unordered(a: Root, b: Root) -> tuple[Root, Root]:
    return (a, b) if a <= b else (b, a)


def pair_sets(rs: RootSystem, alpha: Root, beta: Root) -> PairSets:
    """Companion sets computed two ways and cross-checked.

    Direct scans over the root set are compared against the square-based
    descriptions (members of the square through {alpha, beta}); any
    disagreement is a program error.
    """
    ai, bi = rs.root_index(alpha), rs.root_index(beta)
    if rs.gram[ai, bi] != 0:
        raise InvalidPairError(f"{alpha} and {beta} are not orthogonal")
    square = square_of_pair(rs, alpha, beta)
    ga = rs.gram[ai]
    gb = rs.gram[bi]

    # Direct scans.
    sigma = square.sigma
    half_pi_scan = set()
    for g in rs.roots:
        partner = tuple(s - x for s, x in zip(sigma, g))
        if partner in rs.index:
            pair = _unordered(g, partner)
            if pair != _unordered(alpha, beta):
                half_pi_scan.add(pair)
    two_thirds_scan = set()
    idxs = np.nonzero((ga == 1) & (gb != 0))[0]
    for gi in idxs.tolist():
        g = rs.roots[gi]
        d = tuple(a - x for a, x in zip(alpha, g))
        two_thirds_scan.add(_unordered(g, d))
    pi_scan = set()
    for gi in np.nonzero((ga == -1) & (gb == -1))[0].tolist():
        g = rs.roots[gi]
        pi_scan.add((g, rs.negate(g)))
    pi_prime_scan = set()
    for gi in np.nonzero((ga == -1) & (gb == 1))[0].tolist():
        g = rs.roots[gi]
        pi_prime_scan.add((g, rs.negate(g)))

    # Square-based formulas.
    others = [m for m in square.members() if m != alpha and m != beta]
    half_pi_sq = {
        _unordered(a, b) for a, b in square.pairs if _unordered(a, b) != _unordered(alpha, beta)
    }
    two_thirds_sq = {
        _unordered(m, tuple(a - x for a, x in zip(alpha, m))) for m in others
    }
    pi_sq = {(rs.negate(m), m) for m in others}
    pi_prime_sq = {
        (tuple(x - a for x, a in zip(m, alpha)), tuple(a - x for a, x in zip(alpha, m)))
        for m in others
    }

    if half_pi_scan != half_pi_sq or two_thirds_scan != two_thirds_sq:
        raise RuntimeError(_SCAN_DISAGREES)
    if pi_scan != pi_sq or pi_prime_scan != pi_prime_sq:
        raise RuntimeError(_SCAN_DISAGREES)
    return PairSets(
        frozenset(half_pi_sq),
        frozenset(two_thirds_sq),
        frozenset(pi_sq),
        frozenset(pi_prime_sq),
    )


def conjugate_pair(
    rs: RootSystem, alpha: Root, beta: Root, pair: tuple[Root, Root]
) -> tuple[Root, Root]:
    """The other decomposition of alpha inside the same A_3 subsystem.

    For {gamma, delta} with gamma + delta = alpha, (gamma, beta) != 0 and
    gamma oriented so that its doubled product with beta is +1, the
    conjugate is {delta + beta, gamma - beta}.  Applying the operation
    twice returns the input.
    """
    g, d = pair
    if tuple(x + y for x, y in zip(g, d)) != tuple(alpha):
        raise InvalidPairError(f"{pair} does not decompose {alpha}")
    if not (rs.is_root(g) and rs.is_root(d)):
        raise InvalidPairError(f"{pair} is not a pair of roots")
    dg = rs.doubled_inner(g, beta)
    dd = rs.doubled_inner(d, beta)
    if dg == 0 or dd == 0:
        raise InvalidPairError(f"{pair} is orthogonal to {beta}")
    if dg != 1:
        g, d = d, g  # orient: gamma at angle pi/3 with beta
    gp = tuple(x + y for x, y in zip(d, beta))
    dp = tuple(x - y for x, y in zip(g, beta))
    if gp not in rs.index or dp not in rs.index:
        raise RuntimeError("conjugate pair fell outside the root set")
    return _unordered(gp, dp)


def extend_a3_to_d4(rs: RootSystem, alpha: Root, beta: Root, gamma: Root) -> Root:
    """A root delta orthogonal to alpha and gamma with angle 2pi/3 to beta.

    (alpha, beta, gamma) must be an A_3 fundamental triple: alpha and gamma
    orthogonal, both at 2pi/3 to beta.  At least one extension exists; the
    first in canonical root order is returned.
    """
    ai, bi, ci = rs.root_index(alpha), rs.root_index(beta), rs.root_index(gamma)
    if rs.gram[ai, ci] != 0 or rs.gram[ai, bi] != -1 or rs.gram[bi, ci] != -1:
        raise NotAnA3TripleError(f"({alpha}, {beta}, {gamma}) is not an A_3 triple")
    g = rs.gram
    hits = np.nonzero((g[ai] == 0) & (g[ci] == 0) & (g[bi] == -1))[0]
    if len(hits) == 0:
        raise RuntimeError(_no_extension(alpha, beta, gamma))
    return rs.roots[int(hits[0])]


def doubled_inner_vec(rs: RootSystem, alpha: Root, vec: tuple[int, ...]) -> int:
    """Doubled inner product of a root with an arbitrary lattice vector."""
    return int(rs.coeffs[rs.root_index(alpha)] @ rs.cartan @ np.array(vec, dtype=np.int64))


def index_of(square: MaximalSquare, root: Root) -> int | None:
    """Signed index of a member of the square, or None."""
    for p, (a, b) in enumerate(square.pairs):
        if root == a:
            return p + 1
        if root == b:
            return -(p + 1)
    return None


def _class_pattern_ok(rs, rho, square, cls) -> bool:
    """Whether the doubled products of rho with sigma and with each pair of
    the square follow the pattern the position lemma gives its class."""
    d_sigma = doubled_inner_vec(rs, rho, square.sigma)
    pairs_d = [
        (rs.doubled_inner(rho, a), rs.doubled_inner(rho, b)) for a, b in square.pairs
    ]
    if cls.kind is SquareAngle.IN_SQUARE:
        if d_sigma != 2 or square.member(cls.index) != rho:
            return False
        return all(
            sorted(pd) == [0, 2] if abs(i + 1) == abs(cls.index) else pd == (1, 1)
            for i, pd in enumerate(pairs_d)
        )
    if cls.kind is SquareAngle.OPPOSITE_SQUARE:
        if d_sigma != -2 or square.member(cls.index) != rs.negate(rho):
            return False
        return all(
            sorted(pd) == [-2, 0] if abs(i + 1) == abs(cls.index) else pd == (-1, -1)
            for i, pd in enumerate(pairs_d)
        )
    if cls.kind is SquareAngle.PERP:
        # A root may be orthogonal to every member (on D_l, l >= 6, and E_7),
        # so only the existence of a doubly-orthogonal pair is required.
        return (
            d_sigma == 0
            and all(sorted(pd) in ([0, 0], [-1, 1]) for pd in pairs_d)
            and any(pd == (0, 0) for pd in pairs_d)
        )
    if cls.kind is SquareAngle.THIRD:
        return d_sigma == 1 and all(sorted(pd) == [0, 1] for pd in pairs_d)
    if cls.kind is SquareAngle.TWO_THIRDS:
        return d_sigma == -1 and all(sorted(pd) == [-1, 0] for pd in pairs_d)
    return False


# ---------------------------------------------------------------------------
# The per-form builders.


def _finish(system, kind, key, acc: dict) -> QuadraticForm:
    monos = tuple(sorted((a, b, c) for (a, b), c in acc.items() if c != 0))
    return QuadraticForm(system, kind, key, monos)


def _put(acc: dict, a: int, b: int, c: int) -> None:
    if a > b:
        a, b = b, a
    if a == b:
        raise RuntimeError("quadratic form touched a squared coordinate")
    acc[(a, b)] = acc.get((a, b), 0) + c


def pi2_form(rs: RootSystem, signs: SignTable, alpha: Root, beta: Root) -> QuadraticForm:
    """The pi/2 form rooted at the pair (alpha, beta), leading coefficient +1.

    Rooting at another pair of the same square changes the form by a
    global sign only.
    """
    square = square_of_pair(rs, alpha, beta)
    ai, bi = rs.root_index(alpha), rs.root_index(beta)
    neg = rs.neg
    acc: dict = {}
    _put(acc, ai, bi, 1)
    for g, d in square.pairs:
        gi, di = rs.root_index(g), rs.root_index(d)
        if {gi, di} == {ai, bi}:
            continue
        c = int(signs.table[ai, int(neg[gi])]) * int(signs.table[bi, int(neg[di])])
        _put(acc, gi, di, -c)
    return _finish(rs.system, FormKind.PI2, tuple(square.sigma), acc)


def pi2_form_for_square(rs: RootSystem, signs: SignTable, square: MaximalSquare) -> QuadraticForm:
    """The square-keyed pi/2 form, rooted at the square's canonical first pair."""
    a, b = square.pairs[0]
    return pi2_form(rs, signs, a, b)


def two_pi3_form(rs: RootSystem, signs: SignTable, alpha: Root, beta: Root) -> QuadraticForm:
    """-sum N_{g,a-g} v_g v_{a-g} over the roots g at angle pi/3 to both
    alpha and beta, less v_alpha * sum_s <beta, alpha_s> v_s."""
    ai, bi = rs.root_index(alpha), rs.root_index(beta)
    if rs.gram[ai, bi] != 0:
        raise InvalidPairError(f"{alpha} and {beta} are not orthogonal")
    neg = rs.neg
    acc: dict = {}
    for gi in np.flatnonzero((rs.gram[ai] == 1) & (rs.gram[bi] == 1)).tolist():
        di = int(rs.sums[ai, int(neg[gi])])  # alpha - gamma
        _put(acc, gi, di, -int(signs.table[gi, di]))
    for s in range(rs.rank):
        c = int(rs.pairings[bi, s])
        if c:
            _put(acc, ai, rs.n_roots + s, -c)
    return _finish(rs.system, FormKind.TWO_PI3, (alpha, beta), acc)


def pi_form(rs: RootSystem, signs: SignTable, alpha: Root, beta: Root) -> QuadraticForm:
    """sum <g, beta> v_g v_{-g} over the roots g at angle 2pi/3 to alpha,
    less (sum_s <alpha, alpha_s> v_s)(sum_t <beta, alpha_t> v_t)."""
    ai, bi = rs.root_index(alpha), rs.root_index(beta)
    if rs.gram[ai, bi] != 0:
        raise InvalidPairError(f"{alpha} and {beta} are not orthogonal")
    neg = rs.neg
    acc: dict = {}
    for gi in np.flatnonzero(rs.gram[ai] == -1).tolist():
        c = int(rs.gram[bi, gi])
        if c:
            _put(acc, gi, int(neg[gi]), c)

    pa, pb = rs.pairings[ai], rs.pairings[bi]
    base = rs.n_roots
    for s in range(rs.rank):
        cs = int(pa[s])
        if cs == 0:
            continue
        for t in range(rs.rank):
            ct = int(pb[t])
            if ct == 0:
                continue
            if s == t:
                acc[(base + s, base + s)] = acc.get((base + s, base + s), 0) - cs * ct
            else:
                _put(acc, base + s, base + t, -cs * ct)
    key = (alpha, beta) if ai < bi else (beta, alpha)
    return _finish(rs.system, FormKind.PI, key, acc)


# ---------------------------------------------------------------------------
# The ledger and the commutator reductions over PolynomialRing.


class VerificationFailure(RuntimeError):
    """Raised by verify_case_identity(strict=True) on a nonzero residual."""


def _poly_residuals(rs, signs, cases):
    """Per case as in verify._ledger_arrays, one at a time: f(x_rho(xi) v) -
    f(v) - sum coeff xi^power g(v) over PolynomialRing, v generic, or the
    error."""
    rho, form, target, errors = _ledger_arrays(rs, signs, cases)
    ring = PolynomialRing()
    xi = ring.variable("xi")
    v = generic_vector(rs, ring)
    for x, error in enumerate(errors):
        w = apply_elementary(rs, signs, Elementary(rs.roots[rho[x]], xi), v).coords
        total = ring.zero
        for _, i, j, c in zip(*(col[form[0] == x].tolist() for col in form)):
            total = total + c * (w[i] * w[j] - v.coords[i] * v.coords[j])
        for _, power, i, j, c in zip(*(col[target[0] == x].tolist() for col in target)):
            total = total - c * xi**power * v.coords[i] * v.coords[j]
        yield error or total


def verify_case_identity(
    rs: RootSystem,
    signs: SignTable,
    a: int,
    b: int,
    r: int,
    phi: FormKind,
    strict: bool = False,
) -> CaseResult:
    """Check one ledger identity, at root numbers (alpha, beta, rho),
    symbolically; the residual must vanish.

    With strict=True a nonzero residual raises VerificationFailure with the
    residual attached instead of returning a failed result.  This is the
    Poly reference for verify.case_identities, which the suite runs.
    """
    angle, subcase, config, *case = _prepare_case(rs, signs, a, b, r, phi)
    (residual,) = _poly_residuals(rs, signs, [case])
    if isinstance(residual, RuntimeError):
        raise residual
    if residual.is_zero():
        return CaseResult(True, angle, phi.value, subcase, config)
    if strict:
        raise VerificationFailure(f"nonzero residual for {config}: {residual}")
    return CaseResult(False, angle, phi.value, subcase, config, str(residual))


def verify_commutator_reduction(
    rs: RootSystem, signs: SignTable, r: int, s: int
) -> CommutatorResult:
    """Find the decomposition x_rho(xi) = [x_a(xi), x_b(eps)] named by the
    angle class (pi/2 or pi/3) of root number r against square s, and
    verify it as an operator identity on a generic vector, symbolically in
    xi.

    One sub-case of class pi/2 has no such decomposition: rho orthogonal to
    every member of the square (occurs on D_l for l >= 6 and on E_7, never
    on D_5, E_6 or E_8).  There x_rho(xi) provably fixes everything the
    square's forms touch, which is verified directly instead (mode
    "fixes-square").  This is the Poly reference for
    verify.commutator_reductions, which the suite runs.
    """
    config, plan = _reduction_plan(rs, r, s)
    if isinstance(plan, CommutatorResult):
        return plan
    if plan is None:
        # x_rho(xi) must leave every form of the square unchanged.
        cases = [(r, form, []) for form in _square_forms(rs, s)]
        residuals = _poly_residuals(rs, signs, cases)
        moved = (x if isinstance(x, RuntimeError) else not x.is_zero() for x in residuals)
        result = _square_verdict(config, moved)
        if isinstance(result, RuntimeError):
            raise result
        return result
    a, b, factor_classes = plan
    rho, a, b = (rs.roots[x] for x in (r, a, b))
    ring = PolynomialRing()
    xi = ring.variable("xi")
    v = generic_vector(rs, ring)
    rhs = apply_elementary(rs, signs, Elementary(rho, xi), v)
    for eps in (1, -1):
        word = Word(
            (
                Elementary(a, xi),
                Elementary(b, ring.from_int(eps)),
                Elementary(a, -xi),
                Elementary(b, ring.from_int(-eps)),
            )
        )
        lhs = apply_word(rs, signs, word, v)
        if lhs.coords == rhs.coords:
            return CommutatorResult(True, config, epsilon=eps, factor_classes=factor_classes)
    return CommutatorResult(False, config, detail=_NO_EPSILON)


# ---------------------------------------------------------------------------
# The action, and action helpers.


def apply_word_by_rules(rs: RootSystem, signs: SignTable, word: Word, v: AdjointVector):
    """The coordinates of word(v), one factor x_rho(xi) at a time, last
    first, by the rules of the action: a root lambda with lambda - rho = mu
    a root gains N_{rho,mu} xi v_mu, zero coordinate s gains m_s(rho) xi
    v_{-rho}, and the rho coordinate loses sum_s <rho, alpha_s> xi v_s and
    xi^2 v_{-rho}."""
    ring = v.ring
    old = list(v.coords)
    for e in reversed(word.factors):
        rho, xi = e.rho, e.xi
        new = list(old)

        def gain(weight, c, degree, x):
            i = rs.weight_position(weight)
            term = ring.mul(ring.from_int(c), ring.mul(xi if degree == 1 else ring.mul(xi, xi), x))
            new[i] = ring.add(new[i], term)

        minus = rs.negate(rho)
        v_minus = old[rs.weight_position(minus)]
        for lam in rs.roots:
            mu = rs.add_if_root(lam, minus)
            if mu is not None:
                gain(lam, signs.structure_constant(rho, mu), 1, old[rs.weight_position(mu)])
        for s in range(1, rs.rank + 1):
            gain(ZeroWeight(s), rho[s - 1], 1, v_minus)
            gain(rho, -rs.pairing(rho, s), 1, old[rs.weight_position(ZeroWeight(s))])
        gain(rho, -1, 2, v_minus)
        old = new
    return old


def inverse_word(word: Word, ring: Ring) -> Word:
    """The reversed word with negated arguments."""
    return Word(tuple(Elementary(e.rho, ring.neg(e.xi)) for e in reversed(word.factors)))


def zero_weight_combo(rs: RootSystem, beta: Root, v: AdjointVector):
    """sum_s <beta, alpha_s> v_s over the zero-weight coordinates.

    Shift law: applying x_rho(xi) first adds xi * <beta, rho> * v_{-rho}.
    """
    ring = v.ring
    bi = rs.root_index(beta)
    total = ring.zero
    for s in range(rs.rank):
        c = int(rs.pairings[bi, s])
        if c:
            total = ring.add(total, ring.mul(ring.from_int(c), v.coords[rs.n_roots + s]))
    return total

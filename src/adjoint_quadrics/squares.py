"""Maximal squares and the combinatorics built on them.

A maximal square is a maximal set of roots arranged in orthogonal pairs
(beta_i, beta_{-i}) sharing one sum sigma, with every non-paired angle
equal to pi/3.  Equivalently: the set of all roots gamma such that
sigma - gamma is again a root.  Squares are keyed by sigma.

For E_6, E_7, E_8 every square has exactly 4, 5, 7 pairs.  D_l squares
come in two sizes, l-1 (sigma supported on one coordinate axis) and 3
(sigma supported on four axes); at l = 4 the sizes coincide, which is
where triality lives, and why rank 4 is refused.  All operations here
work with each square's own pair count.

Signed indices follow the pair layout: pair p (0-based) holds members
with signed indices p+1 and -(p+1).  The squares are built once, with the
root system (RootSystem.squares and its square index); the functions here
only read them.

This module also classifies the position of an arbitrary root relative
to a square (five angle classes, decided by the doubled product with
sigma), builds the companion sets S_{pi/2}, S_{2pi/3}, S_pi, S'_pi of an
orthogonal pair, sign columns, modified squares, conjugate pairs, and
the extension of an A_3 triple to a D_4 configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .root_system import MaximalSquare, Root, RootSystem
from .signs import SignTable


class InvalidPairError(ValueError):
    """The supplied roots are not an orthogonal pair."""


class NotAnA3TripleError(ValueError):
    """The supplied roots do not form an A_3 fundamental triple."""


# The messages of the program errors below.  The batched suites report the
# same strings for the samples that fail.
_SCAN_DISAGREES = "companion-set scan disagrees with square formula"
_NOT_A_ROOT = "modified square member is not a root"


def _impossible_product(d: int, sigma) -> str:
    return f"impossible doubled product {d} with sigma {sigma}"


def _not_a_member(rho: Root, opposite: bool) -> str:
    return f"{'-' if opposite else ''}{rho} pairs with sigma like a member but is not one"


def _no_square(alpha: Root, beta: Root) -> str:
    return f"{alpha} and {beta} lie in no square"


def _no_extension(alpha: Root, beta: Root, gamma: Root) -> str:
    return f"no D_4 extension found for ({alpha}, {beta}, {gamma})"


def square_of_pair(rs: RootSystem, alpha: Root, beta: Root) -> MaximalSquare:
    """The unique maximal square containing the orthogonal pair {alpha, beta}."""
    ai, bi = rs.root_index(alpha), rs.root_index(beta)
    if rs.dot2_idx(ai, bi) != 0:
        raise InvalidPairError(f"{alpha} and {beta} are not orthogonal")
    s = int(rs._square_index.square_of[ai, bi])
    if s < 0:
        raise RuntimeError(_no_square(alpha, beta))
    return rs.squares[s]


def enumerate_squares(rs: RootSystem) -> list[MaximalSquare]:
    """Every maximal square exactly once, sorted by sigma."""
    return list(rs.squares)


class SquareAngle(enum.Enum):
    """Angle between a root and a square; one class per case of the position lemma."""

    IN_SQUARE = "0"
    OPPOSITE_SQUARE = "pi"
    PERP = "pi/2"
    THIRD = "pi/3"
    TWO_THIRDS = "2pi/3"


@dataclass(frozen=True)
class AngleClass:
    kind: SquareAngle
    index: int | None = None  # signed member index, for IN_SQUARE / OPPOSITE_SQUARE


_ANGLE_BY_DOT2 = {
    2: SquareAngle.IN_SQUARE,
    -2: SquareAngle.OPPOSITE_SQUARE,
    0: SquareAngle.PERP,
    1: SquareAngle.THIRD,
    -1: SquareAngle.TWO_THIRDS,
}


def classify_root_vs_square(rs: RootSystem, rho: Root, square: MaximalSquare) -> AngleClass:
    """Exactly one of the five position classes applies to (rho, square).

    The class is decided by the doubled product with sigma (2, -2, 0, 1, -1
    for angles 0, pi, pi/2, pi/3, 2pi/3); membership indices are resolved
    for the first two classes.  Failure to resolve is a program error, not
    a user error.
    """
    d = rs.doubled_inner_vec(rho, square.sigma)
    kind = _ANGLE_BY_DOT2.get(d)
    if kind is None:
        raise RuntimeError(_impossible_product(d, square.sigma))
    if kind is SquareAngle.IN_SQUARE:
        i = square.index_of(rho)
        if i is None:
            raise RuntimeError(_not_a_member(rho, opposite=False))
        return AngleClass(kind, i)
    if kind is SquareAngle.OPPOSITE_SQUARE:
        i = square.index_of(rs.negate(rho))
        if i is None:
            raise RuntimeError(_not_a_member(rho, opposite=True))
        return AngleClass(kind, i)
    return AngleClass(kind)


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
    neg = rs._neg
    bj = rs.root_index(square.member(j))
    bmj = rs.root_index(square.member(-j))
    entries: dict[int, int] = {}
    for i in square.signed_indices():
        if abs(i) == abs(j):
            entries[i] = 1
            continue
        bi = rs.root_index(square.member(i))
        bmi = rs.root_index(square.member(-i))
        entries[i] = -signs.n_idx(bj, int(neg[bi])) * signs.n_idx(bmj, int(neg[bmi]))
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
    if rs.dot2_idx(ai, bi) != 0:
        raise InvalidPairError(f"{alpha} and {beta} are not orthogonal")
    square = square_of_pair(rs, alpha, beta)
    ga = rs._gram[ai]
    gb = rs._gram[bi]

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
    if rs.dot2_idx(ai, ci) != 0 or rs.dot2_idx(ai, bi) != -1 or rs.dot2_idx(bi, ci) != -1:
        raise NotAnA3TripleError(f"({alpha}, {beta}, {gamma}) is not an A_3 triple")
    g = rs._gram
    hits = np.nonzero((g[ai] == 0) & (g[ci] == 0) & (g[bi] == -1))[0]
    if len(hits) == 0:
        raise RuntimeError(_no_extension(alpha, beta, gamma))
    return rs.roots[int(hits[0])]

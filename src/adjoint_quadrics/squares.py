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

This module also decides the position of a root relative to a square,
one of five angle classes by the doubled product with sigma, in one
function on root and member numbers (position_class, which
classify_root_vs_square calls with a MaximalSquare's own).  The companion
sets S_{pi/2}, S_{2pi/3}, S_pi, S'_pi of an orthogonal pair, sign
columns, modified squares, conjugate pairs and the extension of an A_3
triple to a D_4 configuration are computed by the batch kernels of the
combinatorics suite, a block of cases at a time; their one-case-at-a-time
references are kept with the tests (tests/reference.py).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .root_system import MaximalSquare, Root, RootSystem


class InvalidPairError(ValueError):
    """The supplied roots are not an orthogonal pair."""


# The messages of program errors, raised here and by the scalar references
# the tests keep (tests/reference.py).  The batched suites report the same
# strings for the samples that fail.
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
    if rs.gram[ai, bi] != 0:
        raise InvalidPairError(f"{alpha} and {beta} are not orthogonal")
    s = int(rs.square_index.square_of[ai, bi])
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


def position_class(rs: RootSystem, rho: int, sigma, members) -> tuple[SquareAngle, int | None]:
    """The class of root number rho against the square with this sigma and
    these member numbers (pair layout), by the doubled product with sigma
    (2, -2, 0, 1, -1 for angles 0, pi, pi/2, pi/3, 2pi/3), and for classes 0
    and pi the position in members of rho or -rho.  Failure to resolve is a
    program error, not a user error."""
    d = int(rs.pairings[rho] @ sigma)
    kind = _ANGLE_BY_DOT2.get(d)
    if kind is None:
        raise RuntimeError(_impossible_product(d, tuple(int(x) for x in sigma)))
    if kind is SquareAngle.IN_SQUARE or kind is SquareAngle.OPPOSITE_SQUARE:
        opposite = kind is SquareAngle.OPPOSITE_SQUARE
        member = int(rs.neg[rho]) if opposite else rho
        if member not in members:
            raise RuntimeError(_not_a_member(rs.roots[rho], opposite))
        return kind, members.index(member)
    return kind, None


def classify_root_vs_square(rs: RootSystem, rho: Root, square: MaximalSquare) -> AngleClass:
    """Exactly one of the five position classes applies to (rho, square);
    position_class on the square's own sigma and members, with the member
    position as a signed index."""
    members = [rs.root_index(m) for m in square.members()]
    kind, p = position_class(rs, rs.root_index(rho), square.sigma, members)
    return AngleClass(kind, None if p is None else (p // 2 + 1) * (-1) ** p)

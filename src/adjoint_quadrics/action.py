"""Adjoint action of elementary root unipotents on coordinate vectors.

The action of x_rho(xi) on a vector v with root coordinates v_alpha and
zero-weight coordinates v_s follows the classical coordinate rules:

  1. v_lambda is unchanged when lambda - rho is neither a root nor zero;
  2. v_lambda picks up N_{rho,lambda-rho} * xi * v_{lambda-rho} when both
     lambda and lambda - rho are roots;
  3. each zero coordinate picks up m_s(rho) * xi * v_{-rho};
  4. the rho coordinate becomes
     v_rho - sum_s <rho, alpha_s> xi v_s - xi^2 v_{-rho}.

Both readers take the rules straight from the tables the root system and
the sign table hold: lambda from RootSystem.sums, N from SignTable.table,
-rho from neg, m_s(rho) from coeffs and <rho, alpha_s> from pairings.
apply_word reads them coordinate by coordinate.  elementary_rows joins
them, for a block of roots, into the sparse rows of
x_rho(xi) = I + xi E1 + xi^2 E2 that the batched ledger and commutator
checks expand.  A term c xi^d v_s adds nothing where v_s = 0, so
apply_word keeps the vector's support, the coordinates that may be
nonzero, visits only those for each factor, and adds each target it
writes.  The same loop serves every ring.  Vectors are value-semantic:
applying a unipotent or a word returns a fresh vector.
Words act left to right with the last factor applied first, so the word
x_1 x_2 ... x_n sends v to x_1(x_2(...x_n(v))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import Ring
from .root_system import Root, RootSystem, Weight
from .signs import SignTable


@dataclass
class AdjointVector:
    """Dense coordinate vector over a ring, in canonical weight order."""

    rs: RootSystem
    ring: Ring
    coords: list

    def copy(self) -> "AdjointVector":
        return AdjointVector(self.rs, self.ring, list(self.coords))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdjointVector)
            and other.rs is self.rs
            and other.ring == self.ring
            and other.coords == self.coords
        )

    def to_json(self):
        return {
            "system": str(self.rs.system),
            "ring": self.ring.name,
            "coords": [self.ring.format(c) for c in self.coords],
        }


@dataclass(frozen=True)
class Elementary:
    """An elementary root unipotent x_rho(xi)."""

    rho: Root
    xi: object


@dataclass(frozen=True)
class Word:
    """A product of elementary unipotents, an element of the elementary group."""

    factors: tuple[Elementary, ...]

    def to_json(self, ring: Ring):
        return [{"rho": list(e.rho), "xi": ring.format(e.xi)} for e in self.factors]

    @classmethod
    def from_json(cls, data, rs: RootSystem, ring: Ring) -> "Word":
        factors = []
        for item in data:
            rho = tuple(int(x) for x in item["rho"])
            rs.root_index(rho)  # validates
            factors.append(Elementary(rho, ring.parse(item["xi"])))
        return cls(tuple(factors))


def zero_vector(rs: RootSystem, ring: Ring) -> AdjointVector:
    return AdjointVector(rs, ring, [ring.zero] * rs.dim_v)


def basis_vector(rs: RootSystem, ring: Ring, weight: Weight) -> AdjointVector:
    """The admissible base vector e^lambda: one at the weight, zero elsewhere."""
    v = zero_vector(rs, ring)
    v.coords[rs.weight_position(weight)] = ring.one
    return v


def elementary_rows(rs: RootSystem, signs: SignTable, rho: np.ndarray):
    """The rows of x_r(xi) for each root position r in rho, joined:
    (owner, target, degree, source, coef), owner being the index into rho.
    A row adds coef xi^degree v[source] to w[target]; the rows come in no
    particular order."""
    n, neg = rs.n_roots, rs.neg
    o2, mu = np.nonzero(rs.sums[rho] >= 0)
    o3, z3 = np.nonzero(rs.coeffs[rho])
    o4, z4 = np.nonzero(rs.pairings[rho])
    every = np.arange(len(rho))
    r2, r3, r4 = rho[o2], rho[o3], rho[o4]
    ones = np.ones_like
    owner = np.concatenate([o2, o3, o4, every])
    target = np.concatenate([rs.sums[r2, mu], n + z3, r4, rho])
    degree = np.concatenate([ones(o2), ones(o3), ones(o4), 2 * ones(every)])
    source = np.concatenate([mu, neg[r3], n + z4, neg[rho]])
    coef = np.concatenate(
        [signs.table[r2, mu], rs.coeffs[r3, z3], -rs.pairings[r4, z4], -ones(every)]
    )
    return owner, target, degree, source, coef


def apply_elementary(
    rs: RootSystem, signs: SignTable, elem: Elementary, v: AdjointVector
) -> AdjointVector:
    """Apply x_rho(xi) to v, returning a fresh vector.

    Linear in v; satisfies the one-parameter law
    x_rho(xi) x_rho(eta) = x_rho(xi + eta) as an operator identity.
    """
    return apply_word(rs, signs, Word((elem,)), v)


def apply_word(rs: RootSystem, signs: SignTable, word: Word, v: AdjointVector) -> AdjointVector:
    """Apply the word to v, returning a fresh vector.

    Each factor reads only the coordinates in the support, those that may
    be nonzero, and adds the coordinates it writes to it.
    """
    if v.rs is not rs and v.rs.system != rs.system:
        raise ValueError("vector and root system do not match")
    dim = rs.dim_v
    if len(v.coords) != dim:
        raise ValueError(f"vector has {len(v.coords)} coordinates, {rs.system} has {dim}")
    ring = v.ring
    zero, c = ring.zero, ring.from_int
    w = list(v.coords)
    support = {s for s, x in enumerate(w) if x != zero}
    n, rank = rs.n_roots, rs.rank
    # Flat memoryviews, read at r * width + s, give Python ints; a numpy
    # scalar costs about 100 ns more.
    sums, table, coeffs, pairings, neg = (
        memoryview(a.ravel()) for a in (rs.sums, signs.table, rs.coeffs, rs.pairings, rs.neg)
    )
    for e in reversed(word.factors):
        r = rs.root_index(e.rho)
        xi, minus = e.xi, neg[r]
        at, row = r * n, r * rank
        moved = []  # every rule reads the vector before the factor
        for s in support:
            if s >= n:  # rule 4: a zero weight
                m = pairings[row + s - n]
                if m:
                    moved.append((r, ring.mul(c(-m), ring.mul(xi, w[s]))))
            elif (t := sums[at + s]) >= 0:  # rule 2
                moved.append((t, ring.mul(c(table[at + s]), ring.mul(xi, w[s]))))
            elif s == minus:  # rule 3, and the xi^2 term of rule 4
                y = ring.mul(xi, w[s])
                for z in range(rank):
                    if coeffs[row + z]:
                        moved.append((n + z, ring.mul(c(coeffs[row + z]), y)))
                moved.append((r, ring.mul(c(-1), ring.mul(ring.mul(xi, xi), w[s]))))
        for t, y in moved:
            w[t] = ring.add(w[t], y)
            support.add(t)
    return AdjointVector(rs, ring, w)

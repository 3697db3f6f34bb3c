"""Adjoint action of elementary root unipotents on coordinate vectors.

The action of x_rho(xi) on a vector v with root coordinates v_alpha and
zero-weight coordinates v_s follows the classical coordinate rules:

  1. v_lambda is unchanged when lambda - rho is neither a root nor zero;
  2. v_lambda picks up N_{rho,lambda-rho} * xi * v_{lambda-rho} when both
     lambda and lambda - rho are roots;
  3. each zero coordinate picks up m_s(rho) * xi * v_{-rho};
  4. the rho coordinate becomes
     v_rho - sum_s <rho, alpha_s> xi v_s - xi^2 v_{-rho}.

The root system holds these rules as sparse rows for every root, built
with it (RootSystem.action_rows), indexed by source coordinate; a row of
rule 2 stores coefficient 0 and reads its structure constant from the sign
table each time it is used.  A row c xi^d v_s -> w_t adds nothing where
v_s = 0, so apply_word keeps the vector's support, the coordinates that
may be nonzero, and runs for each factor only the rows under it, adding
each target it writes.  The same loop serves every ring.  Vectors are
value-semantic: applying a unipotent or a word returns a fresh vector.
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
    A shift row, stored with coef 0, gets N_{r, source} from the sign
    table here, so the rows always act with the table's signs."""
    rows = rs.action_rows
    lo, hi = rows.start[rho], rows.start[rho + 1]
    count = hi - lo
    owner = np.repeat(np.arange(len(rho)), count)
    at = np.arange(len(owner)) + np.repeat(lo - (np.cumsum(count) - count), count)
    source, coef = rows.source[at], rows.coef[at]
    shift = coef == 0
    coef[shift] = signs.table[rho[owner[shift]], source[shift]]
    return owner, rows.target[at], rows.degree[at], source, coef


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

    Each factor runs only the rows whose source is in the support, the
    coordinates that may be nonzero, and adds the targets it writes to it.
    """
    if v.rs is not rs and v.rs.system != rs.system:
        raise ValueError("vector and root system do not match")
    dim = rs.dim_v
    if len(v.coords) != dim:
        raise ValueError(f"vector has {len(v.coords)} coordinates, {rs.system} has {dim}")
    ring = v.ring
    zero = ring.zero
    w = list(v.coords)
    support = {s for s, x in enumerate(w) if x != zero}
    rows = rs.action_rows
    # Memoryviews read Python ints; a numpy scalar costs about 100 ns more.
    target, degree, coef, run, by_source = map(
        memoryview, (rows.target, rows.degree, rows.coef, rows.run, rows.by_source)
    )
    table = memoryview(signs.table)
    for e in reversed(word.factors):
        r = rs.root_index(e.rho)
        powers = (None, e.xi, ring.mul(e.xi, e.xi))
        at = r * dim
        moved = []  # every row reads the vector before the factor
        for s in support:
            for k in range(run[at + s], run[at + s + 1]):
                i = by_source[k]
                c = coef[i] or table[r, s]
                y = ring.mul(ring.from_int(c), ring.mul(powers[degree[i]], w[s]))
                moved.append((target[i], y))
        for t, y in moved:
            w[t] = ring.add(w[t], y)
            support.add(t)
    return AdjointVector(rs, ring, w)

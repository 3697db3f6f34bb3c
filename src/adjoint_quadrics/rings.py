"""Commutative unital rings for evaluating equations and actions.

Three rings cover everything the package needs: arbitrary-precision
integers, integers modulo m (m >= 2, composite allowed), and a sparse
polynomial ring over the integers used for exact symbolic verification.
The interface is deliberately minimal: addition, negation, multiplication,
the unit, and a characteristic-safe embedding of integer constants.  No
division and no ordering.
"""

from __future__ import annotations


class Ring:
    """Interface for a commutative ring with 1 and decidable equality."""

    name: str

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def from_int(self, n: int):
        """Image of an integer under the unique ring map from Z."""
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        raise NotImplementedError


class IntegerRing(Ring):
    name = "int"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n: int):
        return int(n)

    def parse(self, s: str):
        return int(s)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("int")


class IntegersMod(Ring):
    """Z/mZ for any modulus m >= 2; elements are residues in [0, m)."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.name = f"zmod:{modulus}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def from_int(self, n: int):
        return n % self.modulus

    def parse(self, s: str):
        return int(s) % self.modulus

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("zmod", self.modulus))


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    Terms map a monomial to its coefficient; a monomial is the sorted
    tuple of variable ids with repetition, so x0^2*x3 is (0, 0, 3) and
    the constant monomial is ().  Coefficients are Python ints, hence
    arbitrary precision.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "PolynomialRing", terms: dict[tuple[int, ...], int]):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("polynomials belong to different rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in o.terms.items():
            nc = terms.get(mono, 0) + c
            if nc:
                terms[mono] = nc
            else:
                terms.pop(mono, None)
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = tuple(sorted(m1 + m2))
                nc = out.get(mono, 0) + c1 * c2
                if nc:
                    out[mono] = nc
                else:
                    out.pop(mono, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return isinstance(other, Poly) and other.ring is self.ring and other.terms == self.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """Nonzero iff the polynomial has a term, as for an int, so that
        truthiness is the zero test on every ring."""
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring._names
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mono]
            factors = []
            i = 0
            while i < len(mono):
                j = i
                while j < len(mono) and mono[j] == mono[i]:
                    j += 1
                e = j - i
                factors.append(names[mono[i]] + (f"^{e}" if e > 1 else ""))
                i = j
            body = "*".join(factors)
            if body:
                head = {1: "", -1: "-"}.get(c, f"{c}*")
                parts.append(f"{head}{body}")
            else:
                parts.append(str(c))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


class PolynomialRing(Ring):
    """Z[x_1, x_2, ...] with variables registered on demand by name."""

    name = "poly"

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def variable(self, name: str) -> Poly:
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._names)
            self._names.append(name)
            self._ids[name] = vid
        return Poly(self, {(vid,): 1})

    @property
    def zero(self) -> Poly:
        return Poly(self, {})

    @property
    def one(self) -> Poly:
        return Poly(self, {(): 1})

    def add(self, a: Poly, b: Poly) -> Poly:
        return a + b

    def neg(self, a: Poly) -> Poly:
        return -a

    def mul(self, a: Poly, b: Poly) -> Poly:
        return a * b

    def from_int(self, n: int) -> Poly:
        return Poly(self, {(): int(n)}) if n else Poly(self, {})

    def is_zero(self, a: Poly) -> bool:
        return a.is_zero()

    def format(self, a: Poly) -> str:
        return str(a)

    def parse(self, s: str):
        raise NotImplementedError("parsing polynomial elements is not supported")


def ring_from_name(name: str) -> Ring:
    """Ring for a CLI-style name: "int", "zmod:<m>", or "poly"."""
    if name == "int":
        return IntegerRing()
    if name == "poly":
        return PolynomialRing()
    if name.startswith("zmod:"):
        return IntegersMod(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown ring name {name!r}")

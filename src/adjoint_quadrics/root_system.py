"""Simply-laced root systems D_l (l >= 5) and E_6, E_7, E_8.

A root is stored as its integer coefficient vector over the fundamental
roots in Bourbaki numbering, so everything here is exact.  Roots are
normalized to length 1, which makes plain scalar products half-integral;
all inner products are therefore kept doubled, as integers in
{-2, -1, 0, 1, 2}.  For two roots the doubled product coincides with the
Cartan number.

The adjoint weight set consists of the roots (nonzero weights) plus one
zero weight per fundamental root.  Weights are addressed by position in a
fixed canonical order: roots sorted by (height, coefficients), then the
zero weights 1..l.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

Root = tuple[int, ...]

_E_RANKS = (6, 7, 8)
_MIN_D_RANK = 5

_E_DIMS = {6: 78, 7: 133, 8: 248}
_E_K = {6: 4, 7: 5, 8: 7}


class UnsupportedSystemError(ValueError):
    """Requested system is outside D_l (l >= 5), E_6, E_7, E_8."""


class InvalidRootError(ValueError):
    """A coefficient vector is not a root of the system."""


@dataclass(frozen=True)
class SystemId:
    """A supported system: family 'D' with rank >= 5, or 'E' with rank 6, 7, 8."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family == "D":
            if self.rank < _MIN_D_RANK:
                raise UnsupportedSystemError(
                    f"D_{self.rank} is not supported (need rank >= {_MIN_D_RANK}; "
                    "D_4 is excluded because of triality)"
                )
        elif self.family == "E":
            if self.rank not in _E_RANKS:
                raise UnsupportedSystemError(f"E_{self.rank} is not supported")
        else:
            raise UnsupportedSystemError(f"unknown family {self.family!r}")

    @classmethod
    def parse(cls, name: str) -> "SystemId":
        name = name.strip()
        if len(name) < 2 or name[0] not in ("D", "E", "d", "e"):
            raise UnsupportedSystemError(f"cannot parse system name {name!r}")
        try:
            rank = int(name[1:])
        except ValueError:
            raise UnsupportedSystemError(f"cannot parse system name {name!r}") from None
        return cls(name[0].upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def dim_v(self) -> int:
        """Rank of the adjoint module: l(2l-1) for D_l, 78/133/248 for E_6/E_7/E_8."""
        if self.family == "D":
            return self.rank * (2 * self.rank - 1)
        return _E_DIMS[self.rank]

    @property
    def k(self) -> int:
        """The square-size constant: l, 4, 5, 7.

        Exact for the E systems, where every maximal square has k
        orthogonal pairs.  D_l squares actually come in sizes l-1 and 3,
        so there the constant is nominal; use MaximalSquare.k for the
        real pair count.
        """
        if self.family == "D":
            return self.rank
        return _E_K[self.rank]


class PairRelation(enum.Enum):
    EQUAL = "equal"
    OPPOSITE = "opposite"
    ORTHOGONAL = "orthogonal"
    SUM_IS_ROOT = "sum-is-root"
    DIFFERENCE_IS_ROOT = "difference-is-root"


_RELATION_BY_DOT2 = {
    2: PairRelation.EQUAL,
    -2: PairRelation.OPPOSITE,
    0: PairRelation.ORTHOGONAL,
    -1: PairRelation.SUM_IS_ROOT,
    1: PairRelation.DIFFERENCE_IS_ROOT,
}


@dataclass(frozen=True)
class ZeroWeight:
    """The zero weight attached to fundamental root s (1-based)."""

    s: int


# A weight of the adjoint module: a root, or a tagged zero weight.
Weight = Root | ZeroWeight


@dataclass(frozen=True)
class MaximalSquare:
    """2k roots in k orthogonal pairs with constant pairwise sum sigma.

    Signed indices follow the pair layout: pair p (0-based) holds members
    with signed indices p+1 and -(p+1).
    """

    sigma: tuple[int, ...]
    pairs: tuple[tuple[Root, Root], ...]

    @property
    def k(self) -> int:
        return len(self.pairs)

    def member(self, i: int) -> Root:
        """Member at signed index i in {1..k, -k..-1}."""
        if i == 0 or abs(i) > self.k:
            raise ValueError(f"signed index {i} out of range for k={self.k}")
        a, b = self.pairs[abs(i) - 1]
        return a if i > 0 else b

    def members(self) -> list[Root]:
        """All 2k members, pair by pair."""
        out = []
        for a, b in self.pairs:
            out.append(a)
            out.append(b)
        return out

    def signed_indices(self) -> list[int]:
        return [i for p in range(1, self.k + 1) for i in (p, -p)]

    def to_json(self):
        return {"sigma": list(self.sigma), "pairs": [[list(a), list(b)] for a, b in self.pairs]}


class SquareIndex(NamedTuple):
    """The squares of a root system as arrays of root positions.

    square_of[g, d] is the number of the square holding the orthogonal pair
    (g, d), or -1.  Square s has the members members[start[s]:][:size[s]]
    in its pair layout: pair p is members[start[s] + 2p] and the entry after
    it, so position 2p holds signed index p+1 and position 2p+1 holds
    -(p+1).  sigma[s] is the square's common pair sum, and key[s] its
    RootSystem key, so the keys ascend with s.
    """

    square_of: np.ndarray
    members: np.ndarray
    start: np.ndarray
    size: np.ndarray
    sigma: np.ndarray
    key: np.ndarray

    def member_rows(self, s):
        """(p, pos, m) for every member m of square s[p], grouped by p; pos
        is m's place in the pair layout."""
        size = self.size[s]
        p = np.repeat(np.arange(len(s)), size)
        pos = np.arange(len(p)) - np.repeat(np.cumsum(size) - size, size)
        return p, pos, self.members[self.start[s][p] + pos]


class LazySequence(Sequence):
    """A read-only sequence of n items, each built when it is read:
    read(lo, hi) builds items lo to hi - 1, and iteration reads `block`
    items at a time.  Slices give tuples.  Equality with a tuple, a list or
    another such sequence compares the items, so an item read twice is
    equal but not identical."""

    __slots__ = ("_n", "_read", "_block")

    def __init__(self, n: int, read, block: int):
        self._n, self._read, self._block = n, read, block

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = range(len(self))[i]
        return self._read(i, i + 1)[0]

    def __iter__(self):
        for lo in range(0, self._n, self._block):
            yield from self._read(lo, min(lo + self._block, self._n))

    def __eq__(self, other):
        if not isinstance(other, (tuple, list, LazySequence)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def cartan_matrix(system: SystemId) -> np.ndarray:
    """Cartan matrix in Bourbaki numbering, as an integer array."""
    l = system.rank
    a = 2 * np.eye(l, dtype=np.int64)
    if system.family == "D":
        # Chain 1..l-1 plus the extra node l attached to l-2.
        edges = [(i, i + 1) for i in range(1, l - 1)] + [(l - 2, l)]
    else:
        # Chain 1-3-4-5-..-l with node 2 attached to node 4.
        edges = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, l)]
    for i, j in edges:
        a[i - 1, j - 1] = -1
        a[j - 1, i - 1] = -1
    return a


def _positive_roots(cartan: np.ndarray) -> list[Root]:
    """Closure of the fundamental roots under root addition.

    For simply-laced systems, gamma + alpha_s is a root exactly when the
    doubled product <gamma, alpha_s> is -1, which the Cartan matrix decides.
    Every positive root is reached by adding one fundamental root at a time.
    """
    l = cartan.shape[0]
    simple = [tuple(int(i == s) for i in range(l)) for s in range(l)]
    found: set[Root] = set(simple)
    frontier: list[Root] = list(simple)
    while frontier:
        nxt: list[Root] = []
        for m in frontier:
            pair = cartan @ np.array(m, dtype=np.int64)
            for s in range(l):
                if pair[s] == -1:
                    cand = list(m)
                    cand[s] += 1
                    t = tuple(cand)
                    if t not in found:
                        found.add(t)
                        nxt.append(t)
        frontier = nxt
    return sorted(found)


# Squares read a block at a time when they are iterated.
_SQUARE_BLOCK = 256


def freeze(*arrays) -> None:
    """Make the arrays read-only in place: views, no copies."""
    for a in arrays:
        a.flags.writeable = False


class RootSystem:
    """Closed root set with exact doubled inner products and weight indexing.

    Its tables are public and read-only from construction (a write raises
    ValueError), so a system is immutable and safe to share across threads:
    ``cartan``; ``coeffs``, ``gram``, ``pairings``, ``key``, ``neg``,
    ``sums`` and ``lex``, by root position (see __init__); and the maximal
    squares, sorted by sigma, as arrays, ``square_index``, from which
    ``squares`` builds each MaximalSquare when it is read.  Use
    :func:`build_root_system`.

    key(v) = sum_s v_s R^(l-1-s) is a signed mixed-radix number of the
    coefficient vector v, most significant digit first, and linear, so
    key(sigma - gamma) is key(sigma) - key(gamma).  The vectors keyed here
    are signed sums of at most three roots, so their coefficients are at
    most 3h in absolute value, h being the largest root coefficient;
    R = 8h + 1 makes the key injective on them, and key order is the
    lexicographic order of their coefficient rows.  The keys are int64
    where 3h sum_s R^s fits (up to D_15), Python ints past it.  ``lookup``
    finds the root of each key.
    """

    def __init__(self, system: SystemId):
        self.system = system
        self.rank = system.rank
        self.cartan = cartan_matrix(system)
        self.k = system.k
        self.dim_v = system.dim_v

        positives = _positive_roots(self.cartan)
        allroots = positives + [tuple(-x for x in r) for r in positives]
        # Canonical order: by height, ties broken lexicographically.
        allroots.sort(key=lambda r: (sum(r), r))
        self.roots: tuple[Root, ...] = tuple(allroots)
        self.index: dict[Root, int] = {r: i for i, r in enumerate(self.roots)}
        self.n_roots = n = len(self.roots)
        if self.n_roots != self.dim_v - self.rank:
            raise RuntimeError(
                f"{system}: generated {self.n_roots} roots, "
                f"expected {self.dim_v - self.rank}"
            )

        r_mat = np.array(self.roots, dtype=np.int64)
        # Row i: root i's coefficients, and its Cartan pairings <root_i, alpha_s>.
        self.coeffs, self.pairings = r_mat, r_mat @ self.cartan
        # Doubled inner products of all root pairs (the Gram matrix under
        # the unit-length normalization, times two), in {-2, ..., 2}.
        self.gram = (r_mat @ self.cartan @ r_mat.T).astype(np.int8)
        h = int(np.abs(r_mat).max())
        powers = [(8 * h + 1) ** s for s in reversed(range(self.rank))]
        dtype = np.int64 if 3 * h * sum(powers) <= np.iinfo(np.int64).max else object
        self._powers = np.array(powers, dtype=dtype)
        self.key = self.key_of(r_mat)
        # The root positions in key order, and their keys.
        self._order = np.argsort(self.key)
        self._sorted = self.key[self._order]
        # Rank of each root in lexicographic order (canonical order is by
        # height first).
        self.lex = np.empty(n, dtype=np.int64)
        self.lex[self._order] = np.arange(n)
        self.neg = self.lookup(-self.key)  # the position of -root_i
        # Sum table: index of root_i + root_j, or -1.  Sums are roots exactly
        # where the doubled product is -1.
        sum_idx = np.full((n, n), -1, dtype=np.int64)
        ii, jj = np.nonzero(self.gram == -1)
        sum_idx[ii, jj] = self.lookup(self.key[ii] + self.key[jj])
        if np.any(sum_idx[ii, jj] < 0):
            raise RuntimeError(f"{system}: a sum at doubled product -1 is not a root")
        self.sums = sum_idx
        self._check_construction()
        self.square_index = self._square_index()
        freeze(self.cartan, r_mat, self.gram, self.pairings, self._powers, self.key)
        freeze(self._order, self._sorted, self.lex, self.neg, sum_idx, *self.square_index)

    def key_of(self, rows) -> np.ndarray:
        """The key of each coefficient row (of one vector, a scalar)."""
        return np.asarray(rows).astype(self._powers.dtype) @ self._powers

    def lookup(self, key) -> np.ndarray:
        """The position of the root with each key, or -1 where there is none."""
        pos = np.searchsorted(self._sorted, key)
        np.minimum(pos, self.n_roots - 1, out=pos)
        missing = self._sorted[pos] != key
        pos = self._order[pos]
        pos[missing] = -1
        return pos

    def _square_index(self) -> SquareIndex:
        """The index arrays of every maximal square, sorted by sigma.

        The orthogonal pairs are grouped by their sum.  Within a pair the
        lexicographically smaller root comes first, and pairs are sorted by
        their smaller member; the source never fixes an indexing, so
        determinism is the only requirement.
        """
        n, order = self.n_roots, self._order
        # The pairs (a, b) of lexicographic ranks a < b, sorted by a, then
        # by their sum's key, which keeps that order within each square.
        a, b = np.nonzero(np.triu(self.gram[np.ix_(order, order)] == 0, k=1))
        first, second = order[a], order[b]
        sums = self.key[first] + self.key[second]
        by_sum = np.argsort(sums, kind="stable")
        first, second, sums = first[by_sum], second[by_sum], sums[by_sum]
        new = np.ones(len(sums), dtype=bool)
        new[1:] = sums[1:] != sums[:-1]
        sid = np.cumsum(new) - 1
        k = np.bincount(sid)
        if np.any(k < 2):
            raise RuntimeError(f"{self.system}: a square has fewer than two pairs")
        members = np.empty(2 * len(first), dtype=np.int64)
        members[0::2], members[1::2] = first, second
        square_of = np.full((n, n), -1, dtype=np.int32)
        square_of[first, second] = sid
        square_of[second, first] = sid
        sigma = self.coeffs[first[new]] + self.coeffs[second[new]]
        size = 2 * k
        return SquareIndex(square_of, members, np.cumsum(size) - size, size, sigma, sums[new])

    @property
    def squares(self) -> LazySequence:
        """The maximal squares, sorted by sigma, each built from
        square_index when it is read."""
        return LazySequence(len(self.square_index.start), self._read_squares, _SQUARE_BLOCK)

    def _read_squares(self, lo: int, hi: int) -> list[MaximalSquare]:
        """Squares lo to hi - 1, from the square index."""
        index, root = self.square_index, self.roots.__getitem__
        _, _, m = index.member_rows(np.arange(lo, hi))
        pairs = list(zip(map(root, m[0::2].tolist()), map(root, m[1::2].tolist())))
        k = (index.size[lo:hi] // 2).tolist()
        ends = np.cumsum(k).tolist()
        return [
            MaximalSquare(tuple(sig), tuple(pairs[end - kk : end]))
            for sig, end, kk in zip(index.sigma[lo:hi].tolist(), ends, k)
        ]

    def _check_construction(self) -> None:
        # Cross-check: the set must be closed under all simple reflections
        # and under negation, and all roots must have unit length.
        if not np.all(np.diag(self.gram) == 2):
            raise RuntimeError(f"{self.system}: non-unit root generated")
        if np.any(self.neg < 0):
            raise RuntimeError(f"{self.system}: root set not closed under negation")
        # Entry (i, s): the key of root i reflected in alpha_s.
        refl = self.key[:, None] - self.pairings * self._powers
        if np.any(self.lookup(refl.ravel()) < 0):
            raise RuntimeError(f"{self.system}: root set not closed under reflection")

    # -- basic queries ----------------------------------------------------

    def is_root(self, coeffs: tuple) -> bool:
        return tuple(coeffs) in self.index

    def root_index(self, root: Root) -> int:
        try:
            return self.index[tuple(root)]
        except KeyError:
            raise InvalidRootError(f"{tuple(root)} is not a root of {self.system}") from None

    def simple_root(self, s: int) -> Root:
        """Fundamental root alpha_s, s in 1..l."""
        if not 1 <= s <= self.rank:
            raise ValueError(f"fundamental root index {s} out of range")
        return tuple(int(i == s - 1) for i in range(self.rank))

    @staticmethod
    def negate(root: Root) -> Root:
        return tuple(-x for x in root)

    @staticmethod
    def is_positive(root: Root) -> bool:
        return all(x >= 0 for x in root)

    # -- inner products ---------------------------------------------------

    def doubled_inner(self, alpha: Root, beta: Root) -> int:
        """2(alpha, beta), an integer in {-2, -1, 0, 1, 2}.

        Equals the Cartan number <alpha, beta> since all roots here have
        length 1.
        """
        return int(self.gram[self.root_index(alpha), self.root_index(beta)])

    def pairing(self, root: Root, s: int) -> int:
        """The Cartan pairing <root, alpha_s>, s in 1..l."""
        return int(self.pairings[self.root_index(root), s - 1])

    def classify_pair(self, alpha: Root, beta: Root) -> PairRelation:
        """Relative position of two roots, decided by the doubled product.

        The verdict is cross-validated against actual membership of
        alpha +- beta in the root set.
        """
        i, j = self.root_index(alpha), self.root_index(beta)
        d = int(self.gram[i, j])
        rel = _RELATION_BY_DOT2[d]
        total = tuple(a + b for a, b in zip(alpha, beta))
        diff = tuple(a - b for a, b in zip(alpha, beta))
        if (total in self.index) != (rel is PairRelation.SUM_IS_ROOT):
            raise RuntimeError(f"sum membership disagrees with product for {alpha}, {beta}")
        if (diff in self.index) != (rel is PairRelation.DIFFERENCE_IS_ROOT):
            raise RuntimeError(f"difference membership disagrees with product for {alpha}, {beta}")
        return rel

    def add_if_root(self, alpha: Root, beta: Root) -> Root | None:
        """alpha + beta when that vector is a root, else None."""
        i, j = self.root_index(alpha), self.root_index(beta)
        s = int(self.sums[i, j])
        return self.roots[s] if s >= 0 else None

    # -- weight indexing ---------------------------------------------------

    def weight_position(self, weight: Weight) -> int:
        """Position of a weight in the canonical coordinate order."""
        if isinstance(weight, ZeroWeight):
            if not 1 <= weight.s <= self.rank:
                raise ValueError(f"zero weight index {weight.s} out of range")
            return self.n_roots + weight.s - 1
        return self.root_index(weight)

    def weight_at(self, position: int) -> Weight:
        if 0 <= position < self.n_roots:
            return self.roots[position]
        if self.n_roots <= position < self.dim_v:
            return ZeroWeight(position - self.n_roots + 1)
        raise ValueError(f"weight position {position} out of range")

    def weight_to_json(self, position: int):
        w = self.weight_at(position)
        if isinstance(w, ZeroWeight):
            return {"zero": w.s}
        return {"root": list(w)}

    def weight_from_json(self, obj) -> int:
        if "zero" in obj:
            return self.weight_position(ZeroWeight(int(obj["zero"])))
        return self.weight_position(tuple(int(x) for x in obj["root"]))


def build_root_system(system: SystemId | str) -> RootSystem:
    """Construct the root system for a supported system id (e.g. "E6", "D5")."""
    if isinstance(system, str):
        system = SystemId.parse(system)
    return RootSystem(system)

"""The three families of quadratic forms cutting out the highest weight orbit.

For an orthogonal pair of roots (alpha, beta) with square members beta_i
(beta_1 = alpha, beta_{-1} = beta):

  pi/2 form:    v_a v_b - sum over the other square pairs {g, d} of
                N_{a,-g} N_{b,-d} v_g v_d
  2pi/3 form:   sum_{i != +-1} N_{b1,-bi} v_{b1-bi} v_{bi}
                - v_{b1} * sum_s <b_{-1}, alpha_s> v_s
  pi form:      sum_{i != +-1} (v_{b1-bi} v_{bi-b1} - v_{-bi} v_{bi})
                - sum_s <b1, alpha_s> v_s * sum_s <b_{-1}, alpha_s> v_s

Each form is a sparse integer combination of products of two distinct
weight coordinates.  Every family vanishes identically on the basis
vectors e^rho and, by the invariance theorem, on the whole orbit of e^rho
under the elementary group.

A full equation set holds one pi/2 form per maximal square, one 2pi/3
form per ordered orthogonal pair (both orders are emitted; the
orderedness is visible in the counts), and one pi form per unordered
pair.  Bulk generation builds all three families at once as flat
monomial arrays through the square descriptions above, from the square
index, the sum table and the sign table; form_monomials runs the same
kernels on any list of (kind, pair) for the verification suites.  The
kernels only describe forms.  _form_keys sorts each block of pairs once
and applies one rule: a form is missing, with no monomials, when the
square its pair is filed under does not hold the pair, when a table entry
read for it is no root number, or when it repeats a monomial.  The
tests keep per-form builders that follow the other description, through
the companion sets of the pair (tests/reference.py), and compare every
generated form with them.  Neither side checks itself: the identities
that make the descriptions agree are verification checks (combinatorics
companion-sets for the monomials, jacobi triangle and negation for the
2pi/3 signs, jacobi orthogonal-quadruple for the pi/2 coefficients).

An `EquationSet` holds its root system and arrays, and no Python object
per form: each form's kind code and integer name (its square's number,
or i * n_roots + j for the roots i and j of its pair), the names sorted
for lookup, and the flattened monomial arrays.  A `QuadraticForm` is
built from them only when it is read (`forms[i]`, `form_for`, JSON
output), its key from the root system.  Checks over Z and Z/m read the
arrays alone, and a failing check names its witness by the kind and key
of its form, without reading the form's monomials.

The generated arrays keep the Cartan part of each 2pi/3 and pi form as
the product written above.  Past the weight coordinates 0 to dim_v - 1
they have one coordinate L_g = sum_s <g, alpha_s> v_s at dim_v + g for
each root g, and the Cartan part is the one monomial -v_alpha L_beta of a
2pi/3 form, or -L_alpha L_beta (lower root number first) of a pi form:
786,240 monomials on E8, where the expanded forms have 1,046,304.
`_expand` reads an L monomial as the weight monomials it stands for,
c v_a L_g as sum_s c <g, alpha_s> v_a v_s and c L_g L_h as c times the
product of the two sums.  A form that is read, and the forms that
form_monomials returns to the verification ledger, go through it, so
they hold weight monomials only, as does a set built from forms.  The
packed keys and the L coordinates stay inside this module.

The compiled arrays of every set, generated, built from forms or taken
from another, share one layout that follows from their data (_layout):
coordinates as int16 while the set has fewer than 2^15 of them (dim_v +
n_roots, the weight and L coordinates), else int32, and coefficients in
the narrowest signed integer type that holds them, int8 in every
generated set.  That is 5 bytes a monomial, 3.9 MB on E8, where int64
arrays took 18.9 MB.  Generation builds its coefficients as int8 and
unpacks its keys straight into the narrow coordinates.  Only what a check
evaluates is widened, once per check: the restricted route gathers its
monomials as intp, and the whole-set walk widens one piece at a time and
makes every pass of the check on it before the next.  `_expand`, and so
every form that is read and form_monomials, give int64.

`EquationSet.check_vector` decides over Z and Z/m exactly, through the
compiled arrays.  Z/m coordinates are first lifted to [0, m).  The check
appends every L_g, computed from the Cartan coordinates so lifted, by
one int64 matrix product while it is exact (with Python ints past that,
and not at all when they are 0).  L is never reduced mod m, so every
form takes the value of its weight monomials.  Every value is at most
B = S * max|x|^2 in size, where S is the largest sum of |c| over the
weight monomials of one form, fixed at construction.  int64 products and
sums wrap around, so one int64 pass gives every value modulo 2^64.  The
route follows from B and m alone.  If B < 2^63 (and m < 2^63), that one
pass gives every value exactly, reduced mod m for Z/m.  Otherwise, over
Z/m with m < 2^31, one pass of residues modulo m itself is exact: a
product of two residues fits in int64, and so does a form's sum.
Otherwise the int64 pass is joined by residue passes modulo as many
primes below 2^31 as it takes for 2^64 times their product to exceed 2B.
Over Z a value is zero iff all its residues are.  Over Z/m, write
m = 2^e m' with m' odd and K = B // m: a value is a multiple k m of m
exactly when its residue mod 2^64 has e low zero bits, when
k = (that residue >> e) m'^-1 mod 2^(64-e), read as a signed (64-e)-bit
number, is at most K in size, and when k m matches every prime residue.
That is decided in int64 while K < 2^(63-e): K is about S m, and S is 25
to 52 on the supported systems, so for every odd or lightly even m up to
about 2^57.  Past that range every value is lifted as below and reduced
mod m.  Either way only the witness is lifted: value + B is its residue
mod 2^64 plus 2^64 times Garner's mixed-radix digits over the primes
(found in int64), summed as Python ints, and reduced mod m over Z/m.
Other rings, such as the polynomial ring, evaluate the forms one at a
time through `evaluate_form`.

A monomial c v_a v_b is exactly 0 unless a and b are both in the
vector's support (its nonzero coordinates, after the lift over Z/m), so
a check evaluates only the monomials that the support reaches and takes
every other form to be 0.  The compiled arrays carry an index for this:
the monomial numbers sorted by a, as int32, with each coordinate's start
(3 MB on E8).  The candidates of a check are the index entries under its
support coordinates, the nonzero L coordinates among them.  With P the
cost of the passes the check makes, 1 for the int64 pass and 2 for each
residue pass, the check gathers the candidates, keeps those whose b is
in the support too and evaluates them alone on every pass exactly when
candidates * (3 + P) < P * (monomials in the set); otherwise it walks
the whole set.  Both walks give every form the same value.  The index is
built with the arrays, and every array is read-only from construction (a
write raises ValueError), so a set is safe to share across threads.
"""

from __future__ import annotations

import bisect
import enum
import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .action import AdjointVector
from .rings import IntegerRing, IntegersMod
from .root_system import RootSystem, SystemId, freeze
from .signs import SignTable
from .squares import _no_square

# int64 products and sums wrap around, so one int64 pass gives every value
# modulo 2^64 (_WRAP), and exactly while S * max|x|^2 is below 2^63.
_WRAP = 1 << 64
# Residue arithmetic runs modulo numbers below 2^31, so a product of two
# residues fits in int64; a form's sum of residue products times
# coefficients does too while the form's sum of |c| is below 2^32.
_PRIME_LIMIT = 1 << 31
_MAX_WEIGHT = 1 << 32
# Bulk evaluation runs over slices of about this many monomials.  A check
# widens each slice's stored int16 coordinates to intp once, then makes all
# its passes on it: a 2^14-monomial int64 pass indexed by int16 coordinates
# took about 2.2 times as long as by intp ones, and one that widened them
# first about 1.3 times (2 vCPUs).  Each int64 temporary of a pass is
# 128 KB.  That is exactly glibc's default mmap threshold, so whether a
# slice's temporaries are reused or mmapped and page-faulted in again on
# every call depends on the allocator's history in the process (31 minor
# faults per D7 check were seen).  Larger slices fault more: 8 MB whole-set
# temporaries on E8, and 512 KB slices (2^16 monomials) on D7, which took
# about 640 minor faults per check.  Capping the slices below the threshold
# did not make the faults go away.  Smaller slices (2^12) cost E8 checks
# about 15% in loop overhead.
_EVAL_SLICE = 1 << 14
# A check evaluates only the monomials that its vector's support reaches
# while that is cheaper by this model, in int64 passes over one monomial:
# gathering a candidate (an index entry of a support coordinate) costs
# _GATHER_COST, and a pass costs 1, or 2 for a residue pass (the
# per-monomial % q).  The restricted route makes its passes over at most
# its candidates, the whole-set walk over every monomial.  Both routes were
# timed on every check of the benchmark streams (seeds 1 and 2: 384 E8,
# 1,200 E7 and 576 D7 checks each, best of three, two runs, 2 vCPUs).  The
# restricted route first lost at candidate shares of 0.13 to 0.16 on one
# int64 pass on E7 (never on E8, whose shares stay below 0.24), 0.18 to
# 0.22 on one residue pass modulo m (D7), 0.31 to 0.35 on the 2^64 pass
# and a prime, and never with two primes (shares up to 0.67).  With this
# constant the checks took 0% (E8), 1.1-1.5% (E7) and 2.0-2.1% (D7) longer
# in total than with the faster route picked for each; with a residue pass
# costing 1, 4.7-5.4% (D7); with 2, 1.6-2.4% (E7); with 4, 2.4-2.9% (E7)
# and 3.1-3.2% (D7).  The rule candidates * 6 < passes * monomials took
# 2.4-3.5% (E8), 5.1-6.8% (E7) and 12.9-13.3% (D7), and it would gather every
# monomial of a dense vector that makes 7 passes or more.
_GATHER_COST = 3


def _restricted(candidates: int, monomials: int, moduli) -> bool:
    """Whether a vector whose support coordinates list `candidates` of the
    set's `monomials` in the index is evaluated, in passes modulo each of
    `moduli`, on the monomials of its support alone."""
    passes = sum(1 if q == _WRAP else 2 for q in moduli)
    return candidates * (_GATHER_COST + passes) < monomials * passes


class FormKind(str, enum.Enum):
    PI2 = "pi/2"
    TWO_PI3 = "2pi/3"
    PI = "pi"


@dataclass(frozen=True)
class QuadraticForm:
    """A sparse integer quadratic form over weight coordinates.

    Monomials are (position_a, position_b, coefficient) with a <= b, sorted;
    each unordered coordinate pair appears at most once and coefficients
    are nonzero.  Equality a == b occurs only on the zero-weight diagonal
    of pi forms.
    """

    system: SystemId
    kind: FormKind
    key: tuple
    monomials: tuple[tuple[int, int, int], ...]

    def key_json(self):
        return key_json(self.kind, self.key)

    def to_json(self, rs: RootSystem):
        return {
            "kind": self.kind.value,
            "key": self.key_json(),
            "monomials": [
                {"a": rs.weight_to_json(a), "b": rs.weight_to_json(b), "c": c}
                for a, b, c in self.monomials
            ],
        }


def key_json(kind: FormKind, key):
    """The JSON object naming the form of that kind and key."""
    if kind is FormKind.PI2:
        return {"sigma": list(key)}
    alpha, beta = key
    return {"alpha": list(alpha), "beta": list(beta)}


def evaluate_form(form: QuadraticForm, v: AdjointVector):
    """Evaluate over the vector's ring; integer coefficients are embedded
    through the ring's characteristic-safe from_int."""
    if v.rs.system != form.system:
        raise ValueError(f"vector is over {v.rs.system}, form over {form.system}")
    ring = v.ring
    coords = v.coords
    total = ring.zero
    for a, b, c in form.monomials:
        total = ring.add(total, ring.mul(ring.from_int(c), ring.mul(coords[a], coords[b])))
    return total


_KINDS = tuple(FormKind)


def _name(rs: RootSystem, kind: FormKind, key) -> int:
    """EquationSet's name for the form of that kind and key: the number of
    the square with sum key, or i * n_roots + j for key = (root i, root j).
    KeyError when the key names no square or no pair of roots."""
    try:
        if kind is not FormKind.PI2:
            alpha, beta = key
            return rs.index[tuple(alpha)] * rs.n_roots + rs.index[tuple(beta)]
        s = bisect.bisect_left(rs.squares, tuple(key), key=lambda sq: sq.sigma)
        if rs.squares[s].sigma == tuple(key):
            return s
    except (TypeError, ValueError, IndexError):
        pass
    raise KeyError((kind, key))


class EquationSet:
    """All forms for one system, indexed by (kind, key), in canonical order.

    A set holds its root system, each form's kind code and integer name
    (see _name) and the flattened monomial arrays, all fixed at
    construction: the generator passes the arrays it built, and a set built
    from forms flattens them once here.  `form_for` finds a key by binary
    search in the sorted (kind, name) codes, and `forms` builds each
    QuadraticForm on request, its key read from the root system, so the
    same form read twice is equal but not identical.  No array is written
    after construction, so a set can be shared across threads.
    """

    def __init__(self, rs: RootSystem, forms=(), *, _parts=None):
        """The set of `forms`, keys known to _name and none twice; the
        generator passes `_parts` = (int8 codes into _KINDS, names, _Compiled)."""
        if _parts is None:
            forms = tuple(forms)
            codes = np.array([_KINDS.index(f.kind) for f in forms], dtype=np.int8)
            names = np.array([_name(rs, f.kind, f.key) for f in forms], dtype=np.int64)
            _parts = codes, names, _Compiled.from_forms(forms, rs.pairings)
        self.rs = rs
        self.system = rs.system
        self._kinds, self._names, self._compiled = _parts
        code = self._kinds.astype(np.int64) * rs.n_roots**2 + self._names
        self._order = np.argsort(code, kind="stable")
        self._sorted = code[self._order]
        if np.any(self._sorted[1:] == self._sorted[:-1]):
            raise ValueError("a form's kind and key occur twice in one set")
        freeze(self._kinds, self._names, self._order, self._sorted)

    @property
    def forms(self) -> "_Forms":
        return _Forms(self)

    def _read(self, lo: int, hi: int) -> list[QuadraticForm]:
        """Forms lo to hi - 1, their L monomials expanded."""
        c, rs = self._compiled, self.rs
        offsets = c.offsets[lo : hi + 1]
        s = slice(offsets[0], offsets[-1])
        f = np.repeat(np.arange(hi - lo), np.diff(offsets))
        f, a, b, coef = _expand(rs.pairings, f, c.ia[s], c.ib[s], c.c[s])
        monos = list(zip(a.tolist(), b.tolist(), coef.tolist()))
        ends = np.searchsorted(f, np.arange(hi - lo + 1)).tolist()
        return [
            QuadraticForm(self.system, *self._key(i), tuple(monos[x:y]))
            for i, (x, y) in enumerate(zip(ends, ends[1:]), lo)
        ]

    def _key(self, i: int):
        """(kind, key) of form i, the key read from the root system."""
        kind, name, rs = _KINDS[self._kinds[i]], int(self._names[i]), self.rs
        if kind is FormKind.PI2:
            return kind, rs.squares[name].sigma
        return kind, tuple(rs.roots[r] for r in divmod(name, rs.n_roots))

    def counts(self) -> dict[str, int]:
        n = np.bincount(self._kinds, minlength=len(_KINDS)).tolist()
        return {k.value: c for k, c in zip(_KINDS, n)}

    def form_for(self, kind: FormKind, key: tuple) -> QuadraticForm:
        """The form of that kind and key; KeyError if the set has none."""
        code = _KINDS.index(kind) * self.rs.n_roots**2 + _name(self.rs, kind, key)
        pos = int(np.searchsorted(self._sorted, code))
        if pos == len(self._sorted) or self._sorted[pos] != code:
            raise KeyError((kind, key))
        i = int(self._order[pos])
        return self._read(i, i + 1)[0]

    def of_kind(self, kind: FormKind) -> "EquationSet":
        """The forms of one kind, in order, as a set of their own."""
        rows = np.flatnonzero(self._kinds == _KINDS.index(kind))
        parts = self._kinds[rows], self._names[rows], self._compiled.take(rows)
        return EquationSet(self.rs, _parts=parts)

    def compiled(self) -> "_Compiled":
        return self._compiled

    def check_vector(self, v: AdjointVector):
        """(all_vanish, witness) where witness names the first failing form."""
        if v.rs.system != self.system:
            raise ValueError(f"vector is over {v.rs.system}, equations over {self.system}")
        if len(v.coords) != v.rs.dim_v:
            n = len(v.coords)
            raise ValueError(f"vector has {n} coordinates, {self.system} has {v.rs.dim_v}")
        ring = v.ring
        if isinstance(ring, IntegerRing):
            idx, value = self._compiled.first_nonzero(v.coords)
        elif isinstance(ring, IntegersMod):
            idx, value = self._compiled.first_nonzero(v.coords, ring.modulus)
        else:
            idx = value = None
            for i, f in enumerate(self.forms):
                x = evaluate_form(f, v)
                if not ring.is_zero(x):
                    idx, value = i, x
                    break
        if idx is None:
            return True, None
        kind, key = self._key(idx)
        return False, {"kind": kind.value, "key": key_json(kind, key), "value": ring.format(value)}

    def to_json_doc(self, rs: RootSystem):
        return {
            "system": str(self.system),
            "counts": self.counts(),
            "forms": [f.to_json(rs) for f in self.forms],
        }

    def to_json(self, rs: RootSystem) -> str:
        return json.dumps(self.to_json_doc(rs), sort_keys=True, separators=(",", ":"))


class _Forms(Sequence):
    """The forms of a set, read-only; each is built when it is read."""

    __slots__ = ("_eqset",)

    def __init__(self, eqset: EquationSet):
        self._eqset = eqset

    def __len__(self) -> int:
        return self._eqset._compiled.n_forms

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = range(len(self))[i]
        return self._eqset._read(i, i + 1)[0]

    def __iter__(self):
        n = len(self)
        for lo in range(0, n, _PAIR_BLOCK):
            yield from self._eqset._read(lo, min(lo + _PAIR_BLOCK, n))

    def __eq__(self, other):
        if not isinstance(other, (tuple, list, _Forms)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def _layout(dim: int, c: np.ndarray):
    """(coordinate dtype, coefficient dtype) of the compiled arrays over dim
    coordinates with the coefficients c: int16 while dim is below 2^15,
    else int32, and the narrowest signed integer type that holds c."""
    lo, hi = (int(c.min()), int(c.max())) if len(c) else (0, 0)
    for coef in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(coef).min <= lo and hi <= np.iinfo(coef).max:
            break
    return (np.int16 if dim < 1 << 15 else np.int32), coef


class _Compiled:
    """Flattened monomial arrays for bulk evaluation of a whole set, stored
    in _layout's dtypes, and an index of the monomials by their first
    coordinate.  A check widens only what it evaluates: _gather copies the
    monomials it keeps as intp, and _passes widens each piece of the
    whole-set walk once for every pass of the check."""

    def __init__(self, ia, ib, c, offsets, pairings: np.ndarray):
        """Form f owns monomials offsets[f]:offsets[f+1] of the arrays, over
        the weight coordinates and the L coordinates of the root system's
        `pairings` (see _factored_dim), kept in _layout's dtypes."""
        if np.any(offsets[1:] == offsets[:-1]):
            raise RuntimeError("empty form cannot be compiled")
        dim = len(pairings) + sum(pairings.shape)
        if len(ia) and (min(ia.min(), ib.min()) < 0 or max(ia.max(), ib.max()) >= dim):
            raise ValueError(f"a monomial reads a coordinate outside 0 to {dim - 1}")
        coord, coef = _layout(dim, c)
        self.ia = ia = ia.astype(coord, copy=False)
        self.ib = ib = ib.astype(coord, copy=False)
        self.c = c = c.astype(coef, copy=False)
        self.offsets = offsets
        freeze(ia, ib, c, offsets)
        self.n_forms = len(offsets) - 1
        self.pairings = pairings
        # _extend computes L in int64 while max|h| is at most this.
        self._l_top = (_WRAP // 2 - 1) // int(np.abs(pairings).sum(1).max())
        # The whole-set walk runs over pieces of whole forms of about
        # _EVAL_SLICE monomials: (values slice, ia, ib and c of the
        # monomials as views, form starts in the piece).
        cuts = np.searchsorted(offsets, np.arange(0, offsets[-1], _EVAL_SLICE), side="right") - 1
        # Not np.unique: it imports numpy.ma, about 10 ms of a cold set-up.
        bounds = sorted(set(cuts.tolist())) + [self.n_forms]
        pieces = []
        for f0, f1 in zip(bounds, bounds[1:]):
            s = slice(int(offsets[f0]), int(offsets[f1]))
            pieces.append((slice(f0, f1), ia[s], ib[s], c[s], offsets[f0:f1] - offsets[f0]))
        self._whole = (range(self.n_forms), tuple(pieces))
        # The index: coordinate a's monomials are the numbers
        # _by_a[_a_start[a]:_a_start[a + 1]], in increasing order.  It is
        # built by sorting the keys a * n + (monomial number), which keeps
        # every temporary in int32 on E8 (8 MB at most, about 15 ms), where
        # np.argsort would build an int64 permutation of the whole set.
        n = len(ia)
        dim = int(max(ia.max(initial=-1), ib.max(initial=-1))) + 1
        key = ia.astype(np.int32 if dim * n < 1 << 31 else np.int64)
        key *= n
        key += np.arange(n, dtype=key.dtype)
        key.sort()
        self._a_start = np.searchsorted(key, np.arange(dim + 1, dtype=key.dtype) * n)
        key %= n
        self._by_a = key.astype(np.int32, copy=False)
        freeze(self._a_start, self._by_a, *(piece[-1] for piece in pieces))
        # The largest sum of |c| over the weight monomials of one form, an L
        # monomial counted as those it stands for, so every value is at most
        # weight * max|x|^2 in size.  Clipping keeps the int64 sums exact.
        def size(c):
            return np.abs(np.clip(c.astype(np.int64), -_MAX_WEIGHT, _MAX_WEIGHT))

        weight = np.empty(self.n_forms, dtype=np.int64)
        for out, _, _, piece, starts in pieces:
            weight[out] = np.add.reduceat(size(piece), starts)
        big = np.flatnonzero(ib >= sum(pairings.shape))
        extra = size(c[big]) * (_l_sizes(pairings, ia[big], ib[big]) - 1)
        np.add.at(weight, np.searchsorted(offsets, big, side="right") - 1, extra)
        self.weight = max(int(weight.max(initial=0)), 1)
        if self.weight >= _MAX_WEIGHT:
            raise ValueError("a form's coefficients sum to 2^32 or more in size")

    @classmethod
    def from_forms(cls, forms, pairings: np.ndarray) -> "_Compiled":
        monos = np.array([m for f in forms for m in f.monomials], dtype=np.int64).reshape(-1, 3)
        offsets = np.cumsum([0] + [len(f.monomials) for f in forms], dtype=np.int64)
        return cls(*(np.ascontiguousarray(column) for column in monos.T), offsets, pairings)

    def take(self, rows: np.ndarray) -> "_Compiled":
        """The arrays of the forms `rows`, in that order."""
        sizes = np.diff(self.offsets)[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        mono = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], sizes)
        return _Compiled(self.ia[mono], self.ib[mono], self.c[mono], offsets, self.pairings)

    def _extend(self, xs):
        """The integer coordinates xs followed by L_g = sum_s <g, alpha_s> h_s
        for every root g, h the Cartan coordinates of xs, exactly: an int64
        array when they fit, else a list of Python ints."""
        n = len(self.pairings)
        h = xs[n:]
        top = max(map(abs, h), default=0)
        if top <= self._l_top:
            out = np.zeros(len(xs) + n, dtype=np.int64)
            try:
                out[: len(xs)] = xs
            except OverflowError:
                pass
            else:
                if top:
                    np.matmul(self.pairings, out[n : len(xs)], out=out[len(xs) :])
                return out
        return [*xs, *(self.pairings.astype(object) @ np.array(h, dtype=object)).tolist()]

    def _support(self, xs) -> np.ndarray:
        """The coordinates where the extended coordinates xs are nonzero that
        some monomial reads."""
        return np.flatnonzero(np.asarray(xs[: len(self._a_start) - 1]))

    def _candidates(self, support: np.ndarray) -> int:
        """How many monomials the index lists under the support coordinates."""
        return int((self._a_start[support + 1] - self._a_start[support]).sum())

    def _walk(self, xs, moduli):
        """The walk that evaluates the set at the extended coordinates xs in
        passes modulo each of `moduli`: the restricted one of `_gather` where
        `_restricted` says it is cheaper, else the whole-set walk."""
        support = self._support(xs)
        if _restricted(self._candidates(support), len(self.c), moduli):
            return self._gather(support)
        return self._whole

    def _gather(self, support: np.ndarray):
        """(forms, pieces) over the monomials c v_a v_b with a and b both in
        `support`, the only ones that can be nonzero there: forms are the
        numbers of the forms holding such a monomial, ascending, and the one
        piece is laid out as in the whole-set walk.  Every other form is
        exactly 0."""
        starts = self._a_start
        runs = [self._by_a[starts[a] : starts[a + 1]] for a in support.tolist()]
        mono = np.concatenate(runs) if runs else np.zeros(0, dtype=np.int32)
        inside = np.zeros(len(starts) - 1, dtype=bool)
        inside[support] = True
        # np.take converts narrow indices faster than indexing does, and
        # int64 indices spare numpy a conversion on each use below.
        mono = mono[inside.take(self.ib.take(mono))].astype(np.int64)
        if len(mono) == 0:
            return np.zeros(0, dtype=np.int64), ()
        # Monomial order is form order.
        mono.sort()
        form = np.searchsorted(self.offsets, mono, side="right") - 1
        first = np.flatnonzero(np.diff(form, prepend=-1))
        a, b = (x[mono].astype(np.intp) for x in (self.ia, self.ib))
        return form[first], ((slice(None), a, b, self.c[mono], first),)

    def _passes(self, xs, moduli, walk) -> list[np.ndarray]:
        """The walk's form values at the extended coordinates xs modulo each
        of `moduli`: _WRAP for the wrapping int64 pass, whose values are
        int64, or q < 2^31 for residues in [0, q).  Each piece of the walk
        is widened to intp once, and every pass reads it before the next."""
        forms, pieces = walk
        vectors = [_coordinates(xs, q) for q in moduli]
        values = np.empty((len(moduli), len(forms)), dtype=np.int64)
        for out, a, b, c, starts in pieces:
            a, b = a.astype(np.intp, copy=False), b.astype(np.intp, copy=False)
            for q, v, sums in zip(moduli, vectors, values):
                products = c * v[a] * v[b] if q == _WRAP else v[a] * v[b] % q * c
                sums[out] = np.add.reduceat(products, starts)
        for q, sums in zip(moduli, values):
            if q != _WRAP:
                sums %= q
        return list(values)

    def _bound(self, xs) -> int:
        return max(map(abs, xs), default=0) ** 2 * self.weight

    def _route(self, xs, modulus: int | None = None):
        """(bound, moduli) for exact evaluation at the integer coordinates xs,
        in [0, modulus) over Z/modulus: every value is at most bound in size,
        and _passes makes one pass modulo each of moduli.  [_WRAP] alone is
        exact, [modulus] is exact mod the modulus, and on [_WRAP, primes...]
        _zero_mod tells the zero values, in int64 where its range condition
        holds and else through _lift, and _lift gives the witness."""
        bound = self._bound(xs)
        # int64 must hold the exact values, and the modulus to reduce by it.
        if max(bound, modulus or 0) < _WRAP >> 1:
            return bound, [_WRAP]
        if modulus is not None and modulus < _PRIME_LIMIT:
            return bound, [modulus]
        return bound, [_WRAP] + _primes_above(2 * bound // _WRAP)

    def first_nonzero(self, coords, modulus: int | None = None):
        """(index, value) of the first form that does not vanish at the
        integer coordinates, or (None, None).  With a modulus the forms are
        read over Z/modulus and the value is a residue in [0, modulus).
        On the 2^64 pass and primes, _zero_mod finds the zero values, and
        only the witness is lifted, unless the modulus is outside the
        range of _zero_mod's int64 test: then every value is lifted."""
        xs = coords if modulus is None else [x % modulus for x in coords]
        bound, moduli = self._route(xs, modulus)
        # L is read from the reduced h and never reduced itself, so every
        # value is the one the weight monomials give, within the bound.
        xs = self._extend(xs)
        walk = self._walk(xs, moduli)
        forms = walk[0]
        passes = self._passes(xs, moduli, walk)
        primes = moduli[1:]
        if not primes:
            # The exact values, or their residues if the pass was mod m.
            values = passes[0] if modulus in (None, moduli[0]) else passes[0] % modulus
            nz = np.flatnonzero(values)
            return (int(forms[nz[0]]), int(values[nz[0]])) if len(nz) else (None, None)
        zero = _zero_mod(passes, primes, bound, modulus)
        if zero is None:
            zero = _lift(passes, primes, bound) % modulus == 0
        nz = np.flatnonzero(~zero)
        if len(nz) == 0:
            return None, None
        value = int(_lift([r[nz[:1]] for r in passes], primes, bound)[0])
        return int(forms[nz[0]]), value if modulus is None else value % modulus


def _coordinates(xs, q: int) -> np.ndarray:
    """The extended coordinates xs as the int64 vector of a _passes pass
    modulo q: wrapped to int64 for q = _WRAP, else their residues mod q."""
    if q == _WRAP:
        try:
            return np.asarray(xs, dtype=np.int64)
        except OverflowError:
            return np.array([x & _WRAP - 1 for x in xs], dtype=np.uint64).view(np.int64)
    if isinstance(xs, np.ndarray):
        return xs % q
    return np.array([x % q for x in xs], dtype=np.int64)


@functools.cache
def _prime(j: int) -> int:
    """The (j+1)-th largest prime below 2^31, found by trial division."""
    n = _PRIME_LIMIT - 1 if j == 0 else _prime(j - 1) - 2
    while not np.all(n % np.arange(3, math.isqrt(n) + 1, 2)):
        n -= 2
    return n


def _primes_above(bound: int) -> list[int]:
    """The largest primes below 2^31, as many as it takes for their product
    to exceed bound, and at least one."""
    primes = [_prime(0)]
    while math.prod(primes) <= bound:
        primes.append(_prime(len(primes)))
    return primes


def _zero_mod(passes, primes, bound: int, modulus: int | None):
    """Whether each value in [-bound, bound] with the residues `passes`
    (as _lift reads them) is 0, over Z (modulus None), or 0 mod modulus,
    decided in int64; None over Z/modulus where that is not exact.

    Over Z a value is 0 iff all its residues are.  Over Z/m, m = 2^e m'
    with m' odd, a value is k m for some |k| <= K = bound // m exactly when
    its 2^64 residue d has e low zero bits, k = (d >> e) m'^-1 mod 2^(64-e)
    read as a signed (64-e)-bit number is in [-K, K], and k m matches every
    prime residue: k m is then the value modulo 2^64 times the product of
    the primes, which exceeds 2 bound.  The signed read gives every k of
    [-K, K] while K < 2^(63-e), so the test declines past that."""
    if modulus is None:
        return ~np.logical_or.reduce([r != 0 for r in passes])
    e = (modulus & -modulus).bit_length() - 1
    k_max = bound // modulus
    if e > 63 or k_max >> 63 - e:
        return None
    d = passes[0].view(np.uint64)
    # The low 64 - e bits of (d >> e) m'^-1, shifted up and back down to
    # extend their sign; k = -2^(63-e) is out of range, so no abs().
    k = (d >> e) * pow(modulus >> e, -1, _WRAP) << e
    k = k.view(np.int64) >> e
    zero = (k >= -k_max) & (k <= k_max)
    if e:
        zero &= d & (1 << e) - 1 == 0
    for r, p in zip(passes[1:], primes):
        # t = (k mod p) m - r is 0 mod p iff k m matches r.  numpy reduces
        # these arrays by floor division about twice as fast as by %, and
        # k - k // p * p is exact even where k // p * p wraps.
        t = (k - k // p * p) * (modulus % p) - r
        zero &= t // p * p == t
    return zero


def _lift(passes, primes, bound: int) -> np.ndarray:
    """The integers in [-bound, bound] that are passes[0] (int64) modulo 2^64
    and passes[1:] modulo the primes, elementwise, as Python ints in an
    object array; 2^64 times the product of the primes must exceed 2 bound.
    value + bound = d + 2^64 (g_0 + g_1 p_0 + g_2 p_0 p_1 + ...), with d its
    residue mod 2^64 and Garner's digits g_j in [0, p_j) found in int64."""
    d = passes[0].view(np.uint64) + np.uint64(bound % _WRAP)
    digits = []
    for j, (r, p) in enumerate(zip(passes[1:], primes)):
        # The digits so far, d + 2^64 (g_0 + ... + g_{j-1} p_0 ... p_{j-2}),
        # mod p by Horner's rule: each product stays below 2^62.
        known = 0
        for g, q in zip(digits[::-1], primes[:j][::-1]):
            known = (known * q + g) % p
        known = (known * (_WRAP % p) + (d % np.uint64(p)).astype(np.int64)) % p
        inv = pow(_WRAP * math.prod(primes[:j]), -1, p)
        digits.append((r + bound % p - known) % p * inv % p)
    values = d.astype(object) - bound
    scale = _WRAP
    for g, p in zip(digits, primes):
        values += g.astype(object) * scale
        scale *= p
    return values


# Bulk generation holds its monomials as two parallel arrays, the sort key
# of _pack and the coefficient, and makes them a block of pairs at a time,
# which keeps the temporaries small next to the finished set.  Reading
# every form of a set expands its L monomials a block of forms at a time.
_PAIR_BLOCK = 1024


def _pack(form, a, b, dim: int) -> np.ndarray:
    """The keys (form << 2w) | (a << w) | b, w = dim.bit_length(), of the
    monomials v_a v_b, a <= b < dim, of forms `form`.  They sort like
    (form * dim + a) * dim + b, the canonical monomial order."""
    w = dim.bit_length()
    return form.astype(np.int64) << 2 * w | a.astype(np.int64, copy=False) << w | b


def _unpack(key, dim: int, coord=np.int64):
    """(form, a, b) of _pack's keys, a and b of dtype coord; form is `key`,
    shifted in place, which spares E8 generation an 8 MB array at its
    peak, and a and b are written straight into coord."""
    w = dim.bit_length()
    mask = (1 << w) - 1
    b = np.bitwise_and(key, mask, out=np.empty(len(key), coord), casting="unsafe")
    key >>= w
    a = np.bitwise_and(key, mask, out=np.empty(len(key), coord), casting="unsafe")
    key >>= w
    return key, a, b


def _sort_keys(key, c):
    """(key, c, positions of the keys equal to the one before) in key order;
    the sort is stable, so a few already sorted runs merge in linear time."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    return key, c[order], np.flatnonzero(key[1:] == key[:-1]) + 1


def _factored_dim(rs: RootSystem) -> int:
    """The coordinates of the generated arrays: the weight coordinates, then
    L_g = sum_s <g, alpha_s> v_s at dim_v + g for every root g."""
    return rs.dim_v + rs.n_roots


@functools.cache
def _upper(rank: int):
    """np.triu_indices(rank), read-only: the pairs s <= t."""
    s, t = np.triu_indices(rank)
    s.flags.writeable = t.flags.writeable = False
    return s, t


def _cartan_products(pa, pb) -> np.ndarray:
    """Row k: the coefficients of v_s v_t over the pairs s <= t of _upper in
    (sum_s pa[k, s] v_s)(sum_t pb[k, t] v_t)."""
    s, t = _upper(pa.shape[1])
    return pa[:, s] * pb[:, t] + np.where(s == t, 0, pa[:, t] * pb[:, s])


def _l_sizes(pairings, a, b) -> np.ndarray:
    """The sum of |c| over the weight monomials that L monomial v_a v_b
    stands for (b >= dim_v): sum_s |<g, alpha_s>| for v_a L_g, and the sum
    over the Cartan products for L_g L_h."""
    dim = pairings.shape[0] + pairings.shape[1]
    # Pairings and their products are at most 18 in size, so int8 keeps the
    # temporaries of E8's 15,120 pi forms at 0.5 MB each.
    pairings = pairings.astype(np.int8)
    sizes = np.abs(pairings[b - dim]).sum(1)
    two = np.flatnonzero(a >= dim)
    products = _cartan_products(pairings[a[two] - dim], pairings[b[two] - dim])
    sizes[two] = np.abs(products).sum(1)
    return sizes


def _expand(pairings, f, a, b, c):
    """(f, a, b, c) of the monomials c v_a v_b of forms f, each L monomial
    read as the weight monomials it stands for, in _pack order: c v_a L_g
    as sum_s c <g, alpha_s> v_a v_s, and c L_g L_h as c times
    _cartan_products.  The L monomials of a form must expand to monomials it
    does not hold (as in generated forms, whose other monomials read root
    coordinates only)."""
    n, rank = pairings.shape
    dim = n + rank
    plain = b < dim
    parts = [(f[plain], a[plain], b[plain], c[plain])]
    # c v_a L_g
    one = np.flatnonzero(~plain & (a < dim))
    if len(one):
        p, s = np.nonzero(pairings[b[one] - dim])
        k = one[p]
        parts.append((f[k], a[k], n + s, c[k] * pairings[b[k] - dim, s]))
    # c L_g L_h
    two = np.flatnonzero(a >= dim)
    if len(two):
        products = c[two, None] * _cartan_products(pairings[a[two] - dim], pairings[b[two] - dim])
        p, q = np.nonzero(products)
        s, t = _upper(rank)
        parts.append((f[two[p]], n + s[q], n + t[q], products[p, q]))
    f, a, b, c = (np.concatenate(column) for column in zip(*parts))
    key, c, repeated = _sort_keys(_pack(f, a, b, dim), c)
    if len(repeated):
        raise RuntimeError("quadratic form repeated a monomial")
    return (*_unpack(key, dim), c.astype(np.int64, copy=False))


def _held_rows(index, ii, jj):
    """(held, p, pos, m): whether the square that square_of files each pair
    (ii[p], jj[p]) under holds it as a pair, and that square's member_rows."""
    s = index.square_of[ii, jj]
    p, pos, m = index.member_rows(s)
    # Each square's rows start at an even position, so row k ^ 1 is k's mate.
    hit = (m == ii[p]) & (m[np.arange(len(m)) ^ 1] == jj[p]) & (s[p] >= 0)
    return np.bincount(p, hit, len(ii)) > 0, p, pos, m


def _roots_only(n: int, held, p, x):
    """x with each entry that is no root number (outside [0, n)) read as 0
    and its pair p marked not held in `held`, so that a sum or negation
    past the roots makes the form missing, as a misfiled pair does."""
    if not len(x) or (x.min() >= 0 and x.max() < n):
        return x
    bad = (x < 0) | (x >= n)
    held[p[bad]] = False
    return np.where(bad, 0, x)


def _other_members(index, ii, jj):
    """(held, p, m): _held_rows' held, and the members m other than the pair
    of the square that each pair (ii[p], jj[p]) is filed under, by p."""
    held, p, _, m = _held_rows(index, ii, jj)
    keep = (m != ii[p]) & (m != jj[p])
    return held, p[keep], m[keep]


def _cartan_part(a, b):
    """The part -v_a[p] v_b[p] of the form of each pair p."""
    return np.arange(len(a)), a, b, np.full(len(a), -1, dtype=np.int8)


def _pi2_monomials(ii, jj, rs: RootSystem, signs: SignTable):
    """The pi/2 form rooted at each pair (ii[p], jj[p]), as every kernel
    gives forms (see _form_keys): its square's v_a v_b - sum N_{a,-g} N_{b,-d}
    v_g v_d, (a, b) the first pair, times the sign of v_ii v_jj in it."""
    t, index = signs.table, rs.square_index
    held, p, pos, m = _held_rows(index, ii, jj)
    p, lead, g, d = p[0::2], pos[0::2] == 0, m[0::2], m[1::2]
    first = index.start[index.square_of[ii, jj]]
    a, b = index.members[first][p], index.members[first + 1][p]

    def neg(x):
        return _roots_only(rs.n_roots, held, p, rs.neg[x])

    c = np.where(lead, 1, -t[a, neg(g)] * t[b, neg(d)])
    root = (g == ii[p]) | (d == ii[p])
    sign = np.zeros(len(ii), dtype=c.dtype)
    sign[p[root]] = c[root]
    return held, [(p, g, d, c * sign[p])]


def _two_pi3_monomials(ii, jj, rs: RootSystem, signs: SignTable):
    """The 2pi/3 form of each ordered pair (alpha, beta) = (ii[p], jj[p])."""
    # N_{alpha,-m} v_{alpha-m} v_m over the other square members m.
    held, p, m = _other_members(rs.square_index, ii, jj)
    a, neg_m = ii[p], _roots_only(rs.n_roots, held, p, rs.neg[m])
    g = _roots_only(rs.n_roots, held, p, rs.sums[a, neg_m])
    # The Cartan part, -v_alpha L_beta.
    return held, [(p, g, m, signs.table[a, neg_m]), _cartan_part(ii, rs.dim_v + jj)]


def _pi_monomials(ii, jj, rs: RootSystem):
    """The pi form of each unordered pair (alpha, beta) = (ii[p], jj[p])."""
    # v_{alpha-m} v_{m-alpha} - v_m v_{-m} over the other square members m.
    held, p, m = _other_members(rs.square_index, ii, jj)
    neg_m = _roots_only(rs.n_roots, held, p, rs.neg[m])
    g = _roots_only(rs.n_roots, held, p, rs.sums[ii[p], neg_m])
    neg_g = _roots_only(rs.n_roots, held, p, rs.neg[g])
    one = np.ones(len(p), dtype=np.int8)
    # The Cartan part, -L_alpha L_beta.
    cartan = _cartan_part(rs.dim_v + ii, rs.dim_v + jj)
    return held, [(p, g, neg_g, one), (p, m, neg_m, -one), cartan]


def _form_keys(rs: RootSystem, signs: SignTable, codes, ii, jj):
    """The form of kind _KINDS[codes[f]] at each pair (ii[f], jj[f]), a
    block of pairs at a time: the pi/2 form rooted at the pair, the 2pi/3
    form of the ordered and the pi form of the unordered pair.  Returns
    (missing, (key, c)): the pairs that get no form, and the monomials with
    _pack's keys of form f over _factored_dim's coordinates, in key order
    within a kind.

    Each kernel returns held, whether the square that pair p of the block
    is filed under holds it and every entry read for it is a root number,
    and parts (p, a, b, c) of monomials c v_a v_b.  Monomials are dropped
    here alone, by one rule: before packing, the parts of pairs not held
    (which can read -1 as a root number, corrupting a key) and zero
    coefficients; after the block's one sort, every key of a form that
    repeats one, and the form is missing."""
    codes, ii, jj = np.asarray(codes), np.asarray(ii, np.int64), np.asarray(jj, np.int64)
    missing = np.zeros(len(codes), dtype=bool)
    kernels = ((_pi2_monomials, signs), (_two_pi3_monomials, signs), (_pi_monomials,))
    keys, cs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int8)]
    for code, (kernel, *args) in enumerate(kernels):
        forms = np.flatnonzero(codes == code)
        for lo in range(0, len(forms), _PAIR_BLOCK):
            f = forms[lo : lo + _PAIR_BLOCK]
            held, parts = kernel(ii[f], jj[f], rs, *args)
            key, c = [], []
            for p, a, b, coef in parts:
                keep = held[p] & (coef != 0)
                p, a, b = p[keep], a[keep], b[keep]
                key.append(_pack(f[p], np.minimum(a, b), np.maximum(a, b), _factored_dim(rs)))
                c.append(coef[keep])
            del parts  # freed before the sort, to keep generation's peak low
            key, c, repeated = _sort_keys(np.concatenate(key), np.concatenate(c))
            missing[f] = ~held
            if len(repeated):
                form = _unpack(key.copy(), _factored_dim(rs))[0]
                missing[form[repeated]] = True
                key, c = key[~missing[form]], c[~missing[form]]
            keys.append(key)
            cs.append(c)
    return missing, (np.concatenate(keys), np.concatenate(cs))


def form_monomials(rs: RootSystem, signs: SignTable, kinds, ii, jj):
    """The form of kind kinds[f] (a FormKind) at each pair (ii[f], jj[f]),
    built by _form_keys as generate_all_equations builds it.  Returns
    (missing, (f, a, b, c)): _form_keys' missing, and the monomials c v_a v_b
    of each form f over the weight coordinates, its Cartan part expanded, in
    (f, a, b) order."""
    missing, (key, c) = _form_keys(rs, signs, [_KINDS.index(k) for k in kinds], ii, jj)
    return missing, _expand(rs.pairings, *_unpack(key, _factored_dim(rs)), c)


def generate_all_equations(rs: RootSystem, signs: SignTable) -> EquationSet:
    """One pi/2 form per square, one 2pi/3 form per ordered orthogonal pair,
    one pi form per unordered pair, in deterministic key order; a
    RuntimeError names the first pair that _form_keys gives no form."""
    ii, jj = np.nonzero(rs.gram == 0)
    upper = ii < jj
    index = rs.square_index
    pairs = ii * rs.n_roots + jj
    names = np.concatenate([np.arange(len(rs.squares)), pairs, pairs[upper]])
    codes = np.repeat(np.arange(3, dtype=np.int8), [len(rs.squares), len(ii), upper.sum()])
    ii = np.concatenate([index.members[index.start], ii, ii[upper]])
    jj = np.concatenate([index.members[index.start + 1], jj, jj[upper]])
    missing, (key, c) = _form_keys(rs, signs, codes, ii, jj)
    if missing.any():
        x = int(missing.argmax())
        raise RuntimeError(_no_square(rs.roots[ii[x]], rs.roots[jj[x]]))
    dim = _factored_dim(rs)
    form, ia, ib = _unpack(key, dim, _layout(dim, c)[0])
    offsets = np.searchsorted(form, np.arange(len(names) + 1))
    # The form numbers fill the 8-byte key buffer, more than the 5 bytes a
    # monomial that the set keeps; it is freed before the index is built.
    del key, form
    return EquationSet(rs, _parts=(codes, names, _Compiled(ia, ib, c, offsets, rs.pairings)))


def eqset_from_json(rs: RootSystem, doc) -> EquationSet:
    if doc["system"] != str(rs.system):
        raise ValueError(f"equation file is for {doc['system']}, not {rs.system}")
    forms = []
    for fd in doc["forms"]:
        kind = FormKind(fd["kind"])
        kj = fd["key"]
        if kind is FormKind.PI2:
            key = tuple(int(x) for x in kj["sigma"])
        else:
            key = (tuple(int(x) for x in kj["alpha"]), tuple(int(x) for x in kj["beta"]))
        monos = tuple(
            sorted(
                (rs.weight_from_json(m["a"]), rs.weight_from_json(m["b"]), int(m["c"]))
                for m in fd["monomials"]
            )
        )
        forms.append(QuadraticForm(rs.system, kind, key, monos))
    return EquationSet(rs, forms)

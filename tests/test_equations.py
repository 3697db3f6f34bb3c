import copy
import gc
import hashlib
import json
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adjoint_quadrics import (
    AdjointVector,
    Elementary,
    EquationSet,
    FormKind,
    IntegersMod,
    IntegerRing,
    PolynomialRing,
    QuadraticForm,
    Word,
    ZeroWeight,
    apply_word,
    basis_vector,
    build_root_system,
    build_sign_table,
    enumerate_squares,
    eqset_from_json,
    evaluate_form,
    generate_all_equations,
    square_of_pair,
)
from adjoint_quadrics import equations
from adjoint_quadrics.verify import suite_jacobi
from corrupt import corrupted
from reference import pi2_form, pi2_form_for_square, pi_form, sign_column, two_pi3_form

# True form counts (pi/2 per square, 2pi/3 per ordered orthogonal pair,
# pi per unordered pair).  D_l square counts reflect the two square sizes.
COUNTS = {
    "D5": (90, 560, 280),
    "D6": (252, 1560, 780),
    "E6": (270, 2160, 1080),
    "E7": (756, 7560, 3780),
    "E8": (2160, 30240, 15120),
}


def _orth_pairs(rs):
    ii, jj = np.nonzero(np.triu(rs.gram == 0, k=1))
    return [(rs.roots[i], rs.roots[j]) for i, j in zip(ii.tolist(), jj.tolist())]


@pytest.mark.parametrize("name", ["D5", "D6", "E6"])
def test_counts_small(eqset_for, name):
    c = eqset_for(name).counts()
    assert (c["pi/2"], c["2pi/3"], c["pi"]) == COUNTS[name]


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_counts_large(eqset_for, name):
    c = eqset_for(name).counts()
    assert (c["pi/2"], c["2pi/3"], c["pi"]) == COUNTS[name]


def test_e6_two_pi3_root_monomials(system):
    # Six root-root monomials per form, one for each companion pair.
    rs, signs = system("E6")
    a, b = _orth_pairs(rs)[77]
    f = two_pi3_form(rs, signs, a, b)
    root_monos = [m for m in f.monomials if m[1] < rs.n_roots]
    assert len(root_monos) == 6


def test_pi2_monomial_count(system):
    # One monomial per orthogonal pair of the square.
    rs, signs = system("E6")
    for sq in enumerate_squares(rs)[:40]:
        f = pi2_form_for_square(rs, signs, sq)
        assert len(f.monomials) == sq.k
        a, b = sq.pairs[0]
        ai, bi = sorted((rs.root_index(a), rs.root_index(b)))
        lead = [c for x, y, c in f.monomials if (x, y) == (ai, bi)]
        assert lead == [1]


def test_two_pi3_monomial_count(system):
    rs, signs = system("D5")
    rng = random.Random(0)
    pairs = _orth_pairs(rs)
    for _ in range(40):
        a, b = pairs[rng.randrange(len(pairs))]
        sq = square_of_pair(rs, a, b)
        f = two_pi3_form(rs, signs, a, b)
        zero_terms = sum(1 for s in range(1, rs.rank + 1) if rs.pairing(b, s) != 0)
        assert len(f.monomials) == (2 * sq.k - 2) + zero_terms
        # Every form constrains at least one zero-weight coordinate.
        assert zero_terms >= 1


def test_pi_monomial_structure(system):
    rs, signs = system("E6")
    rng = random.Random(1)
    pairs = _orth_pairs(rs)
    for _ in range(25):
        a, b = pairs[rng.randrange(len(pairs))]
        sq = square_of_pair(rs, a, b)
        f = pi_form(rs, signs, a, b)
        root_monos = [m for m in f.monomials if m[0] < rs.n_roots and m[1] < rs.n_roots]
        zero_monos = [m for m in f.monomials if m[0] >= rs.n_roots and m[1] >= rs.n_roots]
        assert len(root_monos) == 2 * (2 * sq.k - 2)
        assert len(root_monos) + len(zero_monos) == len(f.monomials)
        assert len(zero_monos) >= 1


def test_e8_sized_forms(system):
    rs, signs = system("E8")
    a, b = _orth_pairs(rs)[5000]
    sq = square_of_pair(rs, a, b)
    f2 = pi2_form(rs, signs, a, b)
    assert len(f2.monomials) == 7
    fpi = pi_form(rs, signs, a, b)
    root_monos = [m for m in fpi.monomials if m[1] < rs.n_roots]
    assert len(root_monos) == 24  # |S_pi| + |S'_pi| = 12 + 12


def _check_rooting_signs(rs, signs, sq):
    base = pi2_form(rs, signs, sq.member(1), sq.member(-1))
    col = sign_column(rs, signs, sq, 1)
    for j in sq.signed_indices():
        other = pi2_form(rs, signs, sq.member(j), sq.member(-j))
        rescaled = tuple(sorted((a, b, col[j] * c) for a, b, c in other.monomials))
        assert rescaled == base.monomials


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_pi2_rooting_sign_exhaustive(system, name):
    # Rooting the pi/2 form at pair j instead of pair 1 rescales it by the
    # sign-column entry c(1)_j.
    rs, signs = system(name)
    for sq in enumerate_squares(rs):
        _check_rooting_signs(rs, signs, sq)


def test_pi2_rooting_sign_sampled_e7(system):
    rs, signs = system("E7")
    squares = enumerate_squares(rs)
    rng = random.Random(4)
    for _ in range(50):
        _check_rooting_signs(rs, signs, squares[rng.randrange(len(squares))])


def test_pi2_coefficients_are_the_sign_column(system):
    # The square form is sum_i c(1)_i v_{b_i} v_{b_-i}.
    rs, signs = system("E6")
    for sq in enumerate_squares(rs)[:60]:
        f = pi2_form_for_square(rs, signs, sq)
        col = sign_column(rs, signs, sq, 1)
        by_pair = {(min(a, b), max(a, b)): c for a, b, c in f.monomials}
        for p in range(1, sq.k + 1):
            ai = rs.root_index(sq.member(p))
            bi = rs.root_index(sq.member(-p))
            assert by_pair[(min(ai, bi), max(ai, bi))] == col[p]


def test_pi_swap_symmetry(system):
    rs, signs = system("D5")
    for a, b in _orth_pairs(rs):
        assert pi_form(rs, signs, a, b).monomials == pi_form(rs, signs, b, a).monomials


def test_pi2_swap_symmetry(system):
    rs, signs = system("D5")
    rng = random.Random(2)
    pairs = _orth_pairs(rs)
    for _ in range(40):
        a, b = pairs[rng.randrange(len(pairs))]
        assert pi2_form(rs, signs, a, b).monomials == pi2_form(rs, signs, b, a).monomials


def test_vanishing_on_root_basis_vectors(eqset_for, system):
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    ring = IntegerRing()
    for rho in rs.roots:
        ok, witness = eqset.check_vector(basis_vector(rs, ring, rho))
        assert ok, witness


def test_pi2_on_two_point_vector(system):
    # v = e^{b1} + e^{b-1} hits only the leading monomial.
    rs, signs = system("E6")
    sq = enumerate_squares(rs)[9]
    ring = IntegerRing()
    f = pi2_form_for_square(rs, signs, sq)
    v = basis_vector(rs, ring, sq.member(1))
    v.coords[rs.root_index(sq.member(-1))] = 1
    assert evaluate_form(f, v) == 1


def test_zero_vector_evaluates_to_zero(eqset_for, system):
    rs, _ = system("D5")
    from adjoint_quadrics import zero_vector

    eqset = eqset_for("D5")
    ok, _ = eqset.check_vector(zero_vector(rs, IntegerRing()))
    assert ok


def test_negative_control_zero_weight(eqset_for, system):
    # Some pi form must be nonzero on the first zero-weight basis vector:
    # the families genuinely constrain zero-weight coordinates.
    for name in ["D5", "E6"]:
        rs, _ = system(name)
        eqset = eqset_for(name)
        ok, witness = eqset.check_vector(basis_vector(rs, IntegerRing(), ZeroWeight(1)))
        assert not ok
        assert witness["kind"] == "pi"


def test_mod2_drops_even_coefficients(system):
    # A pi form with a +-2 zero-weight coefficient loses that monomial mod 2.
    rs, signs = system("D5")
    ring2 = IntegersMod(2)
    found = False
    for a, b in _orth_pairs(rs):
        f = pi_form(rs, signs, a, b)
        for x, y, c in f.monomials:
            if c % 2 == 0 and x >= rs.n_roots:
                v = AdjointVector(rs, ring2, [0] * rs.dim_v)
                v.coords[x] = 1
                v.coords[y] = 1
                # Only the (x, y) monomial could contribute; mod 2 it is gone.
                others = [m for m in f.monomials if (m[0], m[1]) != (x, y)]
                if all(v.coords[p] == 0 or v.coords[q] == 0 for p, q, _ in others):
                    assert evaluate_form(f, v) == 0
                    found = True
    assert found


def _route_name(compiled, coords, modulus=None):
    """The route first_nonzero takes at the integer coordinates: "int64"
    for the one exact int64 pass, "mod m" for one residue pass modulo the
    modulus, "2^64 + primes" for the wrapping pass and prime residues over
    Z.  Over Z/m those passes are "2^64 + primes, zero test" where
    _zero_mod tells the values that are 0 mod m in int64, and
    "2^64 + primes, lifted" where it declines and every value is lifted."""
    xs = coords if modulus is None else [x % modulus for x in coords]
    bound, moduli = compiled._route(xs, modulus)
    if len(moduli) == 1:
        return "int64" if moduli == [equations._WRAP] else "mod m"
    if modulus is None:
        return "2^64 + primes"
    empty = [np.zeros(0, dtype=np.int64)] * len(moduli)
    declined = equations._zero_mod(empty, moduli[1:], bound, modulus) is None
    return "2^64 + primes, " + ("lifted" if declined else "zero test")


def _route_values(compiled, coords, modulus=None, route=None):
    """Every form's value at the integer coordinates, over Z or Z/modulus,
    as Python ints, through the "whole" set walk, the "restricted" walk
    over the monomials of the support, or the walk first_nonzero takes, on
    the passes of _route_name's route.  On the 2^64 pass and primes every
    value is lifted, over Z and Z/m alike, so these values are a reference
    for _zero_mod's int64 test that does not go through it."""
    xs = coords if modulus is None else [x % modulus for x in coords]
    bound, moduli = compiled._route(xs, modulus)
    xs = compiled._extend(xs)
    if route == "whole":
        walk = compiled._whole
    elif route == "restricted":
        walk = compiled._gather(compiled._support(xs))
    else:
        walk = compiled._walk(xs, moduli)
    passes = compiled._passes(xs, moduli, walk)
    if len(moduli) > 1:
        values = equations._lift(passes, moduli[1:], bound)
    else:
        values = passes[0]
    if modulus is not None:
        values = values % modulus
    full = [0] * compiled.n_forms
    for f, x in zip(walk[0], values.tolist()):
        full[f] = x
    return full


def test_evaluate_form_generic_matches_compiled(eqset_for, system):
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    rng = random.Random(3)
    ring = IntegerRing()
    v = AdjointVector(rs, ring, [rng.randint(-5, 5) for _ in range(rs.dim_v)])
    values = _route_values(eqset.compiled(), v.coords)
    for idx in rng.sample(range(len(eqset.forms)), 40):
        assert evaluate_form(eqset.forms[idx], v) == values[idx]


def test_compiled_matches_direct_over_zmod(eqset_for, system):
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    rng = random.Random(9)
    ring = IntegersMod(6)
    v = AdjointVector(rs, ring, [rng.randrange(6) for _ in range(rs.dim_v)])
    values = _route_values(eqset.compiled(), v.coords, 6)
    for idx in rng.sample(range(len(eqset.forms)), 40):
        assert evaluate_form(eqset.forms[idx], v) == values[idx]


def test_compiled_big_integer_fallback(eqset_for, system):
    # Values far beyond int64 go through the residues and must agree with
    # direct evaluation: verdict, first failing form and its exact value.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    compiled = eqset.compiled()
    ring = IntegerRing()
    big = 10**40
    v = AdjointVector(rs, ring, [0] * rs.dim_v)
    v.coords[0] = big
    v.coords[1] = big + 1
    off = v.copy()
    off.coords[rs.n_roots] = -big
    # Squares fit in int64 here, but a form's sum of |c| times them does not.
    level = AdjointVector(rs, ring, [3 << 29] * rs.dim_v)
    # On the support {a, b} of a monomial every form's value is 2^64 times
    # the sum of its coefficients of v_a v_b, v_a^2 and v_b^2: 0 mod 2^64,
    # so only the prime tells the failing forms.
    wrap = AdjointVector(rs, ring, [0] * rs.dim_v)
    wrap.coords[compiled.ia[0]] = wrap.coords[compiled.ib[0]] = 1 << 32
    for w in (v, off, level, wrap):
        assert compiled._bound(w.coords) >= 1 << 63
        direct = [(i, x) for i, f in enumerate(eqset.forms) if (x := evaluate_form(f, w)) != 0]
        if not direct:
            assert compiled.first_nonzero(w.coords) == (None, None)
            assert eqset.check_vector(w) == (True, None)
            continue
        idx, value = compiled.first_nonzero(w.coords)
        assert (idx, value) == direct[0]
        assert abs(value) >= 1 << 62
        assert w is not wrap or value % (1 << 64) == 0
        f = eqset.forms[idx]
        witness = {"kind": f.kind.value, "key": f.key_json(), "value": str(value)}
        assert eqset.check_vector(w) == (False, witness)
    assert eqset.check_vector(v)[0] and not eqset.check_vector(off)[0]
    assert not eqset.check_vector(wrap)[0]


def _direct_check(eqset, v):
    """check_vector's answer, one form at a time through evaluate_form."""
    for f in eqset.forms:
        x = evaluate_form(f, v)
        if not v.ring.is_zero(x):
            return False, {"kind": f.kind.value, "key": f.key_json(), "value": v.ring.format(x)}
    return True, None


def test_unreduced_zmod_coordinates_are_lifted(eqset_for, system):
    # Z/m coordinates need not be reduced: an orbit vector shifted by
    # multiples of m is the same point, on or beyond the int64 range.
    rs, signs = system("D5")
    eqset = eqset_for("D5")
    for m in (7, 10**30):
        ring = IntegersMod(m)
        word = Word((Elementary(rs.roots[3], 2), Elementary(rs.roots[17], 5)))
        v = apply_word(rs, signs, word, basis_vector(rs, ring, rs.roots[0]))
        assert eqset.check_vector(v) == (True, None)
        for shift in (m << 59, m << 61, m << 80, -(m << 59)):
            shifted = AdjointVector(rs, ring, [x + shift for x in v.coords])
            assert _direct_check(eqset, shifted) == (True, None)
            assert eqset.check_vector(shifted) == (True, None)
        # Off the orbit, the witness value is the residue in [0, m).
        off = AdjointVector(rs, ring, [x + (m << 59) for x in v.coords])
        off.coords[40] += 1
        verdict = eqset.check_vector(off)
        assert verdict == _direct_check(eqset, off)
        assert verdict[0] is False and 0 < int(verdict[1]["value"]) < m


@pytest.mark.parametrize("m", [2**31 - 1, 2**31 - 2, 2**31])
def test_moduli_near_2_31_match_evaluate_form(eqset_for, system, m):
    # Coordinates near m put the bound past 2^63.  Below 2^31 one residue
    # pass modulo m gives the values; 2^31 - 1 is also the first prime, so
    # only the composite 2^31 - 2 shows a pass modulo the wrong number.
    # From 2^31 on they are lifted from the 2^64 pass and a prime: K = S 2^31
    # is past 2^32, the range of the zero test for a multiple of 2^31.
    rs, signs = system("D5")
    eqset = eqset_for("D5")
    compiled = eqset.compiled()
    ring = IntegersMod(m)
    rng = random.Random(m)
    word = Word(tuple(Elementary(rng.choice(rs.roots), rng.randrange(m)) for _ in range(4)))
    # Negated, the point still satisfies every form (they are quadratic),
    # and it has a coordinate m - 1.
    v = apply_word(rs, signs, word, basis_vector(rs, ring, rs.roots[5]))
    v = AdjointVector(rs, ring, [-x % m for x in v.coords])
    off = v.copy()
    off.coords[rs.n_roots + 2] = rng.randrange(m)
    for w in (v, off):
        route = "mod m" if m < 2**31 else "2^64 + primes, lifted"
        assert _route_name(compiled, w.coords, m) == route
        values = _route_values(compiled, w.coords, m)
        assert values == [evaluate_form(f, w) for f in eqset.forms]
        assert eqset.check_vector(w) == _direct_check(eqset, w)
    assert eqset.check_vector(v) == (True, None) and not eqset.check_vector(off)[0]


@pytest.mark.parametrize("m", [None, 2**31 - 1], ids=["Z", "Z/(2^31-1)"])
def test_bounds_near_2_63_match_evaluate_form(eqset_for, system, m):
    # The wrapping int64 pass is exact while the bound is below 2^63, so
    # bounds just past 2^62 and just below 2^63 take it alone, and one just
    # past 2^63 the residue pass modulo m or the 2^64 pass and a prime.
    # Every coordinate is 0 or +-x (x over Z/m), so the bound is S * x^2,
    # and dense vectors have values near it in size.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    compiled = eqset.compiled()
    ring = IntegerRing() if m is None else IntegersMod(m)
    rng = random.Random(63)
    past = "2^64 + primes" if m is None else "mod m"
    for target, up, route in ((1 << 62, 1, "int64"), (1 << 63, 0, "int64"), (1 << 63, 1, past)):
        x = math.isqrt(target // compiled.weight) + up
        assert (compiled._bound([x]) < target) == (up == 0)
        assert abs(compiled._bound([x]) - target) < target >> 20
        cone = [0] * rs.dim_v
        cone[5] = x
        off = cone.copy()
        off[rs.n_roots] = x
        dense = [rng.choice((x, -x) if m is None else (x, 0)) for _ in range(rs.dim_v)]
        for coords in (cone, off, dense):
            w = AdjointVector(rs, ring, coords)
            assert _route_name(compiled, coords, m) == route
            values = _route_values(compiled, coords, m)
            assert values == [evaluate_form(f, w) for f in eqset.forms]
            assert eqset.check_vector(w) == _direct_check(eqset, w)
        assert eqset.check_vector(AdjointVector(rs, ring, cone)) == (True, None)
        assert not eqset.check_vector(AdjointVector(rs, ring, dense))[0]
        if m is None:
            assert max(map(abs, values)) > target >> 3


def test_lift_is_exact_at_the_bound(system):
    # The form v_a v_b alone has S = 1, so at v_a = x, v_b = +-x its value
    # is +-B, the ends of the range the lift covers: B just past 2^63 (one
    # prime), just below 2^63 p (one prime) and just past it (two primes),
    # p the first prime.
    rs, _ = system("D5")
    i, j = map(int, np.argwhere(rs.gram == 0)[0])
    form = QuadraticForm(rs.system, FormKind.PI, (rs.roots[i], rs.roots[j]), ((0, 1, 1),))
    eqset = EquationSet(rs, (form,))
    p = equations._prime(0)
    for x, primes in (
        (math.isqrt(1 << 63) + 1, 1),
        (math.isqrt((p << 63) - 1), 1),
        (math.isqrt(p << 63) + 1, 2),
    ):
        for ring in (IntegerRing(), IntegersMod(2**64 + 1)):
            for sign in (1, -1):
                coords = [0] * rs.dim_v
                coords[0], coords[1] = x, sign * x
                v = AdjointVector(rs, ring, coords)
                moduli = eqset.compiled()._route(v.coords, getattr(ring, "modulus", None))[1]
                assert len(moduli) == 1 + primes
                direct = _direct_check(eqset, v)
                assert direct[1]["value"] == ring.format(ring.from_int(sign * x * x))
                assert eqset.check_vector(v) == direct


def _residue_passes(values, bound):
    """The passes of the route over the 2^64 pass and primes for the exact
    values, at most bound in size: the int64 pass and the residues modulo
    as many primes as _route takes.  Returns (passes, primes)."""
    primes = equations._primes_above(2 * bound // equations._WRAP)
    wrapped = np.array([x % equations._WRAP for x in values], dtype=np.uint64)
    residues = [np.array([x % p for x in values], dtype=np.int64) for p in primes]
    return [wrapped.view(np.int64), *residues], primes


# Moduli 2^e m' of the zero test: odd, even (e = 1, 40, 50, 62, 63),
# 3 (2^31 - 1), a multiple of the first prime, and 2^32 - 1, which is 1
# modulo it: on one prime k m matches the residues of -2^63 for k = -2^63,
# so only the signed range tells that value from a multiple of m.
ZERO_TEST_MODULI = [
    2**31 + 1,
    2**32 - 1,
    3 * (2**31 - 1),
    10**12 - 1,
    2 * (10**12 - 1),
    2**40,
    3 << 50,
    2**57 - 1,
    2**62,
    3 << 63,
]


@pytest.mark.parametrize("m", ZERO_TEST_MODULI)
def test_zero_mod_matches_python_residues(m):
    # Values at 0, at the multiples +-K m of m that end the range, next to
    # them, at +-bound and at random, with K = bound // m from 0 up to
    # 2^(63-e) - 1, the last K the int64 test reads: it tells the values
    # that are 0 mod m as Python's v % m does.  The value 2^63 reads
    # k = -2^(63-e), one past the signed range of [-K, K]; it is within
    # the bound unless m' = 1.
    e = (m & -m).bit_length() - 1
    top = 1 << 63 - e
    rng = random.Random(m)
    edge = False
    for k_max in sorted({0, min(1, top - 1), min(52 * m, top - 1), top - 1}):
        for bound in {k_max * m, k_max * m + m - 1}:
            ends = [0, k_max * m, k_max * m - 1, k_max * m + 1, bound, 1 << 63]
            ends += [rng.randint(-bound, bound) for _ in range(40)]
            ends += [rng.randint(-k_max, k_max) * m + rng.randint(-1, 1) for _ in range(40)]
            values = [x for v in ends for x in (v, -v) if abs(x) <= bound]
            passes, primes = _residue_passes(values, bound)
            zero = equations._zero_mod(passes, primes, bound, m)
            assert zero.tolist() == [x % m == 0 for x in values], (k_max, bound)
            over_z = equations._zero_mod(passes, primes, bound, None)
            assert over_z.tolist() == [x == 0 for x in values]
            edge |= 1 << 63 in values
    # Some bound reaches 2^63, unless m' = 1: then K m + m - 1 < 2^63.
    assert edge == (m >> e > 1)
    # Just past K = 2^(63-e) - 1 the test declines, so the values are lifted.
    bound = top * m
    passes, primes = _residue_passes([0, m, bound], bound)
    assert equations._zero_mod(passes, primes, bound, m) is None
    assert equations._zero_mod(passes, primes, bound - 1, m) is not None


@pytest.mark.parametrize("m", [10**12 - 1, 2 * (10**12 - 1)])
def test_dense_d7_orbit_points_over_large_moduli(system, eqset_for, m):
    # Long words make orbit points whose coordinates are mostly nonzero and
    # near m in size, so their values are decided by the int64 zero test.
    # The same points with one coordinate moved fail, and check_vector
    # names the form and value that evaluate_form finds first.
    rs, signs = system("D7")
    eqset = eqset_for("D7")
    compiled = eqset.compiled()
    ring = IntegersMod(m)
    rng = random.Random(m)
    for _ in range(3):
        word = Word(tuple(Elementary(rng.choice(rs.roots), rng.randrange(m)) for _ in range(80)))
        v = apply_word(rs, signs, word, basis_vector(rs, ring, rng.choice(rs.roots)))
        assert sum(x != 0 for x in v.coords) > rs.dim_v * 3 // 4
        off = v.copy()
        i = rng.randrange(rs.dim_v)
        off.coords[i] = (off.coords[i] + rng.randrange(1, m)) % m
        for w in (v, off):
            assert _route_name(compiled, w.coords, m) == "2^64 + primes, zero test"
            assert eqset.check_vector(w) == _direct_check(eqset, w)
        assert eqset.check_vector(v) == (True, None) and not eqset.check_vector(off)[0]


def test_checks_build_only_the_witness_form(system, monkeypatch):
    # Generation and Z, Z/m checks read the compiled arrays, and a failing
    # check names its witness from them: not even the witness form is
    # built.
    rs, signs = system("E6")
    built = []
    real = equations.QuadraticForm

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(equations, "QuadraticForm", counting)
    eqset = generate_all_equations(rs, signs)
    assert built == []
    for ring in (IntegerRing(), IntegersMod(7), IntegersMod(2**31 - 1), IntegersMod(10**12 - 1)):
        v = basis_vector(rs, ring, rs.roots[9])
        v.coords[rs.root_index(rs.roots[9])] = ring.parse(str(3 << 40))
        assert eqset.check_vector(v) == (True, None)
        assert built == []
        v = basis_vector(rs, ring, ZeroWeight(2))
        ok, witness = eqset.check_vector(v)
        assert not ok and built == []
        assert (ok, witness) == _direct_check(eqset, v)
        built.clear()


def test_witness_is_named_without_expanding_its_form(system, eqset_for, monkeypatch):
    # A negative control's witness (kind, key and value) comes from the
    # form's kind code and name and the check's value; the form's
    # monomials, whose Cartan part is expanded when read, are not read.
    rs, _ = system("D7")
    eqset = eqset_for("D7")
    controls = []
    for ring in (IntegerRing(), IntegersMod(7)):
        v = basis_vector(rs, ring, ZeroWeight(3))
        v.coords[4] = ring.from_int(2)
        controls.append((v, _direct_check(eqset, v)))
        assert controls[-1][1][0] is False

    def refuse(*args):
        raise AssertionError("the witness expanded a form")

    monkeypatch.setattr(equations, "_expand", refuse)
    for v, want in controls:
        assert eqset.check_vector(v) == want


def test_polynomial_vectors_take_the_per_form_route(eqset_for, system):
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    ring = PolynomialRing()
    x = ring.variable("x")
    v = AdjointVector(rs, ring, [ring.zero] * rs.dim_v)
    v.coords[0] = x
    assert eqset.check_vector(v) == (True, None)
    v.coords[rs.n_roots] = x * x
    verdict = eqset.check_vector(v)
    assert verdict == _direct_check(eqset, v)
    assert verdict[0] is False and verdict[1]["value"] != "0"


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_check_vector_matches_evaluate_form(eqset_for, system, data):
    # Scaled orbit vectors make every form vanish; a perturbed coordinate
    # usually breaks one.  Scales up to 10^60 need more than ten primes.
    rs, signs = system("D5")
    eqset = eqset_for("D5")
    modulus = data.draw(st.none() | st.integers(2, 10**30), label="modulus")
    ring = IntegerRing() if modulus is None else IntegersMod(modulus)
    roots = st.sampled_from(rs.roots)
    factors = data.draw(st.lists(st.tuples(roots, st.integers(-5, 5)), max_size=3), label="word")
    word = Word(tuple(Elementary(rho, xi) for rho, xi in factors))
    v = apply_word(rs, signs, word, basis_vector(rs, IntegerRing(), data.draw(roots, label="rho")))
    scale = data.draw(st.integers(-(10**60), 10**60), label="scale")
    coords = [scale * x for x in v.coords]
    if modulus is not None:
        lifts = st.integers(-(10**40), 10**40)
        coords = [x + modulus * data.draw(lifts) for x in coords]
    if data.draw(st.booleans(), label="perturb"):
        i = data.draw(st.integers(0, rs.dim_v - 1), label="at")
        coords[i] += data.draw(st.integers(-(10**60), 10**60), label="by")
    w = AdjointVector(rs, ring, coords)
    assert eqset.check_vector(w) == _direct_check(eqset, w)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_check_vector_matches_evaluate_form_on_wide_coordinates(eqset_for, system, data):
    # Coordinates of 0 to 130 bits on a few or all coordinates, over Z and
    # over Z/m for m up to 2^70, reach every route and every count of
    # primes; a single root coordinate gives a vector of the orbit cone.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    edges = st.sampled_from(
        [2**31 - 1, 2**31 + 1, 3 * (2**31 - 1), 2**40, 10**12 - 1, 2 * (10**12 - 1)]
        + [2**57 - 1, 2**62, 2**64 - 1, 2**64 + 1]
    )
    modulus = data.draw(st.none() | edges | st.integers(2, 2**70), label="modulus")
    ring = IntegerRing() if modulus is None else IntegersMod(modulus)
    bits = data.draw(st.integers(0, 130), label="bits")
    size = data.draw(st.sampled_from([1, 2, 5, rs.dim_v]), label="size")
    coords = [0] * rs.dim_v
    for i in data.draw(st.lists(st.integers(0, rs.dim_v - 1), max_size=size), label="at"):
        coords[i] = data.draw(st.integers(-(2**bits), 2**bits), label="x")
    w = AdjointVector(rs, ring, coords)
    assert eqset.check_vector(w) == _direct_check(eqset, w)


def test_key_indexing(eqset_for, system):
    # Forms are built when read, so form_for gives an equal form, not the
    # same object, and it is the one at the keyed position.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    for i in (0, 95, len(eqset.forms) - 1):
        f = eqset.forms[i]
        g = eqset.form_for(f.kind, f.key)
        assert g == f
        assert eqset.forms.index(g) == i


def test_of_kind_keeps_forms_in_order(eqset_for):
    eqset = eqset_for("D5")
    for kind in FormKind:
        part = eqset.of_kind(kind)
        assert part.forms == [f for f in eqset.forms if f.kind is kind]
        assert part.forms != part.forms[::-1]
        assert part.counts() == {k.value: len(part.forms) * (k is kind) for k in FormKind}
        f = part.forms[-1]
        assert part.form_for(kind, f.key) == f


def test_repeated_form_rejected(eqset_for, system):
    # form_for could name only one of two forms with the same kind and key,
    # while `forms` would list both, so a set refuses the second.
    rs, _ = system("D5")
    forms = eqset_for("D5").forms
    EquationSet(rs, (forms[0], forms[5]))
    f = forms[100]
    again = QuadraticForm(rs.system, f.kind, f.key, ((0, 1, 1),))
    for repeated in ((forms[0], forms[5], forms[0]), (f, again)):
        with pytest.raises(ValueError, match="twice"):
            EquationSet(rs, repeated)


def test_form_for_misses(eqset_for, system):
    # Keys that name no form of their kind raise KeyError, on the whole set
    # and on the part of that kind.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    i, j = map(int, np.argwhere(np.triu(rs.gram == 0, 1))[0])
    k = int(np.flatnonzero(rs.gram[i] == 1)[0])
    alpha, beta = rs.roots[i], rs.roots[j]
    sigma = tuple(2 * x for x in rs.squares[-1].sigma)
    assert sigma not in {sq.sigma for sq in rs.squares}
    misses = [
        (FormKind.TWO_PI3, (alpha, rs.roots[k])),
        (FormKind.PI, (alpha, tuple(2 * x for x in beta))),
        (FormKind.PI2, sigma),
        (FormKind.PI2, (alpha, beta)),
        (FormKind.PI, (beta, alpha)),
    ]
    for kind, key in misses:
        for part in (eqset, eqset.of_kind(kind)):
            with pytest.raises(KeyError):
                part.form_for(kind, key)
    assert eqset.of_kind(FormKind.PI).form_for(FormKind.PI, (alpha, beta)).key == (alpha, beta)
    assert eqset.form_for(FormKind.TWO_PI3, (beta, alpha)).key == (beta, alpha)


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_every_pi2_key_resolves(eqset_for, system, name):
    # A pi/2 key is found among the ascending keys of the squares' sums and
    # confirmed against the sigma table.  A sum that is no square's, with a
    # key between, below or above theirs, of the wrong length or past
    # int64, raises KeyError.
    rs, _ = system(name)
    eqset = eqset_for(name)
    sigmas = [tuple(x) for x in rs.square_index.sigma.tolist()]
    pi2 = eqset.of_kind(FormKind.PI2).forms
    for s, sigma in enumerate(sigmas):
        assert eqset.form_for(FormKind.PI2, sigma) == pi2[s]
    lowest, highest = sigmas[0], sigmas[-1]
    misses = [
        tuple(a + b for a, b in zip(sigmas[3], rs.roots[-1])),
        tuple(2 * x for x in lowest),
        tuple(2 * x for x in highest),
        highest[:-1],
        (2**70,) + highest[1:],
        rs.roots[0],
    ]
    for sigma in misses:
        assert sigma not in sigmas
        with pytest.raises(KeyError):
            eqset.form_for(FormKind.PI2, sigma)


def test_e8_set_holds_no_per_form_objects(system):
    # A set keeps its forms' kinds, names and monomials in arrays: after a
    # warm-up, a fresh E8 set holds fewer small Python objects than a tenth
    # of its forms (one tuple key per form held about 78,000).
    rs, signs = system("E8")
    generate_all_equations(rs, signs)
    gc.collect()
    before = sys.getallocatedblocks()
    eqset = generate_all_equations(rs, signs)
    gc.collect()
    assert sys.getallocatedblocks() - before < len(eqset.forms) // 10


def test_json_round_trip_byte_identical(eqset_for, system):
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    text1 = eqset.to_json(rs)
    doc = json.loads(text1)
    assert doc["counts"] == eqset.counts()
    back = eqset_from_json(rs, doc)
    text2 = back.to_json(rs)
    assert text1 == text2
    assert eqset.to_json(rs) == text1  # stable re-export


def test_json_rejects_wrong_system(eqset_for, system):
    rs6, _ = system("D6")
    eqset = eqset_for("D5")
    rs5, _ = system("D5")
    doc = json.loads(eqset.to_json(rs5))
    with pytest.raises(ValueError):
        eqset_from_json(rs6, doc)


@pytest.mark.parametrize(
    "ring", [IntegerRing(), IntegersMod(7), PolynomialRing()], ids=["Z", "Z/7", "Poly"]
)
def test_check_vector_rejects_wrong_length(system, eqset_for, ring):
    # One coordinate too many, set to 5, or one too few, on each route.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    v = basis_vector(rs, ring, rs.roots[0])
    for coords in (v.coords + [ring.from_int(5)], v.coords[:-1]):
        with pytest.raises(ValueError, match="coordinates"):
            eqset.check_vector(AdjointVector(rs, ring, coords))


def test_dimension_mismatch_rejected(eqset_for, system):
    rs6, _ = system("D6")
    eqset = eqset_for("D5")
    from adjoint_quadrics import zero_vector

    v6 = zero_vector(rs6, IntegerRing())
    with pytest.raises(ValueError):
        eqset.check_vector(v6)
    with pytest.raises(ValueError):
        evaluate_form(eqset.forms[0], v6)


# sha256 of the compiled arrays ia || ib || c || offsets as int64 bytes, and
# of the `equations` JSON text, as produced by the per-pair generator that
# the vectorised one replaced (the D7 and E7 JSON digests by the vectorised
# generator while it still built every form up front).  Generation must
# stay byte-identical.
COMPILED_SHA256 = {
    "D5": "424ac7e298b93e631bc1d4e633f486e4f5c42c6f4cf4c4adbff8ac9dd5f47477",
    "D6": "c9fb91241ca8fc132c74c1ea6fe81f4384f414af0eb463885b3e60081a7509ec",
    "D7": "eb758acd0ace809a527b42485696ad374f8a9ac7e33c092c8278f145bd499404",
    "E6": "c039cc4bc88221de6f4e8819403fe515a66352d707615d2c4748f8b5d36bac3f",
    "E7": "e160ebf7650cb89d93a9b3baf4df1e75f3163753016468b8501222d626626fcc",
    "E8": "f02cf4c654e377e37527f317fc1e07415203b0b03cad95a0a717fcda778f8db7",
}
JSON_SHA256 = {
    "D5": "c85c6b4eaf9c1d4788ee92a3be2a78eb338c49915cd8e24308b0497adeb46a64",
    "D6": "425f9947ac1557232d0a17b9d4decd2fbbaa5d491c4e393d5e2176f1f3616946",
    "D7": "06175387c2daadf43bcab1f84cd3720cf9406c9d5884e70185ef7868ed1c8c82",
    "E6": "a1ae248c28003e35cb001388186dbc8788c485bbcf8b7dc98c6d9c5b2c0c0767",
    "E7": "5860c4c4e80ef147878df3e0fb84aa5e75033242ab19bb1a0ac9057c020eb82b",
}


def _reference_form(rs, signs, squares_by_sigma, form):
    """The same form from the per-form builder for its kind and key."""
    if form.kind is FormKind.PI2:
        return pi2_form_for_square(rs, signs, squares_by_sigma[form.key])
    build = two_pi3_form if form.kind is FormKind.TWO_PI3 else pi_form
    return build(rs, signs, *form.key)


def _assert_matches_builders(rs, signs, forms):
    by_sigma = {sq.sigma: sq for sq in enumerate_squares(rs)}
    for f in forms:
        assert f == _reference_form(rs, signs, by_sigma, f), (f.kind, f.key)


@pytest.mark.parametrize("name", ["D5", "D6", "D7", "E6", "E7"])
def test_generator_matches_per_form_builders(system, eqset_for, name):
    rs, signs = system(name)
    _assert_matches_builders(rs, signs, eqset_for(name).forms)


def test_generator_matches_per_form_builders_sampled_e8(system, eqset_for):
    rs, signs = system("E8")
    forms = eqset_for("E8").forms
    sample = [forms[i] for i in random.Random(12).sample(range(len(forms)), 1200)]
    kinds = {f.kind for f in sample}
    assert kinds == set(FormKind)
    _assert_matches_builders(rs, signs, sample)


@pytest.mark.parametrize("name", ["D5", "D6", "D7", "E6", "E7", "E8"])
def test_generated_arrays_pinned_and_equal_to_flattened_forms(system, eqset_for, name):
    # The generated arrays hold each Cartan part as one L monomial; with
    # those expanded (as int64) they are the arrays of the forms flattened,
    # the ones the digests pin as int64 bytes, and the bound's weight is the
    # expanded forms' own.  Generated, flattened and per-kind sets all store
    # int16 coordinates and int8 coefficients.
    rs, _ = system(name)
    eqset = eqset_for(name)
    compiled = eqset.compiled()
    form = np.repeat(np.arange(compiled.n_forms), np.diff(compiled.offsets))
    f, ia, ib, c = equations._expand(rs.pairings, form, compiled.ia, compiled.ib, compiled.c)
    arrays = (ia, ib, c, np.searchsorted(f, np.arange(compiled.n_forms + 1)))
    flat = EquationSet(rs, eqset.forms).compiled()
    parts = [eqset.of_kind(kind).compiled() for kind in FormKind]
    for stored in (compiled, flat, *parts):
        assert (stored.ia.dtype, stored.ib.dtype, stored.c.dtype) == (np.int16, np.int16, np.int8)
    for got, want in zip(arrays, (flat.ia, flat.ib, flat.c, flat.offsets)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert digest == COMPILED_SHA256[name]
    assert compiled.weight == flat.weight
    assert len(compiled.c) < len(flat.c) and flat.ib.max() < rs.dim_v


@pytest.mark.parametrize("name", sorted(JSON_SHA256))
def test_equations_json_pinned(system, eqset_for, name):
    rs, _ = system(name)
    text = eqset_for(name).to_json(rs)
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_SHA256[name]


def _entries_read_by_pi2(rs):
    neg = rs.neg.tolist()
    used = set()
    for sq in enumerate_squares(rs):
        a, b = (rs.root_index(r) for r in sq.pairs[0])
        for g, d in sq.pairs:
            gi, di = rs.root_index(g), rs.root_index(d)
            used |= {(a, neg[gi]), (b, neg[di]), (a, neg[di]), (b, neg[gi])}
    return used


def _flip_two_pi3_sign(rs, signs):
    # N_{gamma,delta} of a 2pi/3 monomial that no pi/2 form reads, so only
    # the 2pi/3 forms change.
    pi2_entries = _entries_read_by_pi2(rs)
    ii, jj = np.nonzero(rs.gram == 0)
    for i, j in zip(ii.tolist(), jj.tolist()):
        gammas = np.nonzero((rs.gram[i] == 1) & (rs.gram[j] == 1))[0].tolist()
        entries = [(g, int(rs.sums[i, rs.neg[g]])) for g in gammas]
        hits = [e for e in entries if e not in pi2_entries]
        if hits:
            break
    g, d = hits[0]
    rs, signs = corrupted(rs, signs, "table")
    signs.table[g, d] *= -1
    return rs, signs


def _flip_pi2_sign(rs, signs):
    # N_{a,-g}, a from the first pair of the first square, g from its second.
    sq = enumerate_squares(rs)[0]
    a = rs.root_index(sq.pairs[0][0])
    g = rs.root_index(sq.pairs[1][0])
    rs, signs = corrupted(rs, signs, "table")
    signs.table[a, rs.neg[g]] *= -1
    return rs, signs


@pytest.mark.parametrize("flip", [_flip_two_pi3_sign, _flip_pi2_sign], ids=["two_pi3", "pi2"])
def test_jacobi_suite_fails_on_corrupted_form_sign(system, flip):
    # The generator builds the 2pi/3 and pi/2 coefficients from one
    # description each; the identities that make the other descriptions
    # agree are jacobi checks, and each fails on a single flipped entry.
    rs, signs = flip(*system("D5"))
    report = suite_jacobi(rs, signs, seed=0)
    failing = {c["name"] for c in report.checks if c["passed"] != c["attempted"]}
    assert {"antisymmetry", "negation", "triangle", "orthogonal-quadruple"} <= failing


def test_concurrent_checks_leave_set_unchanged():
    # check_vector, form_for and reading forms write nothing into the set,
    # so four threads sharing one freshly generated set give the serial
    # answers and leave it as it was.
    rs = build_root_system("D5")
    signs = build_sign_table(rs)
    eqset = generate_all_equations(rs, signs)
    attrs = dict(vars(eqset))
    compiled = eqset.compiled()
    compiled_attrs = dict(vars(compiled))
    array_names = ("ia", "ib", "c", "offsets", "_by_a", "_a_start", "pairings")
    arrays = [getattr(compiled, name).copy() for name in array_names]
    rng = random.Random(5)
    vectors = [basis_vector(rs, IntegerRing(), rho) for rho in rs.roots[::8]]
    vectors.append(basis_vector(rs, IntegerRing(), ZeroWeight(1)))
    big_mod = IntegersMod(10**12 - 1)
    vectors += [basis_vector(rs, big_mod, rho) for rho in rs.roots[::20]]
    for ring, top in (
        (IntegerRing(), 3),
        (IntegersMod(6), 5),
        (IntegerRing(), 10**30),
        (big_mod, 10**12 - 2),
    ):
        for _ in range(3):
            vectors.append(AdjointVector(rs, ring, [rng.randint(0, top) for _ in range(rs.dim_v)]))

    # Basis vectors take the restricted route, the dense ones the whole-set walk.
    routes = set()
    for v in vectors:
        m = getattr(v.ring, "modulus", None)
        xs = v.coords if m is None else [x % m for x in v.coords]
        moduli = compiled._route(xs, m)[1]
        candidates = compiled._candidates(compiled._support(compiled._extend(xs)))
        routes.add(equations._restricted(candidates, len(compiled.c), moduli))
    assert routes == {True, False}

    picks = rng.sample(range(len(eqset.forms)), 30) + [-1]
    keys = [(f.kind, f.key) for f in eqset.forms[::40]]

    def answers():
        return (
            [eqset.check_vector(v) for v in vectors],
            [eqset.forms[i] for i in picks],
            [eqset.form_for(kind, key) for kind, key in keys],
        )

    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(t):
        barrier.wait(timeout=30)
        results[t] = answers()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)

    serial = answers()
    verdicts = serial[0]
    assert any(ok for ok, _ in verdicts) and not all(ok for ok, _ in verdicts)
    assert results == [serial] * n_threads
    assert vars(eqset).keys() == attrs.keys()
    assert all(vars(eqset)[k] is attrs[k] for k in attrs)
    assert eqset.compiled() is compiled
    assert vars(compiled).keys() == compiled_attrs.keys()
    assert all(vars(compiled)[k] is compiled_attrs[k] for k in compiled_attrs)
    for name, want in zip(array_names, arrays):
        assert np.array_equal(getattr(compiled, name), want), name


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_sliced_evaluation_matches_whole_set_sums(system, eqset_for, name):
    # Sets this large are evaluated in several runs of whole forms; the
    # per-form values must equal one reduceat over all monomials.
    rs, _ = system(name)
    compiled = eqset_for(name).compiled()
    assert len(compiled._whole[1]) > 1
    xs = np.random.default_rng(7).integers(-50, 50, rs.dim_v).tolist()
    varr = compiled._extend(xs)
    whole = np.add.reduceat(
        compiled.c * varr[compiled.ia] * varr[compiled.ib], compiled.offsets[:-1]
    )
    assert _route_values(compiled, xs, route="whole") == whole.tolist()
    assert _route_values(compiled, xs, 7, "whole") == (whole % 7).tolist()


def test_oversized_coefficients_rejected(system):
    # Residue sums stay exact in int64 only while a form's sum of |c| is
    # below 2^32, so a set past that is refused at construction.
    rs, _ = system("D5")
    i, j = map(int, np.argwhere(rs.gram == 0)[0])
    pair = rs.roots[i], rs.roots[j]
    ok = QuadraticForm(rs.system, FormKind.PI, pair, ((0, 1, 2**31 - 1), (0, 2, 2**31)))
    EquationSet(rs, (ok,))
    for c in (2**32, -(2**63)):
        form = QuadraticForm(rs.system, FormKind.PI, pair, ((0, 1, c),))
        with pytest.raises(ValueError, match="2\\^32"):
            EquationSet(rs, (form,))


def test_coordinates_outside_the_set_rejected(system):
    # The coordinates are stored narrow, so one outside the set's weight
    # and L coordinates would wrap; it is refused at construction.
    rs, _ = system("D5")
    i, j = map(int, np.argwhere(rs.gram == 0)[0])
    pair = rs.roots[i], rs.roots[j]
    top = rs.dim_v + rs.n_roots
    for a, b in ((0, top - 1), (0, top), (-1, 3), (0, 1 << 16)):
        form = QuadraticForm(rs.system, FormKind.PI, pair, ((a, b, 1),))
        if b < top and a >= 0:
            EquationSet(rs, (form,))
        else:
            with pytest.raises(ValueError, match="coordinate"):
                EquationSet(rs, (form,))


@pytest.mark.parametrize("scale, dtype", [(300, np.int16), (2**31 - 1, np.int32)])
def test_wide_coefficients_are_stored_exactly(system, eqset_for, scale, dtype):
    # A set read from forms whose coefficients pass int8 stores them in the
    # narrowest type that holds them, and every check gives the exact values
    # of the forms as written on both walks, past 2^63 too: each form's
    # first coefficient is scale in size (its sum of |c| stays below 2^32).
    rs, _ = system("D5")
    forms = [
        QuadraticForm(f.system, f.kind, f.key, ((a, b, scale if c > 0 else -scale), *rest))
        for f in eqset_for("D5").forms
        for (a, b, c), *rest in [f.monomials]
    ]
    wide = EquationSet(rs, forms)
    compiled = wide.compiled()
    assert compiled.c.dtype == dtype and compiled.ia.dtype == compiled.ib.dtype == np.int16
    flat = np.array([c for f in forms for _, _, c in f.monomials])
    assert np.array_equal(compiled.c, flat) and max(abs(flat)) == scale
    rng = random.Random(scale)
    supports = _route_supports(rs, rng)
    _assert_routes_agree(wide, rs, rng, supports, range(len(supports)))
    for coords in ([rng.randrange(-3, 4) for _ in range(rs.dim_v)], [1 << 40] * rs.dim_v):
        for ring in (IntegerRing(), IntegersMod(7), IntegersMod(10**12 - 1)):
            v = AdjointVector(rs, ring, coords)
            assert wide.check_vector(v) == _direct_check(wide, v)


def test_coordinates_past_int16_are_stored_exactly():
    # Arrays over 2^15 coordinates or more store them as int32.  A system of
    # 2^14 roots and rank 1 has 2^14 + 1 weight coordinates and L
    # coordinates up to 2^15, all equal to its one Cartan coordinate; on
    # monomials that read coordinates on both sides of 2^15, every walk
    # gives the values of the same arrays evaluated in int64.
    n = 1 << 14
    pairings = np.ones((n, 1), dtype=np.int64)
    assert equations._layout(2 * n + 1, np.zeros(1, np.int64))[0] is np.int32
    assert equations._layout(2 * n - 1, np.zeros(1, np.int64))[0] is np.int16
    rng = np.random.default_rng(15)
    pool = np.array([0, 1, 7, n - 1, n, n + 1, 30000, (1 << 15) - 1, 1 << 15])
    sizes = rng.integers(1, 7, 300)
    a, b = np.sort(rng.choice(pool, (2, sizes.sum())), axis=0)
    c = rng.choice([-5, -2, -1, 1, 3, 4], sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    compiled = equations._Compiled(a, b, c, offsets, pairings)
    assert compiled.ia.dtype == compiled.ib.dtype == np.int32 and compiled.c.dtype == np.int8
    assert np.array_equal(compiled.ib, b) and compiled.ib.max() == 1 << 15
    weights = [0, 1, 7, n - 1, n]
    for m in (None, 7):
        for support in (weights, [n], range(n + 1)):
            coords = [0] * (n + 1)
            for s in support:
                coords[s] = int(rng.integers(-1000, 1000)) or 1
            x = np.array(coords + [coords[n]] * n, dtype=np.int64)
            want = np.add.reduceat(c * x[a] * x[b], offsets[:-1])
            want = want if m is None else want % m
            for route in ("restricted", "whole", None):
                assert _route_values(compiled, coords, m, route) == want.tolist(), (m, route)
            nz = np.flatnonzero(want)
            assert compiled.first_nonzero(coords, m) == (int(nz[0]), int(want[nz[0]]))


def test_generation_memory_per_monomial(system):
    # E7 generation, traced after a warm-up, peaks at about 21.2 bytes a
    # monomial and keeps about 12.7 (5 for the narrow arrays, about 4 for
    # the index).  int64 arrays peaked at 48 and kept 32; int64 coefficients
    # from the kernels on, or the key buffer kept while the index is built,
    # each peak at 28.
    rs, signs = system("E7")
    generate_all_equations(rs, signs)
    tracemalloc.start()
    try:
        eqset = generate_all_equations(rs, signs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monomials = int(eqset.compiled().offsets[-1])
    assert peak <= 24 * monomials and kept <= 16 * monomials, (peak / monomials, kept / monomials)


# The rings of the route-agreement test: (modulus, coordinate draw, the
# _route_name of each of its vectors).  The vector with no coordinate set
# takes the int64 pass unless the modulus does not fit in int64.  Z/6
# coordinates are drawn unreduced.  Small coordinates modulo 10^12 - 1
# make some L coordinates negative, so their residues are near m, yet the
# values stay on the int64 pass.  Past 2^31 the values are lifted, with
# one prime (10^12 - 1, 2^40) or several (2^64 + 1 and 2^64, whose
# coordinates need all 64 bits or more).  Over Z/(10^12 - 1) the int64
# zero test tells the values that are 0 mod m.  Over Z/(2^64 + 1) every
# value is lifted, since K = bound // m is past the test's range, but for
# the vector with no coordinate set: its K is 0.
LIFTED = {"int64", "2^64 + primes"}
ROUTE_RINGS = {
    "int": (None, lambda rng: rng.choice((-3, -2, -1, 1, 2, 3)), {"int64"}),
    "zmod-6": (6, lambda rng: rng.randrange(1, 6) + 6 * rng.randint(-3, 3), {"int64"}),
    "zmod-2^31-2": (2**31 - 2, lambda rng: rng.randrange(1, 2**31 - 2), {"int64", "mod m"}),
    "zmod-10^12-1": (
        10**12 - 1,
        lambda rng: rng.randrange(1, 10**12 - 1),
        {"int64", "2^64 + primes, zero test"},
    ),
    "zmod-10^12-1-small": (10**12 - 1, lambda rng: rng.randrange(1, 4), {"int64"}),
    "zmod-2^64+1": (
        2**64 + 1,
        lambda rng: rng.randrange(2**63, 2**64 + 1),
        {"2^64 + primes, zero test", "2^64 + primes, lifted"},
    ),
    "int-above-2^40": (None, lambda rng: rng.choice((-1, 1)) * rng.randrange(2**40, 2**41), LIFTED),
    "int-above-2^64": (None, lambda rng: rng.choice((-1, 1)) * rng.randrange(2**64, 2**66), LIFTED),
}


def _route_supports(rs, rng):
    """Supports from no coordinate to all of them.  A zero weight alone sets
    L coordinates, which the pi forms' L_alpha L_beta alone read; with all
    zero weights set, or with a root too, more of them are nonzero."""
    n, dim = rs.n_roots, rs.dim_v
    cartan = list(range(n, dim))
    fixed = [[], [n], [rng.randrange(n), n + 1], cartan, [rng.randrange(n), *cartan]]
    return fixed + [sorted(rng.sample(range(dim), k)) for k in (3, dim // 4, dim)]


def _assert_routes_agree(eqset, rs, rng, supports, by_evaluate_form):
    """On vectors with these supports over every route ring, the restricted
    walk gives every form the value that the whole-set walk gives, and on
    the supports numbered in by_evaluate_form the value evaluate_form
    gives; first_nonzero names the first form that is nonzero among them,
    and its value.  Returns, per ring, the set of _route_name's routes
    taken."""
    compiled = eqset.compiled()
    forms = list(eqset.forms) if by_evaluate_form else []
    used = {}
    for label, (m, draw, _) in ROUTE_RINGS.items():
        ring = IntegerRing() if m is None else IntegersMod(m)
        for i, support in enumerate(supports):
            coords = [0] * rs.dim_v
            for a in support:
                coords[a] = draw(rng)
            used.setdefault(label, set()).add(_route_name(compiled, coords, m))
            restricted = _route_values(compiled, coords, m, "restricted")
            assert restricted == _route_values(compiled, coords, m, "whole"), (m, support)
            first = next(((f, x) for f, x in enumerate(restricted) if x), (None, None))
            assert compiled.first_nonzero(coords, m) == first, (m, support)
            if i in by_evaluate_form:
                v = AdjointVector(rs, ring, coords)
                assert restricted == [evaluate_form(f, v) for f in forms], (m, support)
    return used


@pytest.mark.parametrize("name", ["D5", "D6", "D7", "E6", "E7", "E8"])
def test_restricted_route_matches_whole_set_walk(system, eqset_for, name):
    rs, _ = system(name)
    rng = random.Random(name)
    supports = _route_supports(rs, rng)
    # evaluate_form reads every E8 form in about 0.4 s, so on E7 and E8 it
    # checks the vectors with a quarter of the coordinates set, and the
    # whole-set walk checks the others.
    checked = range(len(supports)) if rs.dim_v < 100 else [6]
    used = _assert_routes_agree(eqset_for(name), rs, rng, supports, checked)
    assert used == {label: routes for label, (_, _, routes) in ROUTE_RINGS.items()}
    # In the 2pi/3 forms an L coordinate occurs only second, in
    # v_alpha L_beta, so the index lists nothing under it; a root and a zero
    # weight set some of them.
    two_pi3 = eqset_for(name).of_kind(FormKind.TWO_PI3)
    compiled, s = two_pi3.compiled(), rs.dim_v + 1
    assert compiled._a_start[s] == compiled._a_start[s + 1] and s in compiled.ib
    supports = [[rng.randrange(rs.n_roots), rs.n_roots + 1], range(rs.dim_v)]
    _assert_routes_agree(two_pi3, rs, rng, supports, [0] if rs.dim_v < 100 else [])


def test_route_agreement_catches_a_dropped_index_entry(system, eqset_for):
    # A copy of the index that lost one entry misses that monomial, and the
    # dense vectors of the route-agreement test find it.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    real = eqset.compiled()
    for j in (0, len(real._by_a) // 2, len(real._by_a) - 1):
        broken = copy.copy(real)
        broken._by_a = np.delete(real._by_a, j)
        a = int(real.ia[real._by_a[j]])
        broken._a_start = real._a_start - (np.arange(len(real._a_start)) > a)
        dropped = EquationSet.__new__(EquationSet)
        dropped.__dict__.update(vars(eqset), _compiled=broken)
        with pytest.raises(AssertionError):
            _assert_routes_agree(dropped, rs, random.Random(j), [range(rs.dim_v)], [])


def _assert_factored_agrees(factored, canonical, rs, rng):
    """On vectors with the route-test supports over every route ring, the
    set with L monomials and the same forms without them take the same
    route and give every form the same value, and check_vector the same
    verdict and witness.  Over Z/(10^12 - 1) some vector on the int64 pass
    has an L coordinate whose residue is past its largest coordinate: L
    reduced mod m there would give values far outside the bound."""
    f, c = factored.compiled(), canonical.compiled()
    assert f.weight == c.weight
    past = False
    for label, (m, draw, _) in ROUTE_RINGS.items():
        ring = IntegerRing() if m is None else IntegersMod(m)
        for support in _route_supports(rs, rng):
            coords = [0] * rs.dim_v
            for a in support:
                coords[a] = draw(rng)
            assert _route_name(f, coords, m) == _route_name(c, coords, m)
            assert _route_values(f, coords, m) == _route_values(c, coords, m), (label, support)
            assert f.first_nonzero(coords, m) == c.first_nonzero(coords, m)
            v = AdjointVector(rs, ring, coords)
            assert factored.check_vector(v) == canonical.check_vector(v), (label, support)
            if m == 10**12 - 1 and _route_name(f, coords, m) == "int64":
                l_mod_m = rs.pairings @ np.array(coords[rs.n_roots :]) % m
                past |= max(l_mod_m) > max(coords)
    assert past


@pytest.mark.parametrize("name", ["D5", "D7", "E6", "E7", "E8"])
def test_factored_evaluation_matches_canonical(system, eqset_for, name):
    # The generated set against the same forms rebuilt through
    # EquationSet(rs, forms), whose arrays hold no L coordinate; on E8 a
    # sample of 3,000 forms of each.
    rs, _ = system(name)
    eqset = eqset_for(name)
    if name == "E8":
        rows = np.array(sorted(random.Random(8).sample(range(len(eqset.forms)), 3000)))
        parts = eqset._kinds[rows], eqset._names[rows], eqset.compiled().take(rows)
        eqset = EquationSet(rs, _parts=parts)
        assert 0 not in eqset.counts().values()
    canonical = EquationSet(rs, eqset.forms)
    _assert_factored_agrees(eqset, canonical, rs, random.Random(name))


def test_factored_agreement_catches_a_flipped_l_coefficient(system, eqset_for):
    # A copy of the arrays with the sign of one L monomial flipped, in a
    # 2pi/3 form or in a pi form, gives that form other values.
    rs, _ = system("D5")
    eqset = eqset_for("D5")
    canonical = EquationSet(rs, eqset.forms)
    real = eqset.compiled()
    l_monos = np.flatnonzero(real.ib >= rs.dim_v)
    for j in (l_monos[0], l_monos[-1]):
        c = real.c.copy()
        c[j] *= -1
        broken = equations._Compiled(real.ia, real.ib, c, real.offsets, rs.pairings)
        flipped = EquationSet(rs, _parts=(eqset._kinds, eqset._names, broken))
        with pytest.raises(AssertionError):
            _assert_factored_agrees(flipped, canonical, rs, random.Random(int(j)))

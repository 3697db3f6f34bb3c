"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

All arithmetic is exact, so every tolerance below is exact equality.  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criteria 2 and 4 pin the true D_l constants, derived from l and the Gram
matrix rather than from the package's square enumeration: D_l squares come
in two sizes, l-1 and 3 pairs, and the companion sets of a pair lying in a
square of k' pairs have 2k'-2 elements.  The E systems keep their uniform
constants (k = 4, 5, 7; companion sets of 6, 8, 12).
"""

import math
import random
import time
from collections import Counter

import numpy as np

from adjoint_quadrics import (
    IntegerRing,
    ZeroWeight,
    basis_vector,
    build_root_system,
    enumerate_squares,
)
from adjoint_quadrics.squares import classify_root_vs_square
from adjoint_quadrics.verify import (
    suite_cases,
    suite_commutator,
    suite_jacobi,
    suite_words,
)
from reference import _class_pattern_ok, extend_a3_to_d4, pi2_form, sign_column

ALL_SYSTEMS = ["D5", "D6", "E6", "E7", "E8"]
EXHAUSTIVE = {"D5", "D6", "E6"}


def _line(num, ok, name, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}{tail}")


def _orth_pair_indices(rs):
    ii, jj = np.nonzero(np.triu(rs.gram == 0, k=1))
    return list(zip(ii.tolist(), jj.tolist()))


def test_criterion_01_root_counts_and_ranks(system):
    t0 = time.perf_counter()
    expected = {"D5": (45, 40), "D6": (66, 60), "E6": (78, 72), "E7": (133, 126), "E8": (248, 240)}
    bad = []
    for name in ALL_SYSTEMS:
        rs = build_root_system(name)  # fresh builds, timed
        if (rs.dim_v, rs.n_roots) != expected[name]:
            bad.append((name, rs.dim_v, rs.n_roots))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _line(1, ok, "root counts and module ranks", f"{elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 1.0, f"construction took {elapsed:.2f}s, stated bound is 1s"


# D_l closed forms, in coordinates where the roots are +-e_i +- e_j (i != j).
# A norm-4 vector that is the sum of two orthogonal roots has one of two
# shapes:
#   * +-2e_i = (+-e_i + e_j) + (+-e_i - e_j), one split for each j != i:
#     2l such sums, each a square of l-1 pairs;
#   * +-e_a +- e_b +- e_c +- e_d on four distinct axes, which splits into two
#     roots in 3 ways: 16*C(l,4) such sums, each a square of 3 pairs.
# A root +-e_i +- e_j is orthogonal to the 4*C(l-2,2) = 2(l-2)(l-3) roots on
# the other axes and to the 2 roots +-(e_i - e_j) (signs matched) on its own
# axes, so the unordered orthogonal pairs number
# 2l(l-1) * (2(l-2)(l-3) + 2) / 2 = l(l-1)(2(l-2)(l-3) + 2), which is 280 for
# D5 and 780 for D6, and equals 2l(l-1) + 3 * 16*C(l,4) as it must.  A pair
# in a square of k' pairs has companion sets of 2k'-2 elements, so D_l
# companion sets have 2l-4 or 4 elements, never 2(l-1).


def _d_square_census(l):
    """{pairs per square: number of squares} for D_l."""
    return {l - 1: 2 * l, 3: 16 * math.comb(l, 4)}


def _d_pair_count(l):
    """Number of unordered orthogonal root pairs in D_l."""
    return l * (l - 1) * (2 * (l - 2) * (l - 3) + 2)


def _square_size_from_gram(gram, i, j):
    """k' of the square holding the orthogonal pair (i, j), from the Gram matrix.

    A root gamma is a member of that square iff <gamma, alpha+beta> = 2:
    then delta = alpha+beta-gamma has norm 4 - 4 + 2 = 2, so it is a root,
    and <gamma, delta> = 0.  Each of the k' pairs contributes two members.
    """
    return int(np.count_nonzero(gram[:, i] + gram[:, j] == 2)) // 2


def test_criterion_02_k_and_cardinalities(system):
    t0 = time.perf_counter()
    stated_k = {"D5": 5, "D6": 6, "E6": 4, "E7": 5, "E8": 7}
    e_sizes = {"E6": 6, "E7": 8, "E8": 12}  # 2k-2 for the uniform k = 4, 5, 7
    k_bad = []
    for name in ALL_SYSTEMS:
        rs, _ = system(name)
        if rs.k != stated_k[name]:
            k_bad.append(name)

    size_bad = {}
    for name in ALL_SYSTEMS:
        rs, _ = system(name)
        l = rs.rank
        is_d = rs.system.family == "D"
        gram = rs.gram
        pairs = _orth_pair_indices(rs)
        if name not in EXHAUSTIVE:
            rng = random.Random(20)
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(10_000)]
        observed = set()
        k_seen = set()
        mismatches = 0
        for i, j in pairs:
            ga, gb = gram[i], gram[j]
            s23 = int(np.count_nonzero((ga == 1) & (gb == 1)))
            s_pi = int(np.count_nonzero((ga == -1) & (gb == -1)))
            s_pi_p = int(np.count_nonzero((ga == -1) & (gb == 1)))
            assert s_pi == s_pi_p  # the two order-pair families always match
            observed.add(s23)
            if is_d:
                k_sq = _square_size_from_gram(gram, i, j)
                k_seen.add(k_sq)
                expected = 2 * k_sq - 2 if k_sq in (l - 1, 3) else None
            else:
                expected = e_sizes[name]
            if not (s23 == s_pi == expected):
                mismatches += 1
        expected_set = {2 * l - 4, 4} if is_d else {e_sizes[name]}
        if mismatches or observed != expected_set:
            size_bad[name] = {
                "observed": sorted(observed),
                "expected": sorted(expected_set),
                "mismatched pairs": mismatches,
            }
            if is_d:
                size_bad[name]["k'"] = sorted(k_seen)
                size_bad[name]["expected k'"] = sorted({l - 1, 3})

    elapsed = time.perf_counter() - t0
    ok = not k_bad and not size_bad and elapsed < 30
    _line(2, ok, "k constants and companion-set cardinalities", f"{elapsed:.1f}s")
    assert not k_bad, k_bad
    assert elapsed < 30
    assert not size_bad, (
        f"companion-set sizes differ from 2k'-2: {size_bad}; for D_l the "
        "expected sizes are 2l-4 and 4 (squares of l-1 and 3 pairs, k' read "
        "from the Gram matrix), for E6/E7/E8 the fixed 6/8/12"
    )


def test_criterion_03_structure_constant_identities(system):
    t0 = time.perf_counter()
    bad = []
    sampled_attempted = {}
    for name in ALL_SYSTEMS:
        rs, signs = system(name)
        rep = suite_jacobi(rs, signs, seed=30)
        if not rep.ok:
            bad.append((name, [c for c in rep.checks if c["passed"] != c["attempted"]]))
        sampled_attempted[name] = rep.attempted
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60 and all(sampled_attempted[n] >= 100_000 for n in ("E7", "E8"))
    _line(3, ok, "structure-constant identity suite", f"{elapsed:.1f}s")
    assert not bad, bad
    assert sampled_attempted["E7"] >= 100_000 and sampled_attempted["E8"] >= 100_000
    assert elapsed < 60


def test_criterion_04_square_census(system):
    t0 = time.perf_counter()
    census_bad = []
    partition_bad = []
    e8_count = None
    for name in ALL_SYSTEMS:
        rs, _ = system(name)
        squares = enumerate_squares(rs)
        n_pairs = len(_orth_pair_indices(rs))
        if name == "E8":
            e8_count = len(squares)
        if rs.system.family == "D":
            # Two square sizes: check the census and the pair count against
            # the closed forms in l.
            l = rs.rank
            census = dict(Counter(sq.k for sq in squares))
            if census != _d_square_census(l) or n_pairs != _d_pair_count(l):
                census_bad.append(
                    (name, {"census": census, "expected": _d_square_census(l),
                            "pairs": n_pairs, "expected pairs": _d_pair_count(l)})
                )
        elif len(squares) * rs.k != n_pairs:
            census_bad.append((name, len(squares), rs.k, n_pairs))
        if sum(sq.k for sq in squares) != n_pairs:
            partition_bad.append(name)
    elapsed = time.perf_counter() - t0
    ok = not census_bad and not partition_bad and e8_count == 2160 and elapsed < 30
    _line(4, ok, "maximal-square census", f"E8={e8_count}, {elapsed:.1f}s")
    assert not partition_bad, partition_bad
    assert e8_count == 2160
    assert elapsed < 30
    assert not census_bad, (
        f"square census differs from the expected one: {census_bad}; E6/E7/E8 "
        "need #squares * k == #orthogonal pairs, D_l needs 2l squares of "
        "l-1 pairs, 16*C(l,4) squares of 3 pairs and l(l-1)(2(l-2)(l-3)+2) "
        "orthogonal pairs"
    )


def test_criterion_05_sign_column_lemma(system):
    t0 = time.perf_counter()
    failures = 0
    attempted = 0

    def check_square(rs, signs, sq):
        nonlocal failures, attempted
        idxs = sq.signed_indices()
        cols = {j: sign_column(rs, signs, sq, j) for j in idxs}
        for j in idxs:
            for h in idxs:
                attempted += 1
                if any(cols[h][i] != cols[h][j] * cols[j][i] for i in idxs):
                    failures += 1
        # Equivalent statement: rooting the pi/2 form at pair j rescales it
        # by the global sign c(1)_j.
        base = pi2_form(rs, signs, sq.member(1), sq.member(-1))
        for j in idxs:
            attempted += 1
            other = pi2_form(rs, signs, sq.member(j), sq.member(-j))
            sign = cols[1][j]
            if tuple(sorted((a, b, sign * c) for a, b, c in other.monomials)) != base.monomials:
                failures += 1

    rs, signs = system("E6")
    squares = enumerate_squares(rs)
    assert len(squares) == 270
    for sq in squares:
        check_square(rs, signs, sq)

    rs, signs = system("E8")
    squares = enumerate_squares(rs)
    rng = random.Random(50)
    for _ in range(1000):
        check_square(rs, signs, squares[rng.randrange(len(squares))])

    elapsed = time.perf_counter() - t0
    ok = failures == 0
    _line(5, ok, "sign-column lemma and pair-choice independence",
          f"{attempted} checks, {elapsed:.1f}s")
    assert failures == 0


def test_criterion_06_position_classification(system):
    t0 = time.perf_counter()
    failures = 0
    rs, signs = system("E6")
    squares = enumerate_squares(rs)
    attempted = 0
    for rho in rs.roots:
        for sq in squares:
            attempted += 1
            cls = classify_root_vs_square(rs, rho, sq)
            if not _class_pattern_ok(rs, rho, sq, cls):
                failures += 1
    assert attempted == 72 * 270

    rs, signs = system("E8")
    squares = enumerate_squares(rs)
    rng = random.Random(60)
    for _ in range(10_000):
        rho = rs.roots[rng.randrange(rs.n_roots)]
        sq = squares[rng.randrange(len(squares))]
        attempted += 1
        cls = classify_root_vs_square(rs, rho, sq)
        if not _class_pattern_ok(rs, rho, sq, cls):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    _line(6, ok, "five-class position lemma", f"{attempted} checks, {elapsed:.1f}s")
    assert failures == 0


def _a3_triples_exhaustive(rs):
    gram = rs.gram
    for a in rs.roots:
        ai = rs.root_index(a)
        for bi in np.nonzero(gram[ai] == -1)[0].tolist():
            b = rs.roots[bi]
            for ci in np.nonzero((gram[ai] == 0) & (gram[bi] == -1))[0].tolist():
                yield a, b, rs.roots[ci]


def test_criterion_07_a3_extension(system):
    t0 = time.perf_counter()
    failures = 0
    attempted = 0

    def check(rs, a, b, g):
        nonlocal failures, attempted
        attempted += 1
        d = extend_a3_to_d4(rs, a, b, g)
        if (
            rs.doubled_inner(d, a) != 0
            or rs.doubled_inner(d, g) != 0
            or rs.doubled_inner(d, b) != -1
        ):
            failures += 1

    for name in ["D5", "E6"]:
        rs, _ = system(name)
        for a, b, g in _a3_triples_exhaustive(rs):
            check(rs, a, b, g)

    for name in ["E7", "E8"]:
        rs, _ = system(name)
        rng = random.Random(70)
        gram = rs.gram
        done = 0
        while done < 10_000:
            ai = rng.randrange(rs.n_roots)
            bs = np.nonzero(gram[ai] == -1)[0]
            bi = int(bs[rng.randrange(len(bs))])
            cs = np.nonzero((gram[ai] == 0) & (gram[bi] == -1))[0]
            if len(cs) == 0:
                continue
            ci = int(cs[rng.randrange(len(cs))])
            check(rs, rs.roots[ai], rs.roots[bi], rs.roots[ci])
            done += 1

    # The explicit fundamental witnesses are themselves valid extensions.
    witness_ok = True
    for name in ["E6", "E7", "E8"]:
        rs, _ = system(name)
        a, b, g = rs.simple_root(2), rs.simple_root(4), rs.simple_root(3)
        d = rs.simple_root(5)
        witness_ok &= (
            rs.doubled_inner(d, a) == 0
            and rs.doubled_inner(d, g) == 0
            and rs.doubled_inner(d, b) == -1
        )
    for name in ["D5", "D6"]:
        rs, _ = system(name)
        l = rs.rank
        a, b, g = rs.simple_root(l - 1), rs.simple_root(l - 2), rs.simple_root(l)
        d = rs.simple_root(l - 3)
        witness_ok &= (
            rs.doubled_inner(d, a) == 0
            and rs.doubled_inner(d, g) == 0
            and rs.doubled_inner(d, b) == -1
        )

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and witness_ok
    _line(7, ok, "A3-to-D4 extension lemma", f"{attempted} triples, {elapsed:.1f}s")
    assert failures == 0
    assert witness_ok


def test_criterion_08_case_identity_ledger(system):
    t0 = time.perf_counter()
    bad = []
    e8_time = None
    for name in ALL_SYSTEMS:
        rs, signs = system(name)
        t1 = time.perf_counter()
        rep = suite_cases(rs, signs, seed=80, samples=100)
        if name == "E8":
            e8_time = time.perf_counter() - t1
        if not rep.ok:
            bad.append((name, [c for c in rep.checks if c["passed"] != c["attempted"]]))
    elapsed = time.perf_counter() - t0
    ok = not bad and e8_time < 180
    _line(8, ok, "symbolic case-identity ledger",
          f"19 entries x 100 samples x 5 systems, E8 {e8_time:.0f}s, total {elapsed:.0f}s")
    assert not bad, bad
    assert e8_time < 180, f"E8 ledger took {e8_time:.0f}s, stated bound is 180s"


def test_criterion_09_commutator_reduction(system):
    t0 = time.perf_counter()
    bad = []
    for name in ALL_SYSTEMS:
        rs, signs = system(name)
        rep = suite_commutator(rs, signs, seed=90, samples=200)
        if not rep.ok:
            bad.append((name, [c for c in rep.checks if c["passed"] != c["attempted"]]))
        # At least 100 configurations carrying the named decomposition per
        # class.  samples counts configurations, and those with rho
        # orthogonal to the whole square (22% of class pi/2 on D6, 5% on E7,
        # none elsewhere here) are verified by the fixes-square route
        # instead, so 200 are drawn per class.
        for c in rep.checks:
            if c["attempted"] != 200 or c["reductions"] < 100:
                bad.append((name, c["name"], "fewer than 100 verified reductions"))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _line(9, ok, "commutator reduction for classes pi/2 and pi/3",
          f"100 per class per system, {elapsed:.0f}s")
    assert not bad, bad


def test_criterion_10_theorem_end_to_end(system, eqset_for):
    t0 = time.perf_counter()
    # Timed single-vector full-set evaluation for E8.
    rs, signs = system("E8")
    eqset = eqset_for("E8")
    assert len(eqset.forms) == 47520
    rng = random.Random(100)
    from adjoint_quadrics import Elementary, Word, apply_word

    word = Word(
        tuple(
            Elementary(rs.roots[rng.randrange(rs.n_roots)], rng.randint(-2, 2))
            for _ in range(12)
        )
    )
    v = apply_word(rs, signs, word, basis_vector(rs, IntegerRing(), rs.roots[0]))
    t1 = time.perf_counter()
    ok_e8, _ = eqset.check_vector(v)
    single_eval = time.perf_counter() - t1
    assert ok_e8

    bad = []
    for name in ALL_SYSTEMS:
        rs, signs = system(name)
        rep = suite_words(rs, signs, eqset_for(name), seed=100, samples=100)
        if not rep.ok:
            bad.append((name, [c for c in rep.checks if c["passed"] != c["attempted"]]))
    elapsed = time.perf_counter() - t0
    ok = not bad and single_eval < 30 and elapsed < 600
    _line(10, ok, "random-word invariance over int, zmod:4, zmod:7",
          f"E8 single full-set eval {single_eval * 1000:.0f}ms, total {elapsed:.0f}s")
    assert not bad, bad
    assert single_eval < 30
    assert elapsed < 600


def test_criterion_11_negative_control(system, eqset_for):
    t0 = time.perf_counter()
    bad = []
    for name in ALL_SYSTEMS:
        rs, _ = system(name)
        eqset = eqset_for(name)
        ok, witness = eqset.check_vector(basis_vector(rs, IntegerRing(), ZeroWeight(1)))
        if ok or witness is None:
            bad.append(name)
        # Base-case counterpart: every root basis vector satisfies every form
        # (exhaustive over rho for all five systems).
        for rho in rs.roots:
            ok_rho, _ = eqset.check_vector(basis_vector(rs, IntegerRing(), rho))
            if not ok_rho:
                bad.append((name, rho))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _line(11, ok, "zero-weight basis vector violates some form; root vectors never do",
          f"{elapsed:.1f}s")
    assert not bad, bad

"""The batched suites against their scalar references.

The jacobi and combinatorics suites check every case, as root and square
numbers a block at a time; the cases and commutator suites check their
identities on integer coefficient arrays built from each root's rows.
These tests pin their reports, count their cases, compare each batched
check sample by sample with the scalar helper or Poly computation it
replaces, and show that corrupting a table makes the right checks fail.
"""

import functools
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from adjoint_quadrics import (
    RootSystem,
    build_root_system,
    build_sign_table,
    classify_root_vs_square,
    generate_all_equations,
    report_json,
    square_of_pair,
)
from adjoint_quadrics import batch
from adjoint_quadrics.batch import (
    Tables,
    a3_block,
    companion_block,
    conjugate,
    combinatorics_samples,
    modified_square_block,
    nonzero,
    position_block,
    position_failures,
    sign_column_block,
)
from adjoint_quadrics.equations import FormKind, _other_members, form_monomials
from adjoint_quadrics import verify
from adjoint_quadrics.squares import _ANGLE_BY_DOT2, _no_square
from adjoint_quadrics.verify import (
    CASE_PRODUCTS,
    LEDGER_ENTRIES,
    SuiteReport,
    _rng_for,
    case_identities,
    commutator_reductions,
    run_suite,
    sample_case_config,
    suite_cases,
    suite_combinatorics,
    suite_commutator,
    suite_jacobi,
)
from corrupt import corrupted
from reference import (
    _class_pattern_ok,
    conjugate_pair,
    extend_a3_to_d4,
    index_of,
    modified_square,
    pair_sets,
    sign_column,
    verify_case_identity,
    verify_commutator_reduction,
)

# sha256 of report_json of run_suite's jacobi and combinatorics reports.
# D5, D6 and E6 were always checked case by case, so theirs are the digests
# the scalar suites gave.  D7, E7 and E8 are those of the exhaustive suites;
# seed and samples change only the recorded seed.
PINNED = {
    ("D5", 0, None): "3a549319782315f590b11f8ad7101a128bba96a4f0cf734d0b51a7c273221a70",
    ("D6", 0, None): "2b4d0b681e02d2f0904efade9e90c54d114adb4338f37d18b3b6fad445b1997f",
    ("D7", 0, None): "cde6d0651fb1acc11bae0e40bb7199b693012c38d0fc88eaed789f4a2326b3f3",
    ("E6", 0, None): "b7e47ba6769950b6332fd263b1d86f1f5ce53452ecf5f9ef7a1a0e01d98ede49",
    ("E7", 0, None): "27d51df3abc788f817711a2db96bd6c3015c728f26bb64d158a06749386b0b4f",
    ("E8", 0, None): "a0848483b86dd7635867f359fa246c59a158181febffd04f86d87dfb5748d102",
    ("E7", 5, 37): "8121534ad68a49c95c5d049dc5acc5dbcf4e1a11593672e319570e2f9ebd3aec",
}


def _digest(reports) -> str:
    return hashlib.sha256(report_json(reports).encode()).hexdigest()


def _both(name, seed, samples):
    """run_suite's jacobi and combinatorics reports."""
    suites = ("jacobi", "combinatorics")
    return [rep for suite in suites for rep in run_suite(name, suite, seed, samples)]


_healthy_reports = functools.cache(_both)


@pytest.mark.parametrize("name, seed, samples", sorted(PINNED, key=str))
def test_suite_reports_pinned(name, seed, samples):
    reports = _healthy_reports(name, seed, samples)
    assert all(r.ok for r in reports)
    assert _digest(reports) == PINNED[name, seed, samples]


def _case_counts(rs):
    """Every check's number of cases, from the Gram matrix, the sum table
    and the square index alone."""
    gram, neg, n = rs.gram, rs.neg, rs.n_roots
    up, zero = gram == -1, gram == 0
    size = rs.square_index.size
    k = size // 2
    i, j = np.nonzero(up)
    h = rs.sums[i, j]
    ints = up.astype(np.int64)
    every = np.arange(n)
    return {
        "nonzero-iff-sum-is-root": n * n,
        "antisymmetry": n * n,
        "negation": n * n,
        "triangle": len(i),
        "orthogonal-quadruple": int(np.sum(k * (k - 1))),
        "jacobi-cocycle": int(np.sum(ints[h].sum(1) - ints[h, neg[i]] - ints[h, neg[j]])),
        "cartan-jacobi": int(np.count_nonzero((every[:, None] != every) & (neg[:, None] != every))),
        "square-census": 1,
        "companion-sets": int(np.count_nonzero(zero)),
        "conjugate-pairs": int(np.count_nonzero(zero)),
        "position-classes": n * len(size),
        "sign-columns": int(np.sum(size**2)),
        "modified-squares": int(np.sum(size)),
        "a3-extension": int(np.sum(up * (zero.astype(np.int64) @ ints))),
    }


@pytest.mark.parametrize("name", ["D5", "D7", "E7", "E8"])
def test_suites_check_every_case(name):
    reports = _healthy_reports(name, 0, None)
    attempted = {c["name"]: c["attempted"] for r in reports for c in r.checks}
    assert attempted == _case_counts(build_root_system(name))
    if name == "E8":
        return
    # Neither the seed nor --samples reaches these suites.
    for seed, samples in ((7, None), (0, 37), (7, 37)):
        other = _healthy_reports(name, seed, samples)
        assert [r.seed for r in other] == [seed, seed]
        assert [r.checks for r in other] == [r.checks for r in reports]


def test_suites_draw_no_random_numbers(monkeypatch, system):
    def refuse(*args, **kwargs):
        raise AssertionError("a jacobi or combinatorics check drew a random number")

    for name in ("randrange", "random", "choice"):
        monkeypatch.setattr(random.Random, name, refuse)
    rs, signs = system("E7")
    assert suite_jacobi(rs, signs, seed=3).ok
    assert suite_combinatorics(rs, signs, seed=3).ok
    with pytest.raises(AssertionError, match="random number"):
        batch.draw_root(rs, random.Random(0))


def _samples(rs, exhaustive: bool):
    """(pairs, (rho, square) configurations, squares, A_3 triples) as
    position arrays: every one of each, or 500 seeded draws of each."""
    gram, n, n_sq = rs.gram, rs.n_roots, len(rs.squares)
    if exhaustive:
        alpha, beta = np.nonzero(gram == 0)
        rho, cl = np.divmod(np.arange(n * n_sq), n_sq)
        squares = np.arange(n_sq)
        a, b = np.nonzero(gram == -1)
        p, c = np.nonzero((gram[a] == 0) & (gram[b] == -1))
        return (alpha, beta), (rho, cl), squares, (a[p], b[p], c)
    rng = random.Random(500)
    alpha, beta = np.nonzero(gram == 0)
    pairs = [(alpha[x], beta[x]) for x in (rng.randrange(len(alpha)) for _ in range(500))]
    configs = [(rng.randrange(n), rng.randrange(n_sq)) for _ in range(500)]
    squares = [rng.randrange(n_sq) for _ in range(500)]
    a, b = np.nonzero(gram == -1)
    triples = []
    for _ in range(500):
        t = rng.randrange(len(a))
        cs = np.flatnonzero((gram[a[t]] == 0) & (gram[b[t]] == -1))
        triples.append((a[t], b[t], cs[rng.randrange(len(cs))]))
    return (
        tuple(np.array(pairs).T),
        tuple(np.array(configs).T),
        np.array(squares),
        tuple(np.array(triples).T),
    )


def _scalar_companion(rs, alpha, beta):
    """(scan disagrees, sizes or members wrong, conjugate pairs wrong), as
    the scalar suite decided them.  Where conjugate_pair raises, the
    batched check fails the sample."""
    try:
        ps = pair_sets(rs, alpha, beta)
    except RuntimeError:
        return True, False, False
    sq = square_of_pair(rs, alpha, beta)
    expected = 2 * sq.k - 2
    neg_gammas = {rs.negate(g) for g, _ in ps.pi} | {alpha, beta}
    if (
        len(ps.half_pi) != sq.k - 1
        or len(ps.two_thirds) != expected
        or len(ps.pi) != expected
        or len(ps.pi_prime) != expected
        or neg_gammas != set(sq.members())
    ):
        return False, True, False
    orbits = set()
    try:
        for pr in ps.two_thirds:
            conj = conjugate_pair(rs, alpha, beta, pr)
            if conj == pr or conj not in ps.two_thirds:
                return False, False, True
            if conjugate_pair(rs, alpha, beta, conj) != pr:
                return False, False, True
            orbits.add(frozenset((pr, conj)))
    except (ValueError, RuntimeError):
        return False, False, True
    return False, False, len(orbits) != sq.k - 1


def _scalar_modified(rs, sq, j):
    """(modified_square raises, the result keeps the wrong members or is no
    square), as the scalar suite decided them."""
    try:
        out = modified_square(rs, sq, j)
    except RuntimeError:
        return True, False
    ok = out.member(j) == sq.member(j) and out.member(-j) == rs.negate(sq.member(-j))
    members = out.members()
    for x in range(len(members)):
        for y in range(x + 1, len(members)):
            paired = index_of(out, members[x]) == -index_of(out, members[y])
            ok &= rs.doubled_inner(members[x], members[y]) == (0 if paired else 1)
    return False, not ok


def _compare_positions(rs, tb, rho, cl):
    """position_block, every root against the squares of the configs
    (rho, cl) a size at a time, against classify_root_vs_square and
    _class_pattern_ok on those configs; returns the failing configs,
    sorted."""
    size = rs.square_index.size
    failing = []
    for width in np.unique(size[cl]).tolist():
        sel = size[cl] == width
        squares = np.unique(cl[sel])
        d, ok, missing = position_block(tb, squares)
        assert d.shape == ok.shape == missing.shape == (rs.n_roots, len(squares))
        assert not missing.any()
        r, s = rho[sel], cl[sel]
        q = np.searchsorted(squares, s)
        for x, y, dr, okr in zip(r, s, d[r, q], ok[r, q]):
            cls = classify_root_vs_square(rs, rs.roots[x], rs.squares[y])
            assert _ANGLE_BY_DOT2[int(dr)] is cls.kind
            assert okr == _class_pattern_ok(rs, rs.roots[x], rs.squares[y], cls)
            if not okr:
                failing.append((int(x), int(y)))
    return sorted(failing)


def _compare_with_scalar(rs, signs, samples):
    """Every batched check against its scalar helper, sample by sample."""
    tb = Tables(rs, signs)
    roots, pos = rs.roots, rs.index.__getitem__
    (alpha, beta), (rho, cl), squares, (a, b, c) = samples

    # Companion sets and conjugate pairs.
    outputs = companion_block(tb, alpha, beta)
    want = [_scalar_companion(rs, roots[x], roots[y]) for x, y in zip(alpha, beta)]
    assert np.array(outputs).T.tolist() == [list(w) for w in want]
    for x, y in zip(alpha[:100], beta[:100]):
        prs = sorted(pair_sets(rs, roots[x], roots[y]).two_thirds)
        g, d = (np.array([pos(r[i]) for r in prs]) for i in (0, 1))
        gp, dp = conjugate(tb, g, d, np.full(len(g), x), np.full(len(g), y))
        for pr, u, v in zip(prs, gp, dp):
            try:
                conj = conjugate_pair(rs, roots[x], roots[y], pr)
            except (ValueError, RuntimeError):
                assert u == v == -1
                continue
            assert {roots[u], roots[v]} == set(conj)

    _compare_positions(rs, tb, rho, cl)

    # Sign columns: bad[j, h] over signed-index positions.
    (bad,) = sign_column_block(tb, squares)
    for s, bad_s in zip(squares, bad):
        sq = rs.squares[s]
        idxs = sq.signed_indices()
        cols = {j: sign_column(rs, signs, sq, j) for j in idxs}
        want = [
            [any(cols[h][i] != cols[h][j] * cols[j][i] for i in idxs) for h in idxs]
            for j in idxs
        ]
        assert bad_s[: len(idxs), : len(idxs)].tolist() == want
        assert not bad_s[len(idxs) :].any() and not bad_s[:, len(idxs) :].any()

    # Modified squares: (raises, wrong members or no square) per signed index.
    error, bad = modified_square_block(tb, squares)
    for s, error_s, bad_s in zip(squares, error, bad):
        sq = rs.squares[s]
        want = [_scalar_modified(rs, sq, j) for j in sq.signed_indices()]
        want += [(False, False)] * (len(error_s) - len(want))
        assert list(zip(error_s.tolist(), bad_s.tolist())) == want

    # A_3 extensions.
    found, delta, ok = a3_block(tb, a, b, c)
    for x, y, z, fz, dz, okz in zip(a, b, c, found, delta, ok):
        try:
            ext = extend_a3_to_d4(rs, roots[x], roots[y], roots[z])
        except RuntimeError:
            assert not fz and not okz
            continue
        assert fz and roots[dz] == ext
        dots = [rs.doubled_inner(ext, roots[v]) for v in (x, z, y)]
        assert okz == (dots == [0, 0, -1])


@pytest.mark.parametrize("name, exhaustive", [("D5", True), ("E6", True), ("E8", False)])
def test_batched_checks_match_scalar_helpers(system, name, exhaustive):
    rs, signs = system(name)
    _compare_with_scalar(rs, signs, _samples(rs, exhaustive))


def test_batched_checks_match_scalar_helpers_on_corrupted_tables(system):
    # One pair of roots at angle pi/3 recorded as orthogonal, and one
    # structure constant flipped without its antisymmetric partner: the
    # scans, the position patterns, the modified-square products and the
    # sign columns now fail on some samples, and must fail on the same ones
    # as the scalar helpers, which read the same tables.
    rs, signs = corrupted(*system("D5"), "gram", "table")
    samples = _samples(rs, exhaustive=True)
    x, y = 0, int(np.flatnonzero(rs.gram[0] == 1)[0])
    rs.gram[x, y] = rs.gram[y, x] = 0
    u, v = (int(w[0]) for w in np.nonzero(signs.table))
    signs.table[u, v] *= -1
    _compare_with_scalar(rs, signs, samples)
    tb = Tables(rs, signs)
    # (x, y) now reads as orthogonal but lies in no square.
    with pytest.raises(RuntimeError, match="no square"):
        square_of_pair(rs, rs.roots[x], rs.roots[y])
    differ, _, _ = companion_block(tb, np.array([x]), np.array([y]))
    assert differ.tolist() == [True]
    (alpha, beta), (rho, cl), squares, (a, b, c) = samples
    assert np.array(companion_block(tb, alpha, beta)).any()
    count, (rho, cl), _ = position_failures(tb, combinatorics_samples(rs)[1])
    assert count == rs.n_roots * len(rs.squares) and len(rho)
    assert sign_column_block(tb, squares)[0].any()
    assert np.array(modified_square_block(tb, squares)).any()


def _zero_one_gram_pair(rs, signs):
    """A copy of the system with the doubled product of root 0 and the
    first root at product 1 to it recorded as 0."""
    rs, signs = corrupted(rs, signs, "gram")
    x, y = 0, int(np.flatnonzero(rs.gram[0] == 1)[0])
    rs.gram[x, y] = rs.gram[y, x] = 0
    return rs, signs


@pytest.mark.parametrize("name, corrupt", [("D6", False), ("D6", True), ("E6", True)])
def test_position_block_matches_scalar_helpers_on_every_config(system, name, corrupt):
    # Every root against every square, with two square sizes on D6; a
    # zeroed Gram pair moves the patterns of its two roots, and the kernel
    # must read them as the scalar helpers do.  The failures come out in
    # (rho, square) order, the order of the report.
    rs, signs = system(name)
    if corrupt:
        rs, signs = _zero_one_gram_pair(rs, signs)
    tb = Tables(rs, signs)
    rho, cl = np.divmod(np.arange(rs.n_roots * len(rs.squares)), len(rs.squares))
    want = _compare_positions(rs, tb, rho, cl)
    count, (rho, cl), (d, missing) = position_failures(tb, combinatorics_samples(rs)[1])
    assert count == rs.n_roots * len(rs.squares) and not missing.any()
    assert list(zip(rho.tolist(), cl.tolist())) == want
    assert bool(want) == corrupt


# sha256 of report_json([suite_combinatorics(..., seed=0)]), every failure
# kept, on _zero_one_gram_pair's tables: the position-class failures, taken
# from the kernel of one (rho, square) at a time, in their order and with
# their messages.
ZEROED_GRAM = {
    "D5": "71164cc2bb7fa383311acaba15d925b9a149874479cf9cfed90d2be4ff1b1b6c",
    "E6": "0f00933f778ff03b0ff176b6e23c629b64354859ebb0180b0114992581112fd9",
}


@pytest.mark.parametrize("name", sorted(ZEROED_GRAM))
def test_zeroed_gram_pair_report_pinned(monkeypatch, system, name):
    add = SuiteReport.add
    monkeypatch.setattr(
        SuiteReport, "add", lambda self, *args, **kw: add(self, *args, witness_limit=10**6)
    )
    rep = suite_combinatorics(*_zero_one_gram_pair(*system(name)), seed=0)
    positions = next(c for c in rep.checks if c["name"] == "position-classes")
    assert positions["failures"]
    assert _digest([rep]) == ZEROED_GRAM[name]


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (4, 7), (64, 126)])
@pytest.mark.parametrize("fill", ["empty", "full", "mixed"])
def test_nonzero_is_numpys(shape, fill):
    mask = {
        "empty": np.zeros(shape, dtype=bool),
        "full": np.ones(shape, dtype=bool),
        "mixed": np.random.default_rng(3).random(shape) < 0.3,
    }[fill]
    got, want = nonzero(mask), np.nonzero(mask)
    assert [x.dtype for x in got] == [x.dtype for x in want]
    assert [x.tolist() for x in got] == [x.tolist() for x in want]


def test_tables_keep_only_what_they_derive(system):
    # The kernels read the root system's and the sign table's own arrays;
    # Tables adds the keys, the doubled products from the coordinates and
    # kmax, and holds no second name or copy of a table.
    rs, signs = system("D5")
    tb = Tables(rs, signs)
    assert set(vars(tb)) == {"rs", "signs", "inner", "key", "_order", "_sorted", "kmax"}
    assert rs.gram.dtype == np.int8 and np.array_equal(tb.inner, rs.gram)


def test_batched_checks_on_d17():
    # D_17 has 38,114 squares, so square numbers pass 2^15, and its root
    # keys pass int64, so Tables holds them as Python ints.
    rs = build_root_system("D17")
    signs = build_sign_table(rs)
    tb = Tables(rs, signs)
    assert tb.key.dtype == object
    rng = np.random.default_rng(17)
    i, j = rng.integers(0, rs.n_roots, (2, 2000))
    assert tb.lookup(tb.key[i] - tb.key[j]).tolist() == rs.sums[i, rs.neg[j]].tolist()

    index, roots = rs.square_index, rs.roots
    squares = np.arange(len(rs.squares) - 8, len(rs.squares))
    p, pos, m = index.member_rows(squares)
    first = pos % 2 == 0
    alpha, beta = m[first], index.members[index.start[squares][p[first]] + pos[first] + 1]
    assert index.square_of[alpha, beta].tolist() == squares[p[first]].tolist()
    assert not np.array(companion_block(tb, alpha, beta)).any()
    for x, y in zip(alpha[:4], beta[:4]):
        assert _scalar_companion(rs, roots[x], roots[y]) == (False, False, False)
    held, q, others = _other_members(index, alpha, beta)
    assert held.all()
    for k, (x, y, s) in enumerate(zip(alpha.tolist(), beta.tolist(), squares[p[first]])):
        members = index.members[index.start[s] :][: index.size[s]].tolist()
        assert sorted(others[q == k].tolist()) == sorted(set(members) - {x, y})


def _flip_one_sign(rs, signs):
    """A copy of the system whose sign table has one antisymmetric pair of
    entries flipped, as in test_strict_mode_raises_on_corruption."""
    ii, jj = np.nonzero(signs.table)
    k = 0
    while int(jj[k]) == int(rs.neg[int(ii[k])]):
        k += 1
    i, j = int(ii[k]), int(jj[k])
    rs, signs = corrupted(rs, signs, "table")
    signs.table[i, j] *= -1
    signs.table[j, i] *= -1
    return rs, signs


# The failing checks (name, attempted, passed) and report digests on
# _flip_one_sign's tables.  D5 and E6 are those the scalar suites gave;
# E7, checked on every case, also fails its orthogonal quadruples and
# cocycles, which 400 samples missed.
FLIPPED = {
    ("D5", 0, None): (
        [
            ("negation", 1600, 1599),
            ("triangle", 480, 479),
            ("orthogonal-quadruple", 600, 590),
            ("jacobi-cocycle", 4800, 4720),
            ("cartan-jacobi", 1520, 1512),
            ("sign-columns", 3520, 3324),
        ],
        "384624d674eb1d4a53f1476bcfef3241238f85da96abd92c64585c43129801c6",
    ),
    ("E6", 0, None): (
        [
            ("negation", 5184, 5183),
            ("triangle", 1440, 1439),
            ("orthogonal-quadruple", 3240, 3222),
            ("jacobi-cocycle", 25920, 25776),
            ("cartan-jacobi", 5040, 5032),
            ("sign-columns", 17280, 16812),
        ],
        "90979ce0d48df6ba5ec7e1e0be28d24b42a1726fb0c631aeeca4bc4aa0dc99ba",
    ),
    ("E7", 3, 400): (
        [
            ("negation", 15876, 15875),
            ("triangle", 4032, 4031),
            ("orthogonal-quadruple", 15120, 15090),
            ("jacobi-cocycle", 120960, 120720),
            ("cartan-jacobi", 15624, 15616),
            ("sign-columns", 75600, 74580),
        ],
        "c7f1603dcf8e00f0ea23b82b9cf530c4cfc216ce877275597c0b3a5fdee3bb1d",
    ),
}


def _failing(reports):
    return [
        (c["name"], c["attempted"], c["passed"])
        for r in reports
        for c in r.checks
        if c["passed"] != c["attempted"]
    ]


def _flipped_reports(monkeypatch, system, name, seed, samples):
    rs, signs = _flip_one_sign(*system(name))
    monkeypatch.setattr(verify, "build_root_system", lambda system: rs)
    monkeypatch.setattr(verify, "build_sign_table", lambda rs: signs)
    return _both(name, seed, samples)


@pytest.mark.parametrize("name, seed, samples", sorted(FLIPPED, key=str))
def test_flipped_sign_fails_like_the_scalar_suites(monkeypatch, system, name, seed, samples):
    reports = _flipped_reports(monkeypatch, system, name, seed, samples)
    checks, digest = FLIPPED[name, seed, samples]
    assert _failing(reports) == checks
    assert _digest(reports) == digest


def test_flipped_sign_fails_every_structure_check_on_e8(monkeypatch, system):
    failing = {c[0] for c in _failing(_flipped_reports(monkeypatch, system, "E8", 0, None))}
    assert failing == {
        "negation",
        "triangle",
        "orthogonal-quadruple",
        "jacobi-cocycle",
        "cartan-jacobi",
        "sign-columns",
    }


def test_square_index_swap_fails_companion_sets(system):
    # The square formulas read the square index, the direct scans only the
    # roots: a member moved into another square must show.
    rs, signs = corrupted(*system("D5"), "square_index.members")
    index = rs.square_index
    members = index.members
    square_0 = members[: index.size[0]]
    square_1 = members[index.start[1] :][: index.size[1]]
    x = index.start[1] + np.flatnonzero(~np.isin(square_1, square_0))[0]
    members[0], members[x] = members[x], members[0]
    rep = suite_combinatorics(rs, signs, seed=0)
    checks = {c["name"]: c for c in rep.checks}
    companion = checks["companion-sets"]
    assert 0 < companion["passed"] < companion["attempted"]
    assert companion["failures"][0]["error"] == "companion-set scan disagrees with square formula"


def test_unresolved_samples_report_the_scalar_messages(monkeypatch, system):
    # Corrupted tables under which classify_root_vs_square and
    # extend_a3_to_d4 would raise: the suite reports their messages, word
    # for word, as the per-sample loops did.  Every failure is kept.
    add = SuiteReport.add
    monkeypatch.setattr(
        SuiteReport, "add", lambda self, *args, **kw: add(self, *args, witness_limit=10**6)
    )
    rs, signs = corrupted(*system("D5"), "gram", "square_index.members", "square_index.sigma")
    gram, index = rs.gram, rs.square_index
    # Member m of square 0 moved into square 1 of the index.
    members = index.members
    square_0 = members[: index.size[0]]
    square_1 = members[index.start[1] :][: index.size[1]]
    x = index.start[1] + np.flatnonzero(~np.isin(square_1, square_0))[0]
    m = rs.roots[members[0]]
    members[0], members[x] = members[x], members[0]
    # The last square's sigma tripled in the index.
    last = len(rs.squares) - 1
    index.sigma[last] *= 3
    # No root extends the first A_3 triple (a, b, c).
    a, b = (int(v) for v in np.argwhere(gram == -1)[0])
    c = int(np.flatnonzero((gram[a] == 0) & (gram[b] == -1))[0])
    hits = np.flatnonzero((gram[a] == 0) & (gram[c] == 0) & (gram[b] == -1))
    gram[a, hits] = gram[hits, a] = 1

    rep = suite_combinatorics(rs, signs, seed=0)
    checks = {c["name"]: c for c in rep.checks}
    errors = {f.get("error") for f in checks["position-classes"]["failures"]}
    assert f"{m} pairs with sigma like a member but is not one" in errors
    assert f"-{rs.negate(m)} pairs with sigma like a member but is not one" in errors
    assert f"impossible doubled product -6 with sigma {rs.squares[last].sigma}" in errors
    a, b, c = (rs.roots[v] for v in (a, b, c))
    assert {
        "triple": [list(a), list(b), list(c)],
        "error": f"no D_4 extension found for ({a}, {b}, {c})",
    } in checks["a3-extension"]["failures"]


# sha256 of report_json([suite_cases(...), suite_commutator(...)]) as the
# Poly evaluation gives it on the same draws (each identity checked one
# config at a time by tests/reference.py; test_ledger_pins_are_the_poly_reports
# checks this on D6).
LEDGER_PINNED = {
    ("D5", 0, None): "aef9f5f618faf2efe5c97d6ac02cbcc1c28b07faac4ca73157d71fc2e247ba9d",
    ("D6", 0, None): "48693cbc76b2e359e3475e5491396a61b093ab2101dc1d930684d8674be74996",
    ("E6", 0, None): "abf9a13a32abeda8598a1d40b901372fad2a9d386b86005b861c2fd7173ce633",
    ("E7", 0, None): "596124ef729e67a9802f505fe7dc54de1d5b4259a4fee5cfc31b13b18a15d11d",
    ("E8", 0, None): "4a2898f8ad3b47cad7220b22e5f755b3d8e305d738e5a92ef23201337203e3c4",
    ("E7", 5, 3): "f55d724975abf9d741097be3694e412c26c1476a43d112cc846704506c98646f",
}


def _ledger_reports(rs, signs, seed, samples):
    return [suite_cases(rs, signs, seed, samples), suite_commutator(rs, signs, seed, samples)]


@pytest.mark.parametrize("name, seed, samples", sorted(LEDGER_PINNED, key=str))
def test_ledger_reports_pinned(system, name, seed, samples):
    rs, signs = system(name)
    reports = _ledger_reports(rs, signs, seed, samples)
    assert all(r.ok for r in reports)
    assert _digest(reports) == LEDGER_PINNED[name, seed, samples]


@pytest.mark.parametrize("name, seed, samples", [("D6", 0, None), ("E7", 5, 3)])
def test_ledger_suites_keep_configs_as_numbers(monkeypatch, system, name, seed, samples):
    # The cases and commutator suites carry root and square numbers from the
    # draw to the report: with the tuple-level helpers raising, they still
    # give the pinned reports.  D6 has fixes-square configs.
    rs, signs = system(name)

    def tuple_helper(*args, **kw):
        raise AssertionError("a suite called a tuple-level helper")

    monkeypatch.setattr("adjoint_quadrics.squares.square_of_pair", tuple_helper)
    monkeypatch.setattr("adjoint_quadrics.squares.classify_root_vs_square", tuple_helper)
    for method in ("root_index", "doubled_inner", "is_root"):
        monkeypatch.setattr(RootSystem, method, tuple_helper)
    reports = _ledger_reports(rs, signs, seed, samples)
    assert _digest(reports) == LEDGER_PINNED[name, seed, samples]


def test_misclassed_ledger_case_is_a_failure_entry(system):
    # Every other square's sigma zeroed in the square index, and the pairs
    # of each square after one filed under it: the draws land on the intact
    # squares only, but a case's form reads its pair's square, whose sigma is
    # 0, so rho reads as orthogonal to it, where the ledger has no entry.
    # The suite reports those cases as failures and raises nothing.
    rs, signs = corrupted(*system("D5"), "square_index.sigma", "square_index.square_of")
    index = rs.square_index
    index.sigma[::2] = 0
    index.square_of[index.square_of >= 0] &= ~1
    rep = suite_cases(rs, signs, seed=0, samples=5)
    assert not rep.ok
    errors = {f.get("error") for c in rep.checks for f in c["failures"]}
    assert "no ledger entry for angle class pi/2" in errors
    assert not suite_commutator(rs, signs, seed=0, samples=5).ok


def test_misfiled_pairs_are_failure_entries(system):
    # The pairs of each odd square filed under the even square before it,
    # the members left as they are.  A pair that the square it is filed
    # under does not hold gets no form, so the cases suite, whose draws
    # reach every square, reports those cases as failure entries and raises
    # nothing.  A pi/2 form re-rooted at rho's pair in the wrong square can
    # land in another angle class than the one drawn: the sampler missed.
    rs, signs = corrupted(*system("D5"), "square_index.square_of")
    index = rs.square_index
    index.square_of[index.square_of >= 0] &= ~1
    for s, missing in ((0, False), (1, True)):
        a, b = index.members[index.start[s] :][:2].tolist()
        got, _ = form_monomials(rs, signs, list(FormKind), [a] * 3, [b] * 3)
        assert got.tolist() == [missing] * 3
    rep = suite_cases(rs, signs, seed=0, samples=10)
    assert not rep.ok
    errors = {f.get("error") for c in rep.checks for f in c["failures"]}
    assert "sampler missed the sub-case" in errors
    assert any(e and e.endswith("lie in no square") for e in errors)


@pytest.mark.parametrize(
    "sigma, cases_error, commutator_error",
    [
        ("root", "2pi/3 pair pattern violated", None),
        (
            "zero",
            "no square with roots at doubled product -1 with sigma found",
            "no square with roots at doubled product 1 with sigma found",
        ),
    ],
)
def test_failed_draws_are_failure_entries(system, sigma, cases_error, commutator_error):
    # Every square's sigma in the square index set to one root's
    # coefficients, or to 0: the draws themselves fail (no pair of the
    # square meets rho as the 2pi/3 entry asks, or no square has a root at
    # the asked doubled product).  Each failed draw is a failure entry of a
    # report that is not ok, and nothing escapes the suites.
    rs, signs = corrupted(*system("D5"), "square_index.sigma")
    rs.square_index.sigma[:] = rs.coeffs[0] if sigma == "root" else 0
    for suite, error in ((suite_cases, cases_error), (suite_commutator, commutator_error)):
        rep = suite(rs, signs, seed=0, samples=5)
        assert not rep.ok and all(c["passed"] >= 0 for c in rep.checks)
        if error is not None:
            assert error in {f.get("error") for c in rep.checks for f in c["failures"]}


def test_every_class_attempts_its_samples(system):
    # samples counts draws per check in both suites.  With every sigma
    # zeroed only the commutator's class pi/2 has configurations, and each
    # other draw fails at once as one failure entry; intact D7, where 47% of
    # the pi/2 configurations are fixes-square, draws exactly samples too.
    rs, signs = corrupted(*system("D5"), "square_index.sigma")
    rs.square_index.sigma[:] = 0
    for suite in (suite_cases, suite_commutator):
        rep = suite(rs, signs, seed=0, samples=5)
        assert not rep.ok
        assert [c["attempted"] for c in rep.checks] == [5] * len(rep.checks)
    rs, signs = system("D7")
    for samples in (3, 70):
        rep = suite_commutator(rs, signs, seed=0, samples=samples)
        assert rep.ok and [c["attempted"] for c in rep.checks] == [samples] * 2
        assert [c["reductions"] + c["fixes_square"] for c in rep.checks] == [samples] * 2


@pytest.mark.parametrize("name", ["D5", "D6", "E6"])
def test_configs_number_every_configuration_once(system, name):
    # Per doubled product d: the per-square counts are the column sums of the
    # roots x squares table of products equal to d, and at() maps range(total)
    # onto the table's configurations, square by square, each once; so draw,
    # which picks an index uniformly, picks a configuration uniformly.
    rs, _ = system(name)
    products = rs.pairings @ rs.square_index.sigma.T
    totals = {}
    for d in (2, -2, -1, 0, 1):
        configs = batch.Configs(rs, d)
        table = products == d
        assert configs.counts.tolist() == table.sum(0).tolist()
        s, r = np.nonzero(table.T)
        assert [configs.at(x) for x in range(configs.total)] == list(zip(r.tolist(), s.tolist()))
        totals[d] = configs.total
    if name == "D5":
        assert totals == {2: 560, -2: 560, -1: 640, 0: 1200, 1: 640}


def test_configs_hold_no_roots_by_squares_array(system):
    # D17: 544 roots and 38,114 squares, 20.7 million (root, square) pairs;
    # the counts are summed a block of squares at a time.
    rs, _ = system("D17")
    tracemalloc.start()
    configs = batch.Configs(rs, 0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4e6
    assert configs.total == int(np.sum(configs.counts)) > 0


def _perpendicular_configs(rs):
    """(root, square) for every root orthogonal to every member of a
    square, from the Gram matrix and the square index."""
    index, zero = rs.square_index, rs.gram == 0
    return [
        (r, s)
        for s in range(len(rs.squares))
        for r in np.flatnonzero(zero[:, index.members[index.start[s] :][: index.size[s]]].all(1))
    ]


def _case_configs(rs):
    """The cases suite's configurations to draw from, per angle class."""
    return {angle: batch.Configs(rs, d) for angle, d in CASE_PRODUCTS.items()}


def _ledger_forms(rs, signs, seed, samples):
    """Every form the cases suite reads at (seed, samples), and every form
    the fixes-square check can read, each named by its kind and the root
    numbers of its pair."""
    forms, configs = [], _case_configs(rs)
    for entry in LEDGER_ENTRIES:
        angle, phi, subcase = entry
        rng = _rng_for(seed, f"cases/{angle}/{phi.value}/{subcase}")
        for _ in range(samples):
            *_, form, targets = verify._prepare_case(
                rs, signs, *sample_case_config(rs, rng, entry, configs[angle]), phi
            )
            forms += [form] + [g for _, _, g in targets]
    for s in sorted({s for _, s in _perpendicular_configs(rs)}):
        forms += verify._square_forms(rs, s)
    return forms


@pytest.mark.parametrize("name", ["D5", "D7", "E7"])
def test_ledger_forms_are_the_generated_forms(system, eqset_for, name):
    # What the cases and commutator suites certify is what check evaluates:
    # each form they read equals the generated set's form for its kind and
    # key, a pi/2 form up to the sign of the pair it is rooted at.
    rs, signs = system(name)
    eqset = eqset_for(name)
    forms = _ledger_forms(rs, signs, seed=0, samples=100)
    # Each form as the own form of a case of its own, as ledger_block reads it.
    _, (case, *monomials), _, errors = verify._ledger_arrays(
        rs, signs, [(0, form, []) for form in forms]
    )
    assert errors == [None] * len(forms)
    order = np.argsort(case, kind="stable")
    bounds = np.searchsorted(case[order], np.arange(len(forms) + 1)).tolist()
    got = list(zip(*(m[order].tolist() for m in monomials)))
    kinds = set()
    for (kind, i, j), lo, hi in zip(forms, bounds, bounds[1:]):
        if kind is FormKind.PI2:
            key = rs.squares[rs.square_index.square_of[i, j]].sigma
        elif kind is FormKind.TWO_PI3:
            key = (rs.roots[i], rs.roots[j])
        else:
            key = (rs.roots[min(i, j)], rs.roots[max(i, j)])
        want = eqset.form_for(kind, key).monomials
        flipped = tuple((a, b, -c) for a, b, c in want)
        assert tuple(got[lo:hi]) in ((want, flipped) if kind is FormKind.PI2 else (want,))
        kinds.add(kind)
    assert kinds == set(FormKind)


def test_ledger_arrays_hold_no_l_coordinate(system):
    # The generated arrays hold each Cartan part as one monomial over L
    # coordinates, past dim_v; the ledger reads its forms and targets with
    # those expanded, so on sampled E7 cases every monomial is over weight
    # coordinates, zero weights among them.
    rs, signs = system("E7")
    cases, configs = [], _case_configs(rs)
    for entry in LEDGER_ENTRIES:
        angle, phi, subcase = entry
        rng = _rng_for(0, f"cases/{angle}/{phi.value}/{subcase}")
        for _ in range(20):
            config = sample_case_config(rs, rng, entry, configs[angle])
            cases.append(verify._prepare_case(rs, signs, *config, phi)[-3:])
    _, (_, *own), (_, _, *target), errors = verify._ledger_arrays(rs, signs, cases)
    assert errors == [None] * len(cases)
    a, b = (np.concatenate([x, y]) for x, y in zip(own[:2], target[:2]))
    assert max(a.max(), b.max()) < rs.dim_v
    assert (b >= rs.n_roots).any() and (a >= rs.n_roots).any()


def test_roots_orthogonal_to_a_square_are_checked_where_they_occur(system):
    # Roots orthogonal to every member of a square occur on D_l from l = 6
    # on and on E_7; the commutator suite's fixes-square route must meet
    # them exactly there.
    counts = {}
    for name in ("D5", "D6", "D7", "E6", "E7", "E8"):
        rs, signs = system(name)
        counts[name] = len(_perpendicular_configs(rs))
        report = suite_commutator(rs, signs, seed=0)
        assert (sum(c["fixes_square"] for c in report.checks) > 0) == (counts[name] > 0)
    assert counts == {"D5": 0, "D6": 960, "D7": 6720, "E6": 0, "E7": 1512, "E8": 0}


def _same_case_results(rs, signs, per_entry, seed):
    """case_identities against verify_case_identity on per_entry seeded
    samples of every ledger entry: the same verdicts and residual strings,
    and the same errors.  Returns the number of failing cases."""
    failing, draws = 0, _case_configs(rs)
    for entry in LEDGER_ENTRIES:
        rng = _rng_for(seed, f"agree/{entry}")
        configs = [sample_case_config(rs, rng, entry, draws[entry[0]]) for _ in range(per_entry)]
        phi = entry[1]
        for config, got in zip(configs, case_identities(rs, signs, phi, configs)):
            try:
                want = verify_case_identity(rs, signs, *config, phi)
            except RuntimeError as exc:
                assert isinstance(got, RuntimeError) and str(got) == str(exc)
                continue
            assert got == want
            failing += not want.ok
    return failing


@pytest.mark.parametrize("name, per_entry", [("D5", 30), ("E6", 12), ("E8", 4), ("D17", 2)])
def test_case_identities_match_poly(system, name, per_entry):
    rs, signs = system(name)
    assert _same_case_results(rs, signs, per_entry, seed=1) == 0


def _commutator_configs(rs, seed, per_class):
    """(rho, square) draws of both commutator classes, as root and square
    numbers, as the suite draws them."""
    configs = []
    for label, dval in (("pi/2", 0), ("pi/3", 1)):
        rng, pool = _rng_for(seed, f"commutator/{label}"), batch.Configs(rs, dval)
        configs += [pool.draw(rng) for _ in range(per_class)]
    return configs


def _same_commutator_results(rs, signs, configs):
    """commutator_reductions against verify_commutator_reduction: the same
    verdict, epsilon, mode, factor classes and detail, and the same errors.
    Returns the results."""
    got = commutator_reductions(rs, signs, configs)
    for (r, s), result in zip(configs, got):
        try:
            want = verify_commutator_reduction(rs, signs, r, s)
        except RuntimeError as exc:
            assert isinstance(result, RuntimeError) and str(result) == str(exc)
            continue
        assert result == want
    return got


@pytest.mark.parametrize("name", ["D5", "E7"])
def test_commutator_reductions_match_poly(system, name):
    rs, signs = system(name)
    results = _same_commutator_results(rs, signs, _commutator_configs(rs, seed=2, per_class=60))
    assert all(r.ok for r in results)
    modes = {(r.mode, r.epsilon) for r in results}
    assert {("reduction", 1), ("reduction", -1)} <= modes
    # E_7 has roots orthogonal to a whole square.
    assert (("fixes-square", None) in modes) == (name == "E7")


# The failing checks (name, attempted, passed) and report digests on
# _flip_one_sign's tables, which the batched checks and the Poly evaluation
# give alike on the forms from the generation kernels.  On these tables the
# kernels' square descriptions and the per-form builders' companion-set
# descriptions give different forms, so the entries differ from the ones
# the builders' forms gave; a flipped sign still reaches the ledger
# arithmetic as a residual.
LEDGER_FLIPPED = {
    ("D5", 0, None): (
        [
            ("0/pi/2/re-rooted", 100, 98),
            ("0/2pi/3/j=1", 100, 95),
            ("0/2pi/3/j=-1", 100, 95),
            ("0/2pi/3/j!=+-1", 100, 90),
            ("0/pi/j=1", 100, 95),
            ("0/pi/j=-1", 100, 94),
            ("0/pi/j!=+-1", 100, 98),
            ("pi/2pi/3/j=-1", 100, 96),
            ("pi/pi/j=1", 100, 92),
            ("pi/pi/j=-1", 100, 97),
            ("pi/pi/j!=+-1", 100, 96),
            ("2pi/3/2pi/3/(b1,rho)=0", 100, 96),
            ("2pi/3/pi/(b1,rho)=-1", 100, 95),
            ("2pi/3/pi/(b1,rho)=0", 100, 96),
            ("class-pi/2", 100, 86),
            ("class-pi/3", 100, 82),
        ],
        "78b7326b778f3f48f64b06e26ba887a3d7741093ed12e60143b4ab054cf7b9c0",
    ),
    ("E7", 3, 20): (
        [
            ("0/2pi/3/j=1", 20, 19),
            ("0/2pi/3/j!=+-1", 20, 19),
            ("0/pi/j=1", 20, 19),
            ("0/pi/j!=+-1", 20, 19),
            ("class-pi/3", 20, 17),
        ],
        "dde82089e36e53bb747b31992bcf1e798b280c5002604e7567d6c3cee78670f9",
    ),
}


@pytest.mark.parametrize("name, seed, samples", sorted(LEDGER_FLIPPED, key=str))
def test_flipped_sign_fails_the_ledger_like_poly(system, name, seed, samples):
    rs, signs = _flip_one_sign(*system(name))
    reports = _ledger_reports(rs, signs, seed, samples)
    failing = [
        (c["name"], c["attempted"], c["passed"])
        for r in reports
        for c in r.checks
        if c["passed"] != c["attempted"]
    ]
    checks, digest = LEDGER_FLIPPED[name, seed, samples]
    assert failing == checks
    assert _digest(reports) == digest
    # Case by case, with every residual string, against the Poly reference.
    assert _same_case_results(rs, signs, 6, seed=4) > 0
    results = _same_commutator_results(rs, signs, _commutator_configs(rs, seed=4, per_class=20))
    assert not all(r.ok for r in results)


def _or_error(check, *args):
    try:
        return check(*args)
    except RuntimeError as exc:
        return exc


def test_ledger_pins_are_the_poly_reports(monkeypatch, system):
    # The suites with every identity checked by the Poly reference, one
    # config at a time, on the suites' own draws, give the pinned reports.
    monkeypatch.setattr(
        verify,
        "case_identities",
        lambda rs, signs, phi, configs: [
            _or_error(verify_case_identity, rs, signs, *c, phi) for c in configs
        ],
    )
    monkeypatch.setattr(
        verify,
        "commutator_reductions",
        lambda rs, signs, configs: [
            _or_error(verify_commutator_reduction, rs, signs, *c) for c in configs
        ],
    )
    runs = [(system("D6"), ("D6", 0, None), LEDGER_PINNED["D6", 0, None])]
    runs += [(_flip_one_sign(*system(key[0])), key, pin[1]) for key, pin in LEDGER_FLIPPED.items()]
    for (rs, signs), (_, seed, samples), digest in runs:
        assert _digest(_ledger_reports(rs, signs, seed, samples)) == digest


def test_corrupted_action_row_fails_both_suites(system):
    # One coefficient of one root's action: rule 3 of root 0, m_z(rho) at
    # its first nonzero z, negated, so the zero coordinate z picks up
    # -m_z(rho) xi v_{-rho}.
    rs, signs = corrupted(*system("D5"), "coeffs")
    z = np.flatnonzero(rs.coeffs[0])[0]
    rs.coeffs[0, z] *= -1
    cases, commutator = suite_cases(rs, signs, seed=0), suite_commutator(rs, signs, seed=0)
    assert not cases.ok and not commutator.ok
    rho = [list(rs.roots[0])]
    for check in cases.checks:
        assert all(f["config"]["rho"] in rho for f in check["failures"])
    assert _same_case_results(rs, signs, 16, seed=5) > 0


@pytest.mark.parametrize("name", ["coeffs", "pairings", "table", "sums"])
def test_zeroed_rule_input_fails_both_suites_without_raising(system, name):
    # The action reads its four rules from these tables, and no rule reads a
    # stored marker value, so zeroing one entry that a rule reads (one at
    # doubled product -1 for the sign and sum tables) changes the action:
    # both suites report it and neither raises.
    rs, signs = corrupted(*system("D5"), name)
    entries = signs.table if name == "table" else getattr(rs, name)
    hit = entries != 0
    if name in ("table", "sums"):
        hit &= rs.gram == -1
    entries[tuple(np.argwhere(hit)[0])] = 0
    reports = suite_cases(rs, signs, 0, 20), suite_commutator(rs, signs, 0, 20)
    assert [r.ok for r in reports] == [False, False]


@pytest.mark.parametrize("name", ["sums", "neg"])
def test_entry_past_the_roots_fails_cases_without_raising(system, name):
    # A sum past the roots, at the first pair of doubled product -1, or a
    # negation of -1: the form kernels read both, and a pair whose entry is
    # no root gets no form, like a misfiled pair, so the cases suite
    # reports the cases and raises nothing.
    rs, signs = corrupted(*system("D5"), name)
    if name == "sums":
        i, j = (int(x[0]) for x in np.nonzero(rs.gram == -1))
        rs.sums[i, j] = rs.dim_v + 3
    else:
        rs.neg[5] = -1
    rep = suite_cases(rs, signs, 0, 20)
    assert not rep.ok
    errors = {f.get("error") for c in rep.checks for f in c["failures"]}
    assert any(e and e.endswith("lie in no square") for e in errors)


@pytest.mark.parametrize("name", ["neg", "sums"])
def test_entry_moved_to_another_root_fails_without_raising(system, name):
    # One negation, or one sum at doubled product -1, moved to another root
    # number, on 16 seeded copies: the form kernels can then build a form
    # that repeats a monomial, and such a form is missing, as a misfiled
    # pair's is, so neither suite raises and the change is reported.
    healthy = system("D5")
    rng = np.random.default_rng(79)
    for _ in range(16):
        rs, signs = corrupted(*healthy, name)
        entries = getattr(rs, name)
        if name == "neg":
            at = int(rng.integers(rs.n_roots))
        else:
            at = tuple(rng.choice(np.argwhere(rs.gram == -1)))
        other = int(rng.integers(rs.n_roots - 1))
        entries[at] = other + (other >= entries[at])
        reports = suite_cases(rs, signs, 0, 10), suite_commutator(rs, signs, 0, 10)
        assert not all(r.ok for r in reports), at


def _moved_pair(rs, signs):
    """A copy in which the first pair of square 0 is filed under square 1."""
    rs, signs = corrupted(rs, signs, "square_index.square_of")
    index = rs.square_index
    a, b = index.members[index.start[0] :][:2].tolist()
    index.square_of[a, b] = index.square_of[b, a] = 1
    return rs, signs, a, b


def _all_pair_forms(rs, signs):
    """form_monomials of every kind at every ordered orthogonal pair:
    (missing, each form's a, b and c rows as bytes)."""
    ii, jj = np.nonzero(rs.gram == 0)
    kinds = [k for k in FormKind for _ in ii]
    missing, (f, *monomials) = form_monomials(rs, signs, kinds, *(np.tile(x, 3) for x in (ii, jj)))
    monomials = np.stack(monomials)
    ends = np.searchsorted(f, np.arange(len(kinds) + 1)).tolist()
    return missing, [monomials[:, x:y].tobytes() for x, y in zip(ends, ends[1:])]


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_missing_forms_are_whole_forms(system, name):
    # A moved square_of pair, or a sum past the roots: each form is the
    # healthy one or missing, with no monomials, and some are missing.
    # With neg[5] = neg[6], 12 forms on D5 and 30 on E6 repeat a monomial:
    # they are missing too, not an error, next to the 80 and 252 that read
    # a sum that is no root.
    healthy_missing, healthy = _all_pair_forms(*system(name))
    assert not healthy_missing.any()
    rs, signs = corrupted(*system(name), "sums")
    i, j = (int(x[0]) for x in np.nonzero(rs.gram == -1))
    rs.sums[i, j] = rs.dim_v + 3
    for copy in (_moved_pair(*system(name))[:2], (rs, signs)):
        missing, forms = _all_pair_forms(*copy)
        assert missing.any()
        assert all(x == (b"" if m else y) for m, x, y in zip(missing, forms, healthy))
    rs, signs = corrupted(*system(name), "neg")
    rs.neg[5] = rs.neg[6]
    missing, forms = _all_pair_forms(rs, signs)
    assert missing.sum() == {"D5": 92, "E6": 282}[name]
    assert all(x == b"" for m, x in zip(missing, forms) if m)


def test_generation_names_a_pair_it_cannot_build(system):
    rs, signs, a, b = _moved_pair(*system("D5"))
    # The first pi/2 form is rooted at that pair, so generation names it.
    with pytest.raises(RuntimeError) as error:
        generate_all_equations(rs, signs)
    assert str(error.value) == _no_square(rs.roots[a], rs.roots[b])


def test_ledger_block_hands_targeted_sorted_keys(monkeypatch, system):
    # elementary_rows returns its rows in no order; ledger_block sorts them
    # by (owner, target), and commutator_block sorts its terms, before
    # either searches them.
    seen, targeted_by = [], batch._targeted

    def targeted(keys, wanted):
        seen.append(bool(np.all(np.diff(keys) >= 0)))
        return targeted_by(keys, wanted)

    monkeypatch.setattr(batch, "_targeted", targeted)
    rs, signs = system("D5")
    assert suite_cases(rs, signs, 0, 20).ok and suite_commutator(rs, signs, 0, 20).ok
    assert seen and all(seen)


def test_fixes_square_verdicts_follow_the_form_order(system):
    # E_7 roots orthogonal to a whole square.  One rule-3 coefficient
    # m_z(rho) of such a root is corrupted, so its unipotent moves the
    # squares' 2pi/3 forms, and the second pair of every other picked square
    # is dropped from the square index, so the pi/2 builder raises on that
    # pair, before or after the first moved form.  Config by config, the
    # batched check must give the Poly reference's verdict, or raise where
    # it raises.
    rs, signs = corrupted(*system("E7"), "coeffs", "square_index.square_of")
    index = rs.square_index
    perp = []
    for s in range(len(rs.squares)):
        members = index.members[index.start[s] :][: index.size[s]]
        perp += [(r, s) for r in np.flatnonzero((rs.gram[:, members] == 0).all(1)).tolist()]
    rho = next(r for r, _ in perp if np.count_nonzero(rs.coeffs[r]) >= 3)
    rs.coeffs[rho, np.flatnonzero(rs.coeffs[rho])[0]] += 1
    picked = [(r, s) for r, s in perp if r != rho][::150] + [(r, s) for r, s in perp if r == rho]
    for _, s in picked[::2]:
        g, d = (rs.root_index(x) for x in rs.squares[s].pairs[1])
        index.square_of[g, d] = index.square_of[d, g] = -1
    results = _same_commutator_results(rs, signs, picked)
    outcomes = {
        "error" if isinstance(r, RuntimeError) else "fixed" if r.ok else r.detail for r in results
    }
    assert outcomes == {"error", "fixed", "a form moved under a root orthogonal to the square"}

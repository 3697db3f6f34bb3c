import math
import random
import sys
import threading

import numpy as np
import pytest

from adjoint_quadrics import (
    AdjointVector,
    IntegerRing,
    InvalidPairError,
    MaximalSquare,
    basis_vector,
    build_root_system,
    build_sign_table,
    generate_all_equations,
    SquareAngle,
    classify_root_vs_square,
    enumerate_squares,
    square_of_pair,
)
from reference import (
    NotAnA3TripleError,
    conjugate_pair,
    doubled_inner_vec,
    extend_a3_to_d4,
    index_of,
    modified_square,
    pair_sets,
    sign_column,
)

# True square censuses: orthogonal pairs grouped by their sum.  The E systems
# are uniform at k pairs per square; D_l splits into sizes l-1 and 3.
CENSUS = {
    "D5": (280, 90, {4: 10, 3: 80}),
    "D6": (780, 252, {5: 12, 3: 240}),
    "E6": (1080, 270, {4: 270}),
    "E7": (3780, 756, {5: 756}),
    "E8": (15120, 2160, {7: 2160}),
}


def _orthogonal_pairs(rs):
    ii, jj = np.nonzero(np.triu(rs.gram == 0, k=1))
    return [(rs.roots[i], rs.roots[j]) for i, j in zip(ii.tolist(), jj.tolist())]


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_census(system, name):
    rs, _ = system(name)
    pairs = _orthogonal_pairs(rs)
    squares = enumerate_squares(rs)
    n_pairs, n_squares, sizes = CENSUS[name]
    assert len(pairs) == n_pairs
    assert len(squares) == n_squares
    observed = {}
    for sq in squares:
        observed[sq.k] = observed.get(sq.k, 0) + 1
    assert observed == sizes
    # Squares partition the orthogonal pairs.
    assert sum(sq.k for sq in squares) == n_pairs


def test_square_of_pair_properties(system):
    rs, _ = system("E6")
    rng = random.Random(0)
    pairs = _orthogonal_pairs(rs)
    for _ in range(50):
        a, b = pairs[rng.randrange(len(pairs))]
        sq = square_of_pair(rs, a, b)
        assert sq.k == 4 and len(sq.members()) == 8
        assert a in sq.members() and b in sq.members()
        for i in sq.signed_indices():
            assert tuple(
                x + y for x, y in zip(sq.member(i), sq.member(-i))
            ) == sq.sigma
        # Angle pattern: paired members orthogonal, everything else pi/3.
        ms = sq.members()
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                d = rs.doubled_inner(ms[x], ms[y])
                paired = index_of(sq, ms[x]) == -index_of(sq, ms[y])
                assert d == (0 if paired else 1)
        # Any other orthogonal pair of the square reproduces it.
        g, d_ = sq.pairs[2]
        assert square_of_pair(rs, g, d_) == sq


def test_e8_square_has_fourteen_members(system):
    rs, _ = system("E8")
    a, b = _orthogonal_pairs(rs)[123]
    assert len(square_of_pair(rs, a, b).members()) == 14


def test_non_orthogonal_pair_rejected(system):
    rs, _ = system("D5")
    a = rs.simple_root(1)
    with pytest.raises(InvalidPairError):
        square_of_pair(rs, a, a)
    with pytest.raises(InvalidPairError):
        pair_sets(rs, a, a)


def test_classification_d5_exhaustive(system):
    rs, _ = system("D5")
    squares = enumerate_squares(rs)
    seen = set()
    for rho in rs.roots:
        for sq in squares:
            cls = classify_root_vs_square(rs, rho, sq)
            seen.add(cls.kind)
            d = doubled_inner_vec(rs, rho, sq.sigma)
            assert d == {
                SquareAngle.IN_SQUARE: 2,
                SquareAngle.OPPOSITE_SQUARE: -2,
                SquareAngle.PERP: 0,
                SquareAngle.THIRD: 1,
                SquareAngle.TWO_THIRDS: -1,
            }[cls.kind]
            if cls.kind is SquareAngle.IN_SQUARE:
                assert sq.member(cls.index) == rho
            if cls.kind is SquareAngle.OPPOSITE_SQUARE:
                assert sq.member(cls.index) == rs.negate(rho)
    assert seen == set(SquareAngle)


def test_classification_examples(system):
    rs, _ = system("E6")
    sq = enumerate_squares(rs)[17]
    rho = sq.member(1)
    cls = classify_root_vs_square(rs, rho, sq)
    assert cls.kind is SquareAngle.IN_SQUARE and cls.index == 1
    cls = classify_root_vs_square(rs, rs.negate(sq.member(-3)), sq)
    assert cls.kind is SquareAngle.OPPOSITE_SQUARE and cls.index == -3


def test_modified_square(system):
    rs, _ = system("E6")
    sq = enumerate_squares(rs)[100]
    for j in sq.signed_indices():
        out = modified_square(rs, sq, j)
        assert out.member(j) == sq.member(j)
        assert out.member(-j) == rs.negate(sq.member(-j))
        assert out.sigma == tuple(
            x - y for x, y in zip(sq.member(j), sq.member(-j))
        )
        for i in out.signed_indices():
            if abs(i) != abs(j):
                assert out.member(i) == tuple(
                    x - y for x, y in zip(sq.member(j), sq.member(i))
                )
        ms = out.members()
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                d = rs.doubled_inner(ms[x], ms[y])
                paired = index_of(out, ms[x]) == -index_of(out, ms[y])
                assert d == (0 if paired else 1)
    with pytest.raises(ValueError):
        modified_square(rs, sq, 0)
    with pytest.raises(ValueError):
        modified_square(rs, sq, sq.k + 1)


def test_pair_sets_d5_exhaustive(system):
    rs, _ = system("D5")
    for a, b in _orthogonal_pairs(rs):
        sq = square_of_pair(rs, a, b)
        ps = pair_sets(rs, a, b)  # cross-checks scan vs square formulas inside
        assert len(ps.half_pi) == sq.k - 1
        assert len(ps.two_thirds) == 2 * sq.k - 2
        assert len(ps.pi) == len(ps.pi_prime) == 2 * sq.k - 2
        # The negated S_pi roots together with the pair give back the square.
        assert {rs.negate(g) for g, _ in ps.pi} | {a, b} == set(sq.members())


def test_pair_sets_e6_cardinalities(system):
    rs, _ = system("E6")
    rng = random.Random(1)
    pairs = _orthogonal_pairs(rs)
    for _ in range(60):
        a, b = pairs[rng.randrange(len(pairs))]
        ps = pair_sets(rs, a, b)
        assert len(ps.half_pi) == 3
        assert len(ps.two_thirds) == len(ps.pi) == len(ps.pi_prime) == 6


def test_conjugate_pairs(system):
    rs, _ = system("E6")
    rng = random.Random(2)
    pairs = _orthogonal_pairs(rs)
    for _ in range(25):
        a, b = pairs[rng.randrange(len(pairs))]
        ps = pair_sets(rs, a, b)
        orbits = set()
        for pr in ps.two_thirds:
            conj = conjugate_pair(rs, a, b, pr)
            assert conj in ps.two_thirds and conj != pr
            assert conjugate_pair(rs, a, b, conj) == pr
            orbits.add(frozenset((pr, conj)))
            # Oriented so that gamma is the pi/3 member: delta, gamma, b-gamma
            # is a fundamental A_3 chain.
            g, d = pr if rs.doubled_inner(pr[0], b) == 1 else (pr[1], pr[0])
            bg = tuple(x - y for x, y in zip(b, g))
            assert rs.doubled_inner(d, g) == -1
            assert rs.doubled_inner(g, bg) == -1
            assert rs.doubled_inner(d, bg) == 0
        assert len(orbits) == square_of_pair(rs, a, b).k - 1
    with pytest.raises(InvalidPairError):
        a, b = pairs[0]
        conjugate_pair(rs, a, b, (a, a))


def test_sign_columns(system):
    rs, signs = system("D5")
    for sq in enumerate_squares(rs):
        idxs = sq.signed_indices()
        cols = {j: sign_column(rs, signs, sq, j) for j in idxs}
        for j in idxs:
            assert cols[j][j] == 1 and cols[j][-j] == 1
            for h in idxs:
                for i in idxs:
                    assert cols[h][i] == cols[h][j] * cols[j][i]


def test_extension_witnesses(system):
    # Explicit fundamental-root witnesses for both families.
    rs, _ = system("E6")
    a, b, g = rs.simple_root(2), rs.simple_root(4), rs.simple_root(3)
    d = rs.simple_root(5)
    assert rs.doubled_inner(d, a) == 0
    assert rs.doubled_inner(d, g) == 0
    assert rs.doubled_inner(d, b) == -1
    found = extend_a3_to_d4(rs, a, b, g)
    assert rs.doubled_inner(found, a) == 0
    assert rs.doubled_inner(found, g) == 0
    assert rs.doubled_inner(found, b) == -1

    rs, _ = system("D6")
    l = rs.rank
    a, b, g = rs.simple_root(l - 1), rs.simple_root(l - 2), rs.simple_root(l)
    d = rs.simple_root(l - 3)
    assert rs.doubled_inner(d, a) == 0
    assert rs.doubled_inner(d, g) == 0
    assert rs.doubled_inner(d, b) == -1
    found = extend_a3_to_d4(rs, a, b, g)
    assert rs.doubled_inner(found, b) == -1


def test_extension_d5_exhaustive(system):
    rs, _ = system("D5")
    count = 0
    for a in rs.roots:
        ai = rs.root_index(a)
        for bi in np.nonzero(rs.gram[ai] == -1)[0].tolist():
            b = rs.roots[bi]
            for ci in np.nonzero((rs.gram[ai] == 0) & (rs.gram[bi] == -1))[0].tolist():
                g = rs.roots[ci]
                d = extend_a3_to_d4(rs, a, b, g)
                assert rs.doubled_inner(d, a) == 0
                assert rs.doubled_inner(d, g) == 0
                assert rs.doubled_inner(d, b) == -1
                count += 1
    assert count > 0


def test_extension_rejects_non_triples(system):
    rs, _ = system("D5")
    a = rs.simple_root(1)
    with pytest.raises(NotAnA3TripleError):
        extend_a3_to_d4(rs, a, a, a)


@pytest.mark.parametrize("name", ["D5", "E7"])
def test_squares_view(system, name):
    # enumerate_squares gives the root system's read-only view, which
    # builds each square from the index when it is read: E7's 756 squares
    # are read in several blocks.  A square read twice is equal, not
    # identical.
    rs, _ = system(name)
    squares = enumerate_squares(rs)
    n = len(rs.square_index.sigma)
    assert len(squares) == n and squares == rs.squares
    one_by_one = [squares[s] for s in range(n)]
    assert list(squares) == one_by_one and squares == one_by_one
    assert squares == tuple(one_by_one) and squares != one_by_one[::-1]
    assert squares != one_by_one[:-1] and squares != {}
    assert [sq.sigma for sq in squares] == [tuple(x) for x in rs.square_index.sigma.tolist()]
    assert squares[-1] == squares[n - 1] and squares[-n] == squares[0]
    assert squares[0] is not squares[0]
    for part in (squares[3:7], squares[::-5], squares[n:]):
        assert type(part) is tuple
    assert squares[3:7] == tuple(one_by_one[3:7]) and squares[::-5] == tuple(one_by_one[::-5])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            squares[i]
    with pytest.raises(TypeError):
        hash(squares)


def test_set_up_and_checks_build_no_square(monkeypatch):
    # The root system keeps its squares as index arrays.  Building it,
    # generating its forms, enumerate_squares and checks, one with a pi/2
    # witness among them, read the arrays and build no MaximalSquare;
    # only reading the view does.
    built = []
    init = MaximalSquare.__init__

    def counted(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(MaximalSquare, "__init__", counted)
    rs = build_root_system("E6")
    eqset = generate_all_equations(rs, build_sign_table(rs))
    squares = enumerate_squares(rs)
    assert len(squares) == 270
    assert eqset.check_vector(basis_vector(rs, IntegerRing(), rs.roots[5])) == (True, None)
    # On e_i + e_j of an orthogonal pair, the pi/2 form of its square reads 1.
    i, j = map(int, np.argwhere(rs.gram == 0)[0])
    coords = [0] * rs.dim_v
    coords[i] = coords[j] = 1
    ok, witness = eqset.check_vector(AdjointVector(rs, IntegerRing(), coords))
    s = int(rs.square_index.square_of[i, j])
    assert not ok and witness["kind"] == "pi/2"
    assert witness["key"] == {"sigma": rs.square_index.sigma[s].tolist()}
    assert built == []
    sq = squares[s]
    assert sq.sigma == tuple(witness["key"]["sigma"]) and built == [sq.sigma]


def test_square_of_pair_past_int16_on_d17():
    # D_17 has 16 C(17, 4) + 34 = 38,114 squares, more than an int16 numbers.
    rs = build_root_system("D17")
    assert len(rs.squares) == 16 * math.comb(17, 4) + 2 * 17
    for s in (32_767, 32_768, len(rs.squares) - 1):
        sq = rs.squares[s]
        for a, b in sq.pairs:
            assert square_of_pair(rs, a, b) == sq
            assert sq.sigma == tuple(x + y for x, y in zip(a, b))


def test_concurrent_square_lookups_leave_system_unchanged():
    # Squares are built from the square index when they are read, and
    # nothing is kept, so four threads sharing a fresh D5 get the serial
    # answers and write nothing into it.
    serial_rs = build_root_system("D5")
    pairs = _orthogonal_pairs(serial_rs)

    def answers(rs):
        return [square_of_pair(rs, a, b) for a, b in pairs], enumerate_squares(rs)

    serial = answers(serial_rs)
    rs = build_root_system("D5")
    attrs = dict(vars(rs))
    arrays = {k: v.copy() for k, v in attrs.items() if isinstance(v, np.ndarray)}
    index = [a.copy() for a in rs.square_index]

    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(t):
        barrier.wait(timeout=30)
        results[t] = answers(rs)

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

    assert results == [serial] * n_threads
    assert vars(rs).keys() == attrs.keys()
    assert all(vars(rs)[k] is attrs[k] for k in attrs)
    assert all(np.array_equal(getattr(rs, k), v) for k, v in arrays.items())
    assert all(np.array_equal(got, want) for got, want in zip(rs.square_index, index))

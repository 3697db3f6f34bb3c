import pickle
import random
import sys
import threading

import numpy as np
import pytest

from adjoint_quadrics import (
    AdjointVector,
    Elementary,
    IntegersMod,
    IntegerRing,
    PolynomialRing,
    Word,
    ZeroWeight,
    apply_elementary,
    apply_word,
    basis_vector,
    build_root_system,
    build_sign_table,
    generate_all_equations,
    report_json,
    zero_vector,
)
from adjoint_quadrics.action import elementary_rows
from adjoint_quadrics.verify import generic_vector, suite_cases
from reference import apply_word_by_rules, inverse_word, zero_weight_combo


def test_basis_vectors(system):
    rs, _ = system("D5")
    ring = IntegerRing()
    v = basis_vector(rs, ring, rs.roots[7])
    assert v.coords[7] == 1 and sum(abs(c) for c in v.coords) == 1
    w = basis_vector(rs, ring, ZeroWeight(3))
    assert w.coords[rs.n_roots + 2] == 1


def test_matsumoto_rule_four(system):
    # x_rho(1) e^{-rho} = e^{-rho} + sum_s m_s(rho) e-hat^s - e^{rho}, rho = alpha_1.
    rs, signs = system("E6")
    ring = IntegerRing()
    a1 = rs.simple_root(1)
    w = apply_elementary(rs, signs, Elementary(a1, 1), basis_vector(rs, ring, rs.negate(a1)))
    expected = zero_vector(rs, ring)
    expected.coords[rs.weight_position(rs.negate(a1))] = 1
    expected.coords[rs.weight_position(ZeroWeight(1))] = 1
    expected.coords[rs.weight_position(a1)] = -1
    assert w.coords == expected.coords


def test_zero_argument_is_identity(system):
    rs, signs = system("D5")
    ring = IntegerRing()
    rng = random.Random(0)
    v = AdjointVector(rs, ring, [rng.randint(-3, 3) for _ in range(rs.dim_v)])
    w = apply_elementary(rs, signs, Elementary(rs.roots[11], 0), v)
    assert w.coords == v.coords


def test_unmoved_coordinates(system):
    # Coordinates at angle pi/2, 2pi/3 or pi from rho never move.
    rs, signs = system("E6")
    ring = IntegerRing()
    rng = random.Random(1)
    v = AdjointVector(rs, ring, [rng.randint(-3, 3) for _ in range(rs.dim_v)])
    rho = rs.roots[33]
    w = apply_elementary(rs, signs, Elementary(rho, 2), v)
    for i, lam in enumerate(rs.roots):
        if rs.doubled_inner(rho, lam) in (0, -1, -2):
            assert w.coords[i] == v.coords[i]


def test_one_parameter_law_and_inverse(system):
    rs, signs = system("D5")
    mod7 = IntegersMod(7)
    rng = random.Random(2)
    for _ in range(30):
        rho = rs.roots[rng.randrange(rs.n_roots)]
        v = AdjointVector(rs, mod7, [rng.randrange(7) for _ in range(rs.dim_v)])
        xi, eta = rng.randrange(7), rng.randrange(7)
        lhs = apply_elementary(
            rs, signs, Elementary(rho, xi), apply_elementary(rs, signs, Elementary(rho, eta), v)
        )
        rhs = apply_elementary(rs, signs, Elementary(rho, (xi + eta) % 7), v)
        assert lhs.coords == rhs.coords
        back = apply_elementary(
            rs, signs, Elementary(rho, (-xi) % 7), apply_elementary(rs, signs, Elementary(rho, xi), v)
        )
        assert back.coords == v.coords


def test_one_parameter_law_e6_every_root(system):
    # Exhaustive over rho; fixed random dense vector and arguments.
    rs, signs = system("E6")
    mod7 = IntegersMod(7)
    rng = random.Random(8)
    v = AdjointVector(rs, mod7, [rng.randrange(7) for _ in range(rs.dim_v)])
    for rho in rs.roots:
        xi, eta = rng.randrange(7), rng.randrange(7)
        lhs = apply_elementary(
            rs, signs, Elementary(rho, xi), apply_elementary(rs, signs, Elementary(rho, eta), v)
        )
        rhs = apply_elementary(rs, signs, Elementary(rho, (xi + eta) % 7), v)
        assert lhs.coords == rhs.coords


def test_one_parameter_law_e8_sampled(system):
    rs, signs = system("E8")
    ring = IntegerRing()
    rng = random.Random(9)
    v = AdjointVector(rs, ring, [rng.randint(-3, 3) for _ in range(rs.dim_v)])
    for _ in range(25):
        rho = rs.roots[rng.randrange(rs.n_roots)]
        xi, eta = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = apply_elementary(
            rs, signs, Elementary(rho, xi), apply_elementary(rs, signs, Elementary(rho, eta), v)
        )
        rhs = apply_elementary(rs, signs, Elementary(rho, xi + eta), v)
        assert lhs.coords == rhs.coords


def test_linearity(system):
    rs, signs = system("D5")
    ring = IntegerRing()
    rng = random.Random(3)
    e = Elementary(rs.roots[5], 2)
    v = AdjointVector(rs, ring, [rng.randint(-4, 4) for _ in range(rs.dim_v)])
    w = AdjointVector(rs, ring, [rng.randint(-4, 4) for _ in range(rs.dim_v)])
    vw = AdjointVector(rs, ring, [a + b for a, b in zip(v.coords, w.coords)])
    lhs = apply_elementary(rs, signs, e, vw)
    rv = apply_elementary(rs, signs, e, v)
    rw = apply_elementary(rs, signs, e, w)
    assert lhs.coords == [a + b for a, b in zip(rv.coords, rw.coords)]


def test_word_application_order(system):
    # The word x_1 x_2 acts as x_1(x_2(v)): the last factor is applied first.
    rs, signs = system("D5")
    ring = IntegerRing()
    rng = random.Random(4)
    v = AdjointVector(rs, ring, [rng.randint(-2, 2) for _ in range(rs.dim_v)])
    e1 = Elementary(rs.roots[3], 1)
    e2 = Elementary(rs.roots[20], -2)
    word = Word((e1, e2))
    manual = apply_elementary(rs, signs, e1, apply_elementary(rs, signs, e2, v))
    assert apply_word(rs, signs, word, v).coords == manual.coords
    assert apply_word(rs, signs, Word(()), v).coords == v.coords


def test_word_inverse_cancels(system):
    rs, signs = system("E6")
    ring = IntegerRing()
    rng = random.Random(5)
    factors = tuple(
        Elementary(rs.roots[rng.randrange(rs.n_roots)], rng.randint(-2, 2)) for _ in range(6)
    )
    word = Word(factors)
    v = basis_vector(rs, ring, rs.roots[0])
    gv = apply_word(rs, signs, word, v)
    back = apply_word(rs, signs, inverse_word(word, ring), gv)
    assert back.coords == v.coords


def test_concatenated_inverse_pair_is_identity(system):
    rs, signs = system("D5")
    ring = IntegerRing()
    rho = rs.roots[9]
    word = Word((Elementary(rho, 3), Elementary(rho, -3)))
    v = basis_vector(rs, ring, rs.negate(rho))
    assert apply_word(rs, signs, word, v).coords == v.coords


def test_chevalley_commutator_formula(system):
    # [x_a(xi), x_b(eta)] = x_{a+b}(N_{a,b} xi eta) when a+b is a root,
    # verified on a generic vector, symbolically in xi and eta.
    rs, signs = system("D5")
    rng = random.Random(6)
    for _ in range(6):
        while True:
            a = rs.roots[rng.randrange(rs.n_roots)]
            b = rs.roots[rng.randrange(rs.n_roots)]
            if rs.doubled_inner(a, b) == -1:
                break
        ab = rs.add_if_root(a, b)
        ring = PolynomialRing()
        xi, eta = ring.variable("xi"), ring.variable("eta")
        v = generic_vector(rs, ring)
        lhs = apply_word(
            rs,
            signs,
            Word(
                (
                    Elementary(a, xi),
                    Elementary(b, eta),
                    Elementary(a, -xi),
                    Elementary(b, -eta),
                )
            ),
            v,
        )
        n = signs.structure_constant(a, b)
        rhs = apply_elementary(rs, signs, Elementary(ab, ring.from_int(n) * xi * eta), v)
        assert lhs.coords == rhs.coords


def test_zero_weight_combo_and_shift_law(system):
    rs, signs = system("D5")
    ring = IntegerRing()
    # On a zero-weight basis vector the combo is the Cartan pairing.
    for s in range(1, rs.rank + 1):
        v = basis_vector(rs, ring, ZeroWeight(s))
        for b in rs.roots[::7]:
            assert zero_weight_combo(rs, b, v) == rs.pairing(b, s)
    # Shift law, symbolically: applying x_rho(xi) adds xi <beta, rho> v_{-rho}.
    pring = PolynomialRing()
    xi = pring.variable("xi")
    gv = generic_vector(rs, pring)
    rng = random.Random(7)
    for _ in range(10):
        beta = rs.roots[rng.randrange(rs.n_roots)]
        rho = rs.roots[rng.randrange(rs.n_roots)]
        w = apply_elementary(rs, signs, Elementary(rho, xi), gv)
        lhs = zero_weight_combo(rs, beta, w)
        gain = (
            pring.from_int(rs.doubled_inner(beta, rho))
            * xi
            * gv.coords[rs.root_index(rs.negate(rho))]
        )
        assert (lhs - (zero_weight_combo(rs, beta, gv) + gain)).is_zero()
        if rs.doubled_inner(beta, rho) == 0:
            assert lhs == zero_weight_combo(rs, beta, gv)


def test_word_json_round_trip(system):
    rs, signs = system("D5")
    ring = IntegersMod(4)
    word = Word((Elementary(rs.roots[3], 3), Elementary(rs.roots[30], 1)))
    data = word.to_json(ring)
    back = Word.from_json(data, rs, ring)
    assert back == word


def test_vector_json(system):
    rs, _ = system("D5")
    ring = IntegerRing()
    v = basis_vector(rs, ring, rs.roots[2])
    doc = v.to_json()
    assert doc["system"] == "D5" and doc["ring"] == "int"
    assert doc["coords"][2] == "1"
    assert len(doc["coords"]) == rs.dim_v


def test_system_mismatch_rejected(system):
    rs5, signs5 = system("D5")
    rs6, _ = system("D6")
    ring = IntegerRing()
    v6 = zero_vector(rs6, ring)
    with pytest.raises(ValueError):
        apply_elementary(rs5, signs5, Elementary(rs5.roots[0], 1), v6)
    with pytest.raises(ValueError, match="do not match"):
        apply_word(rs5, signs5, Word(()), v6)


def test_empty_word_returns_a_fresh_vector(system):
    rs, signs = system("D5")
    v = basis_vector(rs, IntegerRing(), rs.roots[4])
    w = apply_word(rs, signs, Word(()), v)
    assert w == v and w is not v and w.coords is not v.coords


def test_wrong_length_rejected(system):
    rs, signs = system("D5")
    ring = IntegerRing()
    short = AdjointVector(rs, ring, [1] * 10)
    message = "vector has 10 coordinates, D5 has 45"
    with pytest.raises(ValueError, match=message):
        apply_elementary(rs, signs, Elementary(rs.roots[0], 1), short)
    with pytest.raises(ValueError, match=message):
        apply_word(rs, signs, Word(()), short)


def test_concurrent_words_leave_system_unchanged():
    # The action reads the root system's tables and the sign table and
    # writes none of them, so four threads applying words through a fresh D5,
    # checking the vectors against one shared equation set and running the
    # cases suite get the serial answers and write nothing into the system,
    # the table or the set.
    def words(rs):
        rng = random.Random(12)
        return [
            Word(
                tuple(
                    Elementary(rs.roots[rng.randrange(rs.n_roots)], rng.randint(-2, 2))
                    for _ in range(8)
                )
            )
            for _ in range(40)
        ]

    def answers(rs, signs, eqset):
        ring = IntegerRing()
        vectors = [
            apply_word(rs, signs, word, basis_vector(rs, ring, rs.roots[k % rs.n_roots]))
            for k, word in enumerate(words(rs))
        ]
        # Every word's point is in the orbit; a zero weight's basis vector is not.
        checks = [eqset.check_vector(v) for v in vectors + [basis_vector(rs, ring, ZeroWeight(1))]]
        cases = report_json([suite_cases(rs, signs, seed=0, samples=20)])
        return [v.coords for v in vectors], checks, cases

    serial_rs = build_root_system("D5")
    serial_signs = build_sign_table(serial_rs)
    serial = answers(serial_rs, serial_signs, generate_all_equations(serial_rs, serial_signs))
    rs = build_root_system("D5")
    signs = build_sign_table(rs)
    eqset = generate_all_equations(rs, signs)
    attrs = dict(vars(rs)), dict(vars(signs)), dict(vars(eqset))
    state = pickle.dumps((vars(rs), vars(signs)))

    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(t):
        barrier.wait(timeout=30)
        results[t] = answers(rs, signs, eqset)

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
    assert [ok for ok, _ in serial[1]] == [True] * 40 + [False]
    for obj, before in zip((rs, signs, eqset), attrs):
        assert vars(obj).keys() == before.keys()
        assert all(vars(obj)[k] is before[k] for k in before)
    assert pickle.dumps((vars(rs), vars(signs))) == state


def _vectors(rs, ring, rng, draw, top=None):
    """A sparse vector (two coordinates drawn by draw(rng), one of them a
    root's) and a dense one; top, when given, replaces a coordinate of each."""
    sparse = zero_vector(rs, ring)
    at = rng.randrange(rs.n_roots), rng.randrange(rs.dim_v)
    for i in at:
        sparse.coords[i] = draw(rng)
    dense = AdjointVector(rs, ring, [draw(rng) for _ in range(rs.dim_v)])
    if top is not None:
        sparse.coords[at[0]] = dense.coords[rng.randrange(rs.dim_v)] = top
    return sparse, dense


def _word(rs, rng, args):
    return Word(tuple(Elementary(rs.roots[rng.randrange(rs.n_roots)], a) for a in args))


@pytest.mark.parametrize("name", ["D5", "D7", "E6", "E8"])
def test_words_follow_the_rules(system, name):
    # apply_word reads the four rules from the tables by source coordinate;
    # the reference applies them through the public helpers.
    rs, signs = system(name)
    rng = random.Random(14)
    big = 10**12 - 1
    rings = (
        (IntegerRing(), lambda r: r.randint(-3, 3), 2**63 + 5,
         lambda r: r.choice((-1, 1)) * r.randrange(2**20 - 8, 2**20 + 8)),
        (IntegersMod(4), lambda r: r.randrange(4), None, lambda r: r.randrange(4)),
        (IntegersMod(big), lambda r: r.randrange(big), None, lambda r: r.randrange(big)),
    )
    for ring, coord, top, xi in rings:
        for v in _vectors(rs, ring, rng, coord, top) * 2:
            word = _word(rs, rng, [xi(rng) for _ in range(rng.randint(1, 6))])
            assert apply_word(rs, signs, word, v).coords == apply_word_by_rules(rs, signs, word, v)
    ring = PolynomialRing()
    x, y = ring.variable("xi"), ring.variable("eta")
    sparse, _ = _vectors(rs, ring, rng, lambda r: ring.from_int(r.randint(1, 3)))
    for v, args in ((sparse, (x, y, -x, ring.one)), (generic_vector(rs, ring), (x, -y))):
        word = _word(rs, rng, args)
        assert apply_word(rs, signs, word, v).coords == apply_word_by_rules(rs, signs, word, v)


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_elementary_rows_act_like_apply_word(system, name):
    # I + xi E1 + xi^2 E2 from each root's rows, at xi = 2 over Z, sends
    # every basis vector where apply_word sends it.
    rs, signs = system(name)
    ring, dim = IntegerRing(), rs.dim_v
    owner, target, degree, source, coef = elementary_rows(rs, signs, np.arange(rs.n_roots))
    matrices = np.zeros((rs.n_roots, dim, dim), dtype=np.int64)
    matrices[:, np.arange(dim), np.arange(dim)] = 1
    np.add.at(matrices, (owner, target, source), coef * 2**degree)
    for r, rho in enumerate(rs.roots):
        for j in range(dim):
            e = basis_vector(rs, ring, rs.weight_at(j))
            image = apply_elementary(rs, signs, Elementary(rho, 2), e).coords
            assert image == matrices[r, :, j].tolist(), (rho, j)

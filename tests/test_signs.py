import io

import numpy as np
import pytest

from adjoint_quadrics import InvalidRootError, build_root_system, build_sign_table, structure_constant
from adjoint_quadrics.verify import suite_jacobi


def test_support(system):
    rs, signs = system("D5")
    for a in rs.roots:
        for b in rs.roots:
            n = signs.structure_constant(a, b)
            total = tuple(x + y for x, y in zip(a, b))
            assert (n != 0) == rs.is_root(total)
            assert n in (-1, 0, 1)


def test_opposite_pair_is_zero(system):
    # The h-part of the bracket is carried by the action formulas, not N.
    rs, signs = system("E6")
    a = rs.roots[5]
    assert signs.structure_constant(a, rs.negate(a)) == 0


def test_antisymmetry_and_negation(system):
    rs, signs = system("E6")
    for a in rs.roots[::5]:
        for b in rs.roots[::7]:
            n = signs.structure_constant(a, b)
            assert signs.structure_constant(b, a) == -n
            assert signs.structure_constant(rs.negate(a), rs.negate(b)) == -n
            if n != 0:
                assert n * signs.structure_constant(b, a) == -1


def test_simple_sum_has_unit_constant(system):
    rs, signs = system("E8")
    n = signs.structure_constant(rs.simple_root(3), rs.simple_root(4))
    assert n in (-1, 1)


def test_square_rewrite_identity(system):
    # Inside a maximal square rooted at (b1, b_{-1}): N_{b1-bi, bi} = N_{b1, -bi}.
    from adjoint_quadrics import enumerate_squares

    rs, signs = system("D5")
    for sq in enumerate_squares(rs)[:30]:
        b1 = sq.member(1)
        for i in sq.signed_indices():
            if abs(i) == 1:
                continue
            bi = sq.member(i)
            diff = tuple(x - y for x, y in zip(b1, bi))
            assert signs.structure_constant(diff, bi) == signs.structure_constant(
                b1, rs.negate(bi)
            )


def test_identity_suites_exhaustive(system):
    for name in ["D5", "E6"]:
        rs, signs = system(name)
        rep = suite_jacobi(rs, signs, seed=0)
        assert rep.ok, [c for c in rep.checks if c["passed"] != c["attempted"]]


def test_deterministic_across_builds():
    rs1 = build_root_system("D5")
    rs2 = build_root_system("D5")
    t1 = build_sign_table(rs1)
    t2 = build_sign_table(rs2)
    assert np.array_equal(t1.table, t2.table)


def test_module_level_accessor(system):
    rs, signs = system("D5")
    a, b = rs.simple_root(1), rs.simple_root(2)
    assert structure_constant(signs, a, b) == signs.structure_constant(a, b)
    with pytest.raises(InvalidRootError):
        structure_constant(signs, (5, 0, 0, 0, 0), b)


def test_csv_dump(system):
    rs, signs = system("D5")
    buf = io.StringIO()
    signs.write_csv(buf)
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    # One row per ordered pair with nonzero constant.
    expected = int(np.count_nonzero(signs.table))
    assert len(lines) == expected
    first = lines[0].split(",")
    assert len(first) == 2 * rs.rank + 1
    a = tuple(int(x) for x in first[: rs.rank])
    b = tuple(int(x) for x in first[rs.rank : 2 * rs.rank])
    assert signs.structure_constant(a, b) == int(first[-1])

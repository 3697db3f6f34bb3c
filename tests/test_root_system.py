import numpy as np
import pytest

from adjoint_quadrics import (
    InvalidRootError,
    PairRelation,
    SystemId,
    UnsupportedSystemError,
    ZeroWeight,
    build_root_system,
    cartan_matrix,
)
from adjoint_quadrics.root_system import _find_rows

EXPECTED = {
    # name: (roots, dim_v, k)
    "D5": (40, 45, 5),
    "D6": (60, 66, 6),
    "E6": (72, 78, 4),
    "E7": (126, 133, 5),
    "E8": (240, 248, 7),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_counts(system, name):
    rs, _ = system(name)
    n_roots, dim_v, k = EXPECTED[name]
    assert rs.n_roots == n_roots
    assert rs.dim_v == dim_v
    assert rs.k == k
    assert len(set(rs.roots)) == rs.n_roots


@pytest.mark.parametrize("name", ["D4", "D3", "E5", "E9", "A5", "F4"])
def test_unsupported_systems(name):
    with pytest.raises(UnsupportedSystemError):
        build_root_system(name)


def test_parse_rejects_garbage():
    for s in ["", "E", "Dx", "8E"]:
        with pytest.raises(UnsupportedSystemError):
            SystemId.parse(s)


def test_cartan_shapes_and_symmetry():
    for name in EXPECTED:
        sid = SystemId.parse(name)
        a = cartan_matrix(sid)
        assert a.shape == (sid.rank, sid.rank)
        assert np.array_equal(a, a.T)
        assert all(a[i, i] == 2 for i in range(sid.rank))


def test_e8_bourbaki_adjacency(system):
    rs, _ = system("E8")
    # Node 2 hangs off node 4; nodes 1 and 3 are joined; 2 and 3 are not.
    assert rs.doubled_inner(rs.simple_root(2), rs.simple_root(4)) == -1
    assert rs.doubled_inner(rs.simple_root(1), rs.simple_root(3)) == -1
    assert rs.doubled_inner(rs.simple_root(2), rs.simple_root(3)) == 0


def test_d_bourbaki_adjacency(system):
    rs, _ = system("D5")
    l = rs.rank
    assert rs.doubled_inner(rs.simple_root(l), rs.simple_root(l - 2)) == -1
    assert rs.doubled_inner(rs.simple_root(l), rs.simple_root(l - 1)) == 0


def test_positivity_partition(system):
    for name in EXPECTED:
        rs, _ = system(name)
        for r in rs.roots:
            assert rs.is_positive(r) != rs.is_positive(rs.negate(r))
            assert rs.is_root(rs.negate(r))


def test_canonical_order(system):
    rs, _ = system("E6")
    keys = [(sum(r), r) for r in rs.roots]
    assert keys == sorted(keys)


def test_doubled_inner_basics(system):
    rs, _ = system("E7")
    a = rs.roots[11]
    assert rs.doubled_inner(a, a) == 2
    assert rs.doubled_inner(a, rs.negate(a)) == -2
    b = rs.roots[57]
    assert rs.doubled_inner(a, b) == rs.doubled_inner(b, a)
    assert rs.doubled_inner(rs.negate(a), rs.negate(b)) == rs.doubled_inner(a, b)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_doubled_inner_range_and_membership(system, name):
    rs, _ = system(name)
    # Exhaustive over all ordered pairs of every system: the doubled product
    # determines sum/difference membership (classify_pair cross-validates
    # membership internally on each call).
    by_dot2 = {
        2: PairRelation.EQUAL,
        -2: PairRelation.OPPOSITE,
        0: PairRelation.ORTHOGONAL,
        -1: PairRelation.SUM_IS_ROOT,
        1: PairRelation.DIFFERENCE_IS_ROOT,
    }
    for a in rs.roots:
        for b in rs.roots:
            d = rs.doubled_inner(a, b)
            assert d in (-2, -1, 0, 1, 2)
            assert rs.classify_pair(a, b) is by_dot2[d]


def test_classify_pair_examples(system):
    rs, _ = system("E6")
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert rs.classify_pair(a1, a1) is PairRelation.EQUAL
    assert rs.classify_pair(a1, a2) is PairRelation.ORTHOGONAL


def test_add_if_root(system):
    rs, _ = system("E8")
    a3, a4 = rs.simple_root(3), rs.simple_root(4)
    total = rs.add_if_root(a3, a4)
    assert total == tuple(x + y for x, y in zip(a3, a4))
    assert rs.add_if_root(a3, rs.negate(a3)) is None
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert rs.add_if_root(a1, a2) is None  # orthogonal


def test_invalid_root_rejected(system):
    rs, _ = system("D5")
    with pytest.raises(InvalidRootError):
        rs.doubled_inner((9, 0, 0, 0, 0), rs.simple_root(1))
    with pytest.raises(InvalidRootError):
        rs.root_index((1, 0, 0, 0, 1))


def test_weight_indexing_round_trip(system):
    rs, _ = system("D6")
    for pos in range(rs.dim_v):
        assert rs.weight_position(rs.weight_at(pos)) == pos
        assert rs.weight_from_json(rs.weight_to_json(pos)) == pos
    assert rs.weight_to_json(rs.dim_v - rs.rank) == {"zero": 1}
    assert rs.weight_position(ZeroWeight(3)) == rs.n_roots + 2


def test_reflection_closure(system):
    # The generator cross-checks reflections at build time; spot-check the
    # reflection formula independently here.
    rs, _ = system("E6")
    for r in rs.roots[:20]:
        for s in range(1, rs.rank + 1):
            c = rs.doubled_inner(r, rs.simple_root(s))
            refl = list(r)
            refl[s - 1] -= c
            assert rs.is_root(tuple(refl))


@pytest.mark.parametrize("name", ["D5", "D7", "E6", "E7", "E8", "D19"])
def test_sum_table_matches_tuple_sums(name):
    # The sum table is filled by one lookup of coefficient rows.  The
    # reference adds the coefficient tuples of every pair at doubled product
    # -1 and finds the sum in the root index.  From D19 up a base-11 code of
    # the coefficient vectors overflows int64, so the lookup must not rest
    # on such a code.
    rs = build_root_system(name)
    want = np.full((rs.n_roots, rs.n_roots), -1)
    for i, j in zip(*np.nonzero(rs.gram == -1)):
        s = tuple(a + b for a, b in zip(rs.roots[i], rs.roots[j]))
        want[i, j] = rs.index[s]
    assert np.array_equal(rs.sums, want)
    assert (11**rs.rank > np.iinfo(np.int64).max) == (name == "D19")


def test_row_lookup_reports_misses(system):
    # A row that is not in the table, such as a sum of two roots at doubled
    # product 2 or 0, is found at -1; the root system raises on such a sum
    # at product -1.
    rs, _ = system("D5")
    r = rs.coeffs
    i, j = map(int, np.argwhere(rs.gram == 0)[0])
    rows = np.array([r[3], 2 * r[3], r[i] + r[j], r[-1]])
    assert _find_rows(r, rows).tolist() == [3, -1, -1, rs.n_roots - 1]

import json
import random

import pytest

from adjoint_quadrics import (
    FormKind,
    IntegerRing,
    Word,
    enumerate_squares,
    report_json,
    verify_orbit_membership,
)
from adjoint_quadrics.batch import Configs
from adjoint_quadrics.squares import SquareAngle, classify_root_vs_square
from adjoint_quadrics.verify import (
    CASE_PRODUCTS,
    LEDGER_ENTRIES,
    run_suite,
    sample_case_config,
    suite_cases,
    suite_commutator,
    suite_orbit,
    suite_words,
    _rng_for,
)
from corrupt import corrupted
from reference import VerificationFailure, verify_case_identity, verify_commutator_reduction


def test_ledger_entry_labels_cover_all_cases():
    angles = {e[0] for e in LEDGER_ENTRIES}
    assert angles == {"0", "pi", "2pi/3"}
    assert len(LEDGER_ENTRIES) == 19


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_case_identities_sampled(system, name):
    rs, signs = system(name)
    rep = suite_cases(rs, signs, seed=11, samples=8)
    assert rep.ok, [c for c in rep.checks if c["passed"] != c["attempted"]]
    assert rep.attempted == 8 * len(LEDGER_ENTRIES)


def test_case_identity_direct(system):
    # One deterministic configuration per angle class on E6.
    rs, signs = system("E6")
    sq = enumerate_squares(rs)[42]
    a, b = (rs.root_index(x) for x in sq.pairs[0])
    for phi in (FormKind.PI2, FormKind.TWO_PI3, FormKind.PI):
        res = verify_case_identity(rs, signs, a, b, a, phi)
        assert res.ok and res.angle == "0"
        res = verify_case_identity(rs, signs, a, b, int(rs.neg[b]), phi)
        assert res.ok and res.angle == "pi"


def test_case_identity_two_thirds_subcases(system):
    rs, signs = system("E6")
    rng = _rng_for(3, "direct")
    configs = Configs(rs, CASE_PRODUCTS["2pi/3"])
    for sub in ("(b1,rho)=-1", "(b1,rho)=0"):
        for phi in (FormKind.TWO_PI3, FormKind.PI):
            config = sample_case_config(rs, rng, ("2pi/3", phi, sub), configs)
            res = verify_case_identity(rs, signs, *config, phi)
            assert res.ok and res.subcase == sub


def test_case_identity_d5_small_squares(system):
    # The three-pair D squares exercise the ledger away from the uniform case.
    rs, signs = system("D5")
    small = [sq for sq in enumerate_squares(rs) if sq.k == 3]
    assert small
    sq = small[0]
    alpha, beta = sq.pairs[1]
    others = [m for m in sq.members() if m not in (alpha, beta)]
    a, b = rs.root_index(alpha), rs.root_index(beta)
    for phi in (FormKind.PI2, FormKind.TWO_PI3, FormKind.PI):
        for rho in (alpha, beta, others[0], rs.negate(alpha), rs.negate(others[0])):
            res = verify_case_identity(rs, signs, a, b, rs.root_index(rho), phi)
            assert res.ok, (phi, rho, res.residual)


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_commutator_reduction_sampled(system, name):
    rs, signs = system(name)
    rep = suite_commutator(rs, signs, seed=5, samples=12)
    assert rep.ok, [c for c in rep.checks if c["passed"] != c["attempted"]]


def test_commutator_factor_classes(system):
    rs, signs = system("E6")
    rng = random.Random(9)
    squares = enumerate_squares(rs)
    seen = set()
    while len(seen) < 2:
        s = rng.randrange(len(squares))
        for r, rho in enumerate(rs.roots):
            kind = classify_root_vs_square(rs, rho, squares[s]).kind
            if kind is SquareAngle.PERP and "perp" not in seen:
                res = verify_commutator_reduction(rs, signs, r, s)
                assert res.ok and res.epsilon in (1, -1)
                assert res.factor_classes == ("0", "pi")
                seen.add("perp")
            elif kind is SquareAngle.THIRD and "third" not in seen:
                res = verify_commutator_reduction(rs, signs, r, s)
                assert res.ok and res.epsilon in (1, -1)
                assert res.factor_classes == ("2pi/3", "0")
                seen.add("third")


def test_commutator_rejects_direct_classes(system):
    rs, signs = system("E6")
    sq = enumerate_squares(rs)[0]
    with pytest.raises(ValueError):
        verify_commutator_reduction(rs, signs, rs.root_index(sq.member(1)), 0)


def test_orbit_membership_empty_word(system, eqset_for):
    rs, signs = system("D5")
    eqset = eqset_for("D5")
    ok, witness = verify_orbit_membership(
        rs, signs, eqset, Word(()), rs.roots[3], IntegerRing()
    )
    assert ok and witness is None


def test_orbit_membership_negative_control(system, eqset_for):
    # A deliberately non-orbit vector must be caught (soundness of the check).
    rs, signs = system("D5")
    eqset = eqset_for("D5")
    from adjoint_quadrics import ZeroWeight, basis_vector

    ok, witness = eqset.check_vector(basis_vector(rs, IntegerRing(), ZeroWeight(1)))
    assert not ok and witness is not None


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_words_suite(system, eqset_for, name):
    rs, signs = system(name)
    rep = suite_words(rs, signs, eqset_for(name), seed=4, samples=15)
    assert rep.ok, [c for c in rep.checks if c["passed"] != c["attempted"]]
    assert {c["name"] for c in rep.checks} == {"ring-int", "ring-zmod:4", "ring-zmod:7"}


def test_orbit_suite(system, eqset_for):
    rs, signs = system("D5")
    rep = suite_orbit(rs, signs, eqset_for("D5"), seed=4, samples=15)
    assert rep.ok, [c for c in rep.checks if c["passed"] != c["attempted"]]


def test_run_suite_deterministic():
    reports1 = run_suite("D5", suite="cases", seed=7, samples=3)
    reports2 = run_suite("D5", suite="cases", seed=7, samples=3)
    assert report_json(reports1) == report_json(reports2)
    # Timing is volatile and excluded from the canonical serialization.
    doc = json.loads(report_json(reports1))
    assert "wall_time_s" not in json.dumps(doc)
    timed = json.loads(report_json(reports1, include_timing=True))
    assert "wall_time_s" in json.dumps(timed)


def test_run_suite_times_set_up_only_under_timing():
    reports = run_suite("D5", suite="cases", seed=7, samples=3)
    # Without timing the report is the one a plain list of the suites gives.
    assert report_json(reports) == report_json(list(reports))
    timed = json.loads(report_json(reports, include_timing=True))
    assert set(timed["setup_s"]) == {"build_root_system", "build_sign_table"}
    assert all(t >= 0 for t in timed["setup_s"].values())
    assert "setup_s" not in json.loads(report_json(list(reports), include_timing=True))


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("D5", suite="nonsense")


def test_strict_mode_raises_on_corruption(system):
    import numpy as np

    rs, signs = system("D5")
    sq = enumerate_squares(rs)[0]
    a, b = (rs.root_index(x) for x in sq.pairs[0])
    # Healthy table: strict mode returns normally.
    res = verify_case_identity(rs, signs, a, b, a, FormKind.PI, strict=True)
    assert res.ok
    # Break one entry in a way the form builders tolerate (flip a whole
    # antisymmetric pair), then strict mode must raise.
    ii, jj = np.nonzero(signs.table)
    k = 0
    while int(jj[k]) == int(rs.neg[int(ii[k])]):
        k += 1
    i, j = int(ii[k]), int(jj[k])
    rs, signs = corrupted(rs, signs, "table")
    signs.table[i, j] *= -1
    signs.table[j, i] *= -1
    with pytest.raises((VerificationFailure, RuntimeError)) as caught:
        for sq in enumerate_squares(rs):
            for pair in sq.pairs:
                a, b = (rs.root_index(x) for x in pair)
                for phi in (FormKind.PI2, FormKind.TWO_PI3, FormKind.PI):
                    verify_case_identity(rs, signs, a, b, a, phi, strict=True)
    # A residual, not a builder's check: the action reads the flipped signs
    # from the table when it is applied.
    assert caught.type is VerificationFailure


def test_run_suite_progress_lines():
    lines = []
    run_suite("D5", suite="orbit", seed=0, samples=5, progress=lines.append)
    assert lines and all("ok" in ln or "FAIL" in ln for ln in lines)

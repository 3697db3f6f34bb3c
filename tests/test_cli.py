import json

import pytest

from adjoint_quadrics.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--system", "D5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 40 and doc["dim_v"] == 45
    assert len(doc["roots"]) == 40


def test_roots_text(capsys):
    code, out, err = run_cli(capsys, "roots", "--system", "E6")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 72
    assert "78" in err


def test_squares_count_only(capsys):
    code, out, _ = run_cli(capsys, "squares", "--system", "E6", "--count-only")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"count": 270, "k": 4, "system": "E6"}


def test_squares_full(capsys):
    code, out, _ = run_cli(capsys, "squares", "--system", "D5")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 90
    sizes = {len(sq["pairs"]) for sq in doc["squares"]}
    assert sizes == {3, 4}


def test_equations_check_orbit_flow(tmp_path, capsys):
    eqfile = tmp_path / "d5.json"
    code, _, err = run_cli(
        capsys, "equations", "--system", "D5", "--out", str(eqfile)
    )
    assert code == 0
    doc = json.loads(eqfile.read_text())
    assert doc["counts"] == {"pi/2": 90, "2pi/3": 560, "pi": 280}

    # A root basis vector satisfies everything.
    coords = ["0"] * 45
    coords[0] = "1"
    vec = {"system": "D5", "ring": "int", "coords": coords}
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps(vec))
    code, out, _ = run_cli(capsys, "check", "--system", "D5", "--vector", str(vfile))
    assert code == 0 and json.loads(out)["ok"] is True

    # check regenerates the set; equation files are no longer read.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--system", "D5", "--vector", str(vfile), "--equations", str(eqfile)])
    assert exc.value.code == 2

    # A zero-weight basis vector does not.
    coords = ["0"] * 45
    coords[40] = "1"
    vfile.write_text(json.dumps({"system": "D5", "ring": "int", "coords": coords}))
    code, out, _ = run_cli(capsys, "check", "--system", "D5", "--vector", str(vfile))
    assert code == 1 and json.loads(out)["ok"] is False

    # Orbit check with a short word over a modular ring.
    word = [{"rho": [0, 1, 0, 0, 0], "xi": "3"}, {"rho": [0, 0, 0, 1, 0], "xi": "2"}]
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(word))
    code, out, _ = run_cli(
        capsys,
        "orbit",
        "--system",
        "D5",
        "--word",
        str(wfile),
        "--rho",
        "[1, 0, 0, 0, 0]",
        "--ring",
        "zmod:4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["ring"] == "zmod:4"


def test_equations_kind_filter(tmp_path, capsys):
    eqfile = tmp_path / "pi2.json"
    code, _, _ = run_cli(
        capsys, "equations", "--system", "D5", "--kind", "pi2", "--out", str(eqfile)
    )
    assert code == 0
    doc = json.loads(eqfile.read_text())
    assert doc["counts"]["pi/2"] == 90
    assert doc["counts"]["2pi/3"] == 0
    code, _, _ = run_cli(
        capsys, "equations", "--system", "D5", "--kind", "2pi3", "--out", str(eqfile)
    )
    assert code == 0
    doc = json.loads(eqfile.read_text())
    assert doc["counts"]["2pi/3"] == 560
    assert doc["counts"]["pi"] == 0


def test_verify_subcommand(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--system", "D5", "--suite", "orbit", "--seed", "1", "--samples", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert err.strip()  # progress lines by default


def test_verify_quiet_and_deterministic(capsys):
    code1, out1, err1 = run_cli(
        capsys,
        "--quiet",
        "verify",
        "--system",
        "D5",
        "--suite",
        "cases",
        "--seed",
        "3",
        "--samples",
        "2",
    )
    code2, out2, err2 = run_cli(
        capsys,
        "--quiet",
        "verify",
        "--system",
        "D5",
        "--suite",
        "cases",
        "--seed",
        "3",
        "--samples",
        "2",
    )
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical report under a fixed seed
    assert err1 == "" and err2 == ""


def test_bad_system_errors(capsys):
    with pytest.raises(SystemExit):
        main(["roots"])  # missing --system
    code, _, err = run_cli(capsys, "roots", "--system", "D4")
    assert code == 2
    assert "error" in json.loads(err.splitlines()[-1])


def _d5_coords():
    coords = ["0"] * 45
    coords[0] = "1"
    return coords


_WORD = [{"rho": [0, 1, 0, 0, 0], "xi": "3"}]


@pytest.mark.parametrize(
    "command, vector, word",
    [
        ("check", [{"system": "D5", "ring": "int", "coords": _d5_coords()}], None),
        ("check", {"system": "D5", "ring": "int", "coords": 7}, None),
        ("check", {"system": "D5", "ring": "int", "coords": "0" * 45}, None),
        ("check", {"system": "D5", "ring": "poly", "coords": _d5_coords()}, None),
        ("orbit", None, {"rho": [0, 1, 0, 0, 0], "xi": "3"}),
        ("orbit", None, [{"rho": [0, 1, 0, 0, 0], "xi": [3]}]),
        ("orbit", None, [{"rho": 5, "xi": "3"}]),
        ("orbit-poly", None, _WORD),
    ],
    ids=[
        "vector-array",
        "coords-number",
        "coords-string",
        "vector-poly",
        "word-object",
        "xi-list",
        "rho-number",
        "orbit-poly",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, vector, word):
    # Exit 1 means a computed off-orbit verdict, so bad input must not reach it.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(vector if word is None else word))
    if command == "check":
        args = ["check", "--system", "D5", "--vector", str(path)]
    else:
        args = ["orbit", "--system", "D5", "--word", str(path), "--rho", "[1, 0, 0, 0, 0]"]
        if command == "orbit-poly":
            args += ["--ring", "poly"]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert set(json.loads(err.splitlines()[-1])) == {"error"}


@pytest.mark.parametrize(
    "system, suite, samples",
    [("D5", "cases", "-3"), ("E7", "combinatorics", "0")],
)
def test_verify_rejects_samples_below_one(capsys, system, suite, samples):
    # A non-positive count used to report a vacuous pass (or a negative
    # attempted count) with exit 0.
    code, out, err = run_cli(
        capsys, "verify", "--system", system, "--suite", suite, "--samples", samples
    )
    assert code == 2 and out == ""
    assert "samples" in json.loads(err.splitlines()[-1])["error"]

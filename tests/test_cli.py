import contextlib
import copy
import io
import json

import pytest
from hypothesis import event, given, settings, strategies as st

from adjoint_quadrics import build_root_system
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


def test_verify_timing_adds_set_up_phases(capsys):
    args = ("--quiet", "verify", "--system", "D5", "--suite", "orbit", "--samples", "2")
    _, plain, _ = run_cli(capsys, *args)
    _, timed, _ = run_cli(capsys, *args, "--timing")
    assert "setup_s" not in json.loads(plain) and "wall_time_s" not in plain
    phases = json.loads(timed)["setup_s"]
    assert set(phases) == {"build_root_system", "build_sign_table", "generate_all_equations"}
    assert all(t >= 0 for t in phases.values())


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


def test_verify_ring_option(capsys):
    # --ring picks the words suite's rings, one check each, in the order
    # given; a ring name that names no ring is bad input.
    args = ("verify", "--system", "D5", "--suite", "words", "--samples", "5")
    code, out, _ = run_cli(capsys, *args, "--ring", "zmod:5", "--ring", "int")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert [c["name"] for c in report["checks"]] == ["ring-zmod:5", "ring-int"]
    for ring in ("zmod:1", "bogus"):
        code, out, err = run_cli(capsys, *args, "--ring", ring)
        assert code == 2 and out == ""
        assert set(json.loads(err.splitlines()[-1])) == {"error"}


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("where", ["vector", "word", "rho"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, where):
    # json raises RecursionError on deep nesting; that is bad input, not a
    # negative verdict and not a traceback.
    path = tmp_path / "input.json"
    path.write_text(_DEEP if where != "rho" else "[]")
    if where == "vector":
        args = ["check", "--system", "D5", "--vector", str(path)]
    else:
        rho = _DEEP if where == "rho" else "[1, 0, 0, 0, 0]"
        args = ["orbit", "--system", "D5", "--word", str(path), "--rho", rho]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1]) == {"error": "JSON nested too deeply"}


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=5,
)
_D5_ROOTS = [list(r) for r in build_root_system("D5").roots]
_element = st.integers(-2, 2) | st.integers(-2, 2).map(str)


@st.composite
def _near_valid(draw, valid):
    """A valid document from `valid`, or a random one, or the valid one with
    the value at one path replaced by a random one."""
    doc = copy.deepcopy(draw(valid))
    spoil = draw(st.integers(0, 3))
    if spoil == 0:
        return doc
    if spoil == 1:
        return draw(_json)
    parent, key = None, None
    value = doc
    while isinstance(value, (dict, list)) and value and draw(st.booleans()):
        parent = value
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        value = value[key]
    if parent is None:
        return draw(_json)
    parent[key] = draw(_json)
    return doc


_basis = st.integers(0, 44).map(lambda i: ["1" if j == i else "0" for j in range(45)])
_vector = _near_valid(
    st.fixed_dictionaries(
        {
            "system": st.just("D5"),
            "ring": st.sampled_from(["int", "zmod:4"]),
            "coords": _basis | st.lists(_element, min_size=45, max_size=45),
        }
    )
)
_root = st.sampled_from(_D5_ROOTS)
_word = _near_valid(st.lists(st.fixed_dictionaries({"rho": _root, "xi": _element}), max_size=3))
_rho = st.builds(json.dumps, _root | _near_valid(_root)) | st.text(max_size=8)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_exit_codes(tmp_path_factory, data):
    # Whatever the vector file, word file or --rho value, main returns 0, 1
    # or 2 and raises nothing, and 1 comes only with a computed verdict.
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    if data.draw(st.booleans(), label="check"):
        path.write_text(json.dumps(data.draw(_vector, label="vector")))
        args = ["check", "--system", "D5", "--vector", str(path)]
    else:
        path.write_text(json.dumps(data.draw(_word, label="word")))
        ring = data.draw(st.sampled_from(["int", "int", "zmod:4", "zmod:0", "poly"]), label="ring")
        rho = data.draw(_rho, label="rho")
        args = ["orbit", "--system", "D5", "--word", str(path), f"--rho={rho}", "--ring", ring]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2)
    event(f"{args[0]} exit {code}")
    if code == 1:
        doc = json.loads(out.getvalue())
        assert doc["ok"] is False and doc["witness"] is not None
    if code == 2:
        assert out.getvalue() == ""

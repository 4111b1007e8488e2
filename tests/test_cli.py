"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json

import pytest

from charq import characters, cli, lattice, tableaux, verify
from charq.algebra import (MultiPoly, at_a_zero, poly_to_obj, poly_to_text,
                           vartable_for)
from charq.cli import main
from charq.partitions import enumerate_partitions
from charq.tableaux import ALL_KINDS, Q_KINDS, enumerate_tableaux


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tableaux_unknown_kind_exits_2(capsys):
    code, out, err = run(capsys, "tableaux", "--kind", "zz", "--n", "2",
                         "--lambda", "1")
    assert code == 2 and out == ""
    assert "--kind must be one of" in err


def test_tableaux_text_of_the_empty_shape(capsys):
    code, out, _ = run(capsys, "tableaux", "--kind", "glChar", "--n", "2",
                       "--lambda", "", "--out", "text")
    assert code == 0 and out == "(empty)\n"


def test_char_jt_zero_parameters(capsys):
    code, out, _ = run(capsys, "char", "--kind", "gl", "--n", "2",
                       "--lambda", "1", "--method", "jt", "--a", "zero",
                       "--out", "text")
    assert code == 0
    assert out.strip() == "1 * x1 + 1 * x2"


def test_char_hdet_shifted_square(capsys):
    code, out, _ = run(capsys, "char", "--kind", "gl", "--n", "1",
                       "--lambda", "2", "--method", "hdet", "--out", "text")
    assert code == 0
    assert out.strip() == "1 * x1^2 + 1 * x1 * a1 + 1 * x1 * a2 + 1 * a1 * a2"


def test_char_tab_so(capsys):
    code, out, _ = run(capsys, "char", "--kind", "so", "--n", "1",
                       "--lambda", "1", "--method", "tab", "--out", "text")
    assert code == 0
    assert out.strip() == "1 * x1 + 1 * a1 + 1 + 1 * x1^-1"


def test_char_multi_method_flag(capsys):
    code, out, _ = run(capsys, "char", "--kind", "sp", "--n", "2",
                       "--lambda", "2,1", "--method", "def,hdet,jt,tab")
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert set(obj["methods"]) == {"def", "hdet", "jt", "tab"}


def test_char_json_single_method_is_poly(capsys):
    code, out, _ = run(capsys, "char", "--kind", "gl", "--n", "2",
                       "--lambda", "1")
    obj = json.loads(out)
    assert set(obj) == {"vars", "terms"}


def test_char_json_golden_bytes(capsys):
    # frozen interchange bytes: canonical term order, lowest-term
    # coefficients, zero exponents omitted
    code, out, _ = run(capsys, "char", "--kind", "gl", "--n", "1",
                       "--lambda", "1")
    assert code == 0
    assert out == ('{"vars":["x1","y1","a1","a2","a3","t"],'
                   '"terms":[{"c":"1/1","e":{"x1":1}},'
                   '{"c":"1/1","e":{"a1":1}}]}\n')


def test_a_zero_output_has_no_a_tokens(capsys):
    for outmode in ("json", "text"):
        code, out, _ = run(capsys, "char", "--kind", "sp", "--n", "2",
                           "--lambda", "2,1", "--a", "zero", "--out", outmode)
        assert code == 0
        assert '"a' not in out and " a" not in out


def test_byte_identical_across_runs(capsys):
    args = ("qfun", "--kind", "soQ", "--n", "2", "--lambda", "2,1",
            "--method", "tab")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_qfun_routes_agree(capsys):
    code, out, _ = run(capsys, "qfun", "--kind", "glQ", "--n", "2",
                       "--lambda", "2,1", "--method", "tab,det")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_tableaux_count(capsys):
    code, out, _ = run(capsys, "tableaux", "--kind", "glChar",
                       "--lambda", "1", "--n", "2", "--count")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "tableaux", "--kind", "spChar",
                       "--lambda", "1,1", "--n", "2", "--count")
    assert (code, out.strip()) == (0, "5")


def test_tableaux_stream_and_text(capsys):
    code, out, _ = run(capsys, "tableaux", "--kind", "soChar",
                       "--lambda", "1", "--n", "1", "--out", "text")
    assert code == 0
    assert out.splitlines() == ["1", "1bar", "0"]
    code, out, _ = run(capsys, "tableaux", "--kind", "soChar",
                       "--lambda", "1", "--n", "1")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["cells"] for r in rows] == [[["1"]], [["1bar"]], [["0"]]]


def test_tableaux_paths_flag(capsys):
    code, out, _ = run(capsys, "tableaux", "--kind", "glQ",
                       "--lambda", "1", "--n", "1", "--paths")
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert set(first) == {"tableau", "paths"}
    assert first["paths"]["paths"][0]["edges"][0]["type"] == "C"


# SHA-256 of the full `tableaux --paths` JSON stream, one family and shape
# each; any change to enumeration order, path geometry or edge weights
# shows here
_PATH_DIGESTS = {
    ("glChar", "2,1", "3"):
        "46154be11782fc7f73b915044e8a9e630243fe21bbfced569b4e33d9eefebe60",
    ("spChar", "2,1", "2"):
        "17cd2b2efe3ac245efcd46ba3f407bf669b09a54c061acfab3d208f60dcd8f74",
    ("soChar", "2,1", "2"):
        "fb63ecebf8e5129b18316d50d0c5b68d2a0640aa789008c63f33f0d0f15aea97",
    ("soChar", "2,2", "3"):
        "3b580daeb6a10e48ee2b7d1f41a328b15ac5e7c97679f24f5be46b0e3dedf801",
    ("glQ", "2,1", "2"):
        "f0680c25268b3c87a0e18d2a0f34816e761313207e04a0c8cde0662449b4a0a2",
    ("spQ", "2,1", "2"):
        "6848a90a7c408aa907dd8578cae4ebb6ac13101c639a2e7bbc528c9997bfaf5f",
    ("soQ", "3,1", "2"):
        "a4bf491c5b029bc9d5ebfbab80a3b3c21d2f9fbc55371fd01298f861d566bc62",
    ("soQ", "3,2,1", "3"):
        "268692ce40c0e18daf6514580e18028ef050ea1e63d252005bfca0ae3a09d540",
    ("spQ", "3,1", "3"):
        "081fd6a41e67afebfed708ee115c151a270cf51f094484de50970a8124e3854b",
}


@pytest.mark.parametrize("kind,lam,n", sorted(_PATH_DIGESTS))
def test_tableaux_paths_bytes_pinned(capsys, kind, lam, n):
    code, out, _ = run(capsys, "tableaux", "--kind", kind, "--lambda", lam,
                       "--n", n, "--paths")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _PATH_DIGESTS[(kind, lam, n)]


# SHA-256 of the stdout of `char`/`qfun` polynomial output: any change to
# term order, coefficient or exponent formatting, or to a route's value,
# shows here
_POLY_OUTPUT_DIGESTS = {
    ("qfun", "--kind", "soQ", "--n", "3", "--lambda", "3,2,1",
     "--method", "tab,det"):
        "014b42047752bab97738678cb5f18709d449d6f37e6e7615ccc35c665a0eb1eb",
    ("qfun", "--kind", "soQ", "--n", "3", "--lambda", "3,2,1",
     "--method", "tab,det", "--out", "text"):
        "33f39e83f52103f2e114ad0ddd246087de0c64b8a1097a9e519299190671559a",
    ("qfun", "--kind", "spQ", "--n", "3", "--lambda", "3,2,1", "--a", "zero",
     "--out", "text"):
        "36924892f326e7a242393e7e13a3441372479531bffddf1b5d9a8c3be3df237e",
    ("char", "--kind", "sp", "--n", "3", "--lambda", "2,1"):
        "c5e4de9943b106772d6bed3bafa3ea0fec65ea332ab6d110f96f4705b0043e9e",
}


@pytest.mark.parametrize("argv", sorted(_POLY_OUTPUT_DIGESTS), ids=" ".join)
def test_poly_output_bytes_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _POLY_OUTPUT_DIGESTS[argv]


def _routes_object(kind, n, parts, a, values, equal):
    """The multi-route JSON line as the compact dump of its object, one
    poly_to_obj per route's value."""
    return json.dumps({"kind": kind, "n": n, "lambda": list(parts), "a": a,
                       "methods": {m: poly_to_obj(v) for m, v in values.items()},
                       "equal": equal}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("a", ["symbolic", "zero"])
def test_disagreeing_routes_print_each_value(capsys, monkeypatch, a):
    jt = characters.CHAR_ROUTES["jt"]
    monkeypatch.setitem(characters.CHAR_ROUTES, "jt",
                        lambda kind, lam, vt: jt(kind, lam, vt) + 1)
    vt = vartable_for(2, 2)
    values = {}
    for m in ("def", "jt", "tab"):
        v = characters.character("sp", (2, 1), vt, m)
        values[m] = at_a_zero(v) if a == "zero" else v
    assert values["jt"] != values["def"] == values["tab"]
    argv = ("char", "--kind", "sp", "--n", "2", "--lambda", "2,1",
            "--method", "def,jt,tab", "--a", a)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out == _routes_object("sp", 2, (2, 1), a, values, False)
    code, out, _ = run(capsys, *argv, "--out", "text")
    assert code == 3
    assert out.splitlines() == [f"{m}: {poly_to_text(v)}"
                                for m, v in values.items()] + ["equal: false"]


@pytest.mark.parametrize("out_mode", ["json", "text"])
def test_agreeing_routes_serialise_once(capsys, monkeypatch, out_mode):
    name = "poly_to_json" if out_mode == "json" else "poly_to_text"
    real = getattr(cli, name)
    calls = []
    monkeypatch.setattr(cli, name, lambda p: calls.append(p) or real(p))
    code, out, _ = run(capsys, "char", "--kind", "sp", "--n", "3", "--lambda",
                       "2,1", "--method", "def,hdet,jt,tab", "--out", out_mode)
    assert code == 0 and len(calls) == 1
    value = characters.character("sp", (2, 1), vartable_for(3, 2), "jt")
    routes = ("def", "hdet", "jt", "tab")
    if out_mode == "json":
        assert out == _routes_object("sp", 3, (2, 1), "symbolic",
                                     dict.fromkeys(routes, value), True)
    else:
        assert out.splitlines() == [f"{m}: {poly_to_text(value)}"
                                    for m in routes] + ["equal: true"]


# SHA-256 of the lattice-path suite's report over every family at n <= 3:
# letters hash by address, and no verdict, count or line order may
# depend on that
_LGV_DIGESTS = {
    ("verify", "--suite", "lgv", "--n-max", "3", "--lambda-max", "3"):
        "c46c9e37c6d0197077160c1a53a8863b660cc55c582fbcb102c3c8952fc7cb18",
    ("verify", "--suite", "lgv", "--n-max", "3", "--lambda-max", "3",
     "--out", "text"):
        "41d67fceea3735919ddaff2c64dc54b1780ed51776dda35a50ffe6469178a76a",
}


@pytest.mark.parametrize("argv", sorted(_LGV_DIGESTS), ids=" ".join)
def test_lgv_output_bytes_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _LGV_DIGESTS[argv]


def _reference_lines(kind, parts, n):
    """The --paths stream as the compact dump of each tableau's and path
    tuple's reference objects."""
    vt = vartable_for(n, parts[0] if parts else 0)
    return [json.dumps({"tableau": t.to_obj(),
                        "paths": lattice.tableau_to_paths(t, vt).to_obj()},
                       separators=(",", ":"))
            for t in enumerate_tableaux(kind, parts, n)]


# every family at n <= 3, |shape| <= 3: Q shapes whose curved starts share
# geometry (x_k vs y_k), sp/so starts at half-integer levels, and character
# shapes with empty rows (fewer parts than n, the empty shape included)
_LINE_GRID = [(kind, lam.parts, n)
              for kind in ALL_KINDS for n in (1, 2, 3)
              for lam in enumerate_partitions(3, n, strict=kind in Q_KINDS)
              if lam.size <= 3]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tableaux_paths_lines_match_reference_objects(capsys, kind):
    shapes = [(p, n) for k, p, n in _LINE_GRID if k == kind]
    assert any(len(p) < n for p, n in shapes)
    for parts, n in shapes:
        code, out, _ = run(capsys, "tableaux", "--kind", kind, "--lambda",
                           ",".join(map(str, parts)), "--n", str(n), "--paths")
        assert code == 0
        assert out.splitlines() == _reference_lines(kind, parts, n), (parts, n)


def test_tableaux_paths_memo_lives_for_one_command(capsys, monkeypatch):
    # commands in one process, at another n and then repeated, print what
    # separate processes printed when the digests were pinned
    for key in [("soChar", "2,1", "2"), ("soChar", "2,2", "3"),
                ("soChar", "2,1", "2"), ("spQ", "2,1", "2")]:
        kind, lam, n = key
        _, out, _ = run(capsys, "tableaux", "--kind", kind, "--lambda", lam,
                        "--n", n, "--paths")
        assert hashlib.sha256(out.encode()).hexdigest() == _PATH_DIGESTS[key]
    # an edge weight function changed between two commands shows in the
    # second: no edge text outlives the command that encoded it
    real = lattice._edge_weight
    monkeypatch.setattr(lattice, "_edge_weight",
                        lambda kind, n, e, level, col, vt:
                        real(kind, n, e, level, col + 1, vt))
    _, out, _ = run(capsys, "tableaux", "--kind", "spQ", "--lambda", "2,1",
                    "--n", "2", "--paths")
    assert hashlib.sha256(out.encode()).hexdigest() != \
        _PATH_DIGESTS[("spQ", "2,1", "2")]
    assert out.splitlines() == _reference_lines("spQ", (2, 1), 2)


def test_plain_tableaux_stream_pinned(capsys):
    # the plain stream and the tableau half of a --paths line come from one
    # writer; over the grid of test_enumeration_output_pinned the plain
    # stream must give that test's bytes: compact json.dumps of to_obj()
    h = hashlib.sha256()
    for kind in ALL_KINDS:
        for n in (1, 2, 3):
            for lam in enumerate_partitions(3, n, strict=kind in Q_KINDS):
                code, out, _ = run(capsys, "tableaux", "--kind", kind,
                                   "--n", str(n), "--lambda",
                                   ",".join(map(str, lam.parts)))
                assert code == 0
                h.update(out.encode())
    assert h.hexdigest() == \
        "3b863ef64b6e1c48377c20fe1dbecba17c38698c2d0d5ecb6a9d29851929af82"


def test_verify_suite_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tokuyama",
                       "--n-max", "2", "--mu-max", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["failed"] == 0 and rep["passed"] > 0


def test_verify_lgv_targeted(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lgv", "--kind", "glChar",
                       "--lambda", "2,1", "--n", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["cases"][0]["inputs"]["lambda"] == [2, 1]
    assert rep["failed"] == 0


def test_verify_all_default_grid_bytes_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "bfda45a036b62f2528167c9656f3d0957646efcca0137791af19ab320cc78720"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--out", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "dbf9654fc63014cfa02814c1cfce46676b7f99c44c73a551669cca456acf5e8e"


# the series-bound suites at the grids the benchmark's cli-mix runs
_SERIES_SUITE_DIGESTS = {
    ("h-diff", "3", "5"):
        "2c89256e45c4420742aeccc2681cf7986e60d83cc7f8d36d45596c16af5b3690",
    ("f-diff", "3", "4"):
        "0e417110e97723dc14f9be92e4d20c4e1d2ce19364868a48d88f77004a21549b",
}


@pytest.mark.parametrize("suite,n_max,m_max", sorted(_SERIES_SUITE_DIGESTS))
def test_verify_series_suite_bytes_pinned(capsys, suite, n_max, m_max):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n-max", n_max,
                       "--m-max", m_max)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _SERIES_SUITE_DIGESTS[(suite, n_max, m_max)]


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "1",
                       "--lambda-max", "2", "--mu-max", "1", "--m-max", "2")
    assert code == 0
    names = [json.loads(line)["suite"] for line in out.splitlines()]
    assert names == ["routes", "jt-vs-def", "q-routes", "tokuyama",
                     "h-diff", "f-diff", "lgv"]


def test_identity_failures_exit_3(capsys, monkeypatch):
    # a constant 2 in front of every tableau's cell factors breaks the
    # lattice-path weight check
    real = tableaux.row_factors
    monkeypatch.setattr(tableaux, "row_factors",
                        lambda kind, n, i, row, vt:
                        [MultiPoly.const(vt, 2)] * (i == 1)
                        + real(kind, n, i, row, vt))
    argv = ("verify", "--suite", "lgv", "--kind", "glChar", "--n", "2",
            "--lambda", "2,1")
    code, out, err = run(capsys, *argv)
    assert code == 3 and '"failed":1' in out
    assert err.startswith('first failing case: {"case":0,')
    assert '"reason":"weight mismatch"' in err
    code, out, err = run(capsys, *argv, "--out", "text")
    assert code == 3 and '  [FAIL] {"identity":"lgv",' in out
    assert err.startswith('first failing case: {"case":0,')
    assert '"reason":"weight mismatch"' in err
    # two routes that disagree
    tab = characters.CHAR_ROUTES["tab"]
    monkeypatch.setitem(characters.CHAR_ROUTES, "tab",
                        lambda kind, lam, vt: tab(kind, lam, vt) + 1)
    argv = ("char", "--kind", "gl", "--n", "1", "--lambda", "1",
            "--method", "jt,tab")
    code, out, _ = run(capsys, *argv, "--out", "text")
    assert code == 3 and out.splitlines()[-1] == "equal: false"
    code, out, _ = run(capsys, *argv)
    assert code == 3 and json.loads(out)["equal"] is False


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "char", "--kind", "nope", "--n", "1",
               "--lambda", "1")[0] == 2
    assert run(capsys, "char", "--kind", "gl", "--n", "1",
               "--lambda", "1", "--method", "zzz")[0] == 2
    assert run(capsys, "char", "--kind", "gl", "--n", "1",
               "--lambda", "x")[0] == 2
    assert run(capsys, "tableaux", "--kind", "glQ", "--lambda", "2,2",
               "--n", "2")[0] == 2
    assert run(capsys, "verify", "--suite", "zzz")[0] == 2
    # rank below 1, with or without --count
    for n in ("0", "-1"):
        assert run(capsys, "tableaux", "--kind", "glChar", "--n", n,
                   "--count")[:2] == (2, "")
    assert run(capsys, "qfun", "--kind", "glQ", "--n", "1",
               "--lambda", "2,2")[0] == 2
    assert run(capsys, "qfun", "--kind", "glQ", "--n", "2",
               "--lambda", "2,-1")[0] == 2
    # an empty field is refused, not dropped
    for lam in ("1,,1", "2,1,", ",1"):
        assert run(capsys, "char", "--kind", "gl", "--n", "2",
                   "--lambda", lam)[0] == 2
    assert run(capsys, "verify", "--suite", "lgv", "--kind", "glChar",
               "--n", "2", "--lambda", "2,,1")[0] == 2
    # an empty or repeated route name is refused, not dropped or run twice
    for cmd, kind, methods in (("char", "gl", "jt,"), ("char", "gl", ",jt"),
                               ("char", "gl", ""), ("char", "gl", "jt,jt"),
                               ("char", "gl", "jt,tab,jt"),
                               ("qfun", "glQ", "tab,,det"),
                               ("qfun", "glQ", "det,det")):
        assert run(capsys, cmd, "--kind", kind, "--n", "2", "--lambda", "1",
                   "--method", methods)[:2] == (2, "")
    # tableaux flags that would have no effect
    for flags in (("--a", "zero"), ("--a", "zero", "--paths"),
                  ("--paths", "--count"), ("--paths", "--out", "text")):
        assert run(capsys, "tableaux", "--kind", "glQ", "--n", "2",
                   "--lambda", "2,1", *flags)[:2] == (2, "")


def test_negative_part_is_reported_as_a_shape_error(capsys):
    # the shape is checked before a variable table is sized from it
    for argv in (("char", "--kind", "gl", "--n", "1", "--lambda", "-5"),
                 ("qfun", "--kind", "glQ", "--n", "1", "--lambda", "-5"),
                 ("verify", "--suite", "lgv", "--kind", "glChar", "--n", "1",
                  "--lambda", "-5")):
        assert run(capsys, *argv) == (2, "", "error: (-5,) is not a partition\n")


@pytest.mark.parametrize("argv", [
    # an explicit shape the suite would ignore, or an incomplete one
    ("--suite", "routes", "--kind", "gl", "--n", "2", "--lambda", "2,1"),
    ("--suite", "lgv", "--lambda", "9"),
    ("--suite", "lgv", "--kind", "glChar", "--n", "2"),
    ("--suite", "all", "--n", "2", "--lambda", "1"),
    # no kind is valid for every suite
    ("--suite", "all", "--kind", "gl"),
    # grids that would pass vacuously
    ("--suite", "routes", "--n-max", "0"),
    ("--suite", "routes", "--n-max", "-3"),
    ("--suite", "routes", "--lambda-max", "-1"),
    ("--suite", "all", "--mu-max", "-1"),
    ("--suite", "h-diff", "--m-max", "-1"),
    # grid flags the suite does not take, or beside an explicit shape
    ("--suite", "routes", "--mu-max", "5"),
    ("--suite", "tokuyama", "--lambda-max", "9", "--n-max", "1"),
    ("--suite", "h-diff", "--lambda-max", "7", "--n-max", "1", "--m-max", "1"),
    ("--suite", "lgv", "--kind", "glChar", "--n", "2", "--lambda", "2,1",
     "--n-max", "3", "--lambda-max", "0"),
])
def test_verify_rejects_ignored_or_vacuous_arguments(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_verify_output_byte_identical_across_runs(capsys):
    argv = ("verify", "--suite", "routes", "--n-max", "2", "--lambda-max", "2")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv)[1] == first
    assert '"ms"' not in first


def test_argparse_usage_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["char", "--kind", "gl"])  # missing required --n
    assert exc.value.code == 2


def test_subprocess_invocation_end_to_end():
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "charq.cli", "char", "--kind", "so",
           "--n", "1", "--lambda", "1", "--method", "def,tab", "--out", "text"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[-1] == "equal: true"


def test_closed_pipe_exits_quietly():
    import subprocess
    import sys
    # the JSON path stream is far larger than a pipe buffer, so the
    # writer is still printing when the reader goes away
    cmd = [sys.executable, "-m", "charq.cli", "tableaux", "--kind", "spChar",
           "--n", "3", "--lambda", "3,2,1", "--paths"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert json.loads(proc.stdout.readline())["tableau"]["kind"] == "spChar"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


# no integer is written so by str; int() reads all of these but "1.0"
NOT_INTEGERS = ("1_0", "+1", " 1", "1 ", "\u0661", "01", "-0", "1.0")


def test_partition_fields_are_read_exactly(capsys):
    for text in NOT_INTEGERS:
        for argv in (("char", "--kind", "gl", "--n", "1", f"--lambda={text}"),
                     ("char", "--kind", "gl", "--n", "2", f"--lambda=2,{text}"),
                     ("verify", "--suite", "lgv", "--kind", "glChar", "--n", "1",
                      f"--lambda={text},1")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "bad partition" in err


@pytest.mark.parametrize("argv", [
    ("char", "--kind", "gl", "--lambda", "1", "--n"),
    ("tableaux", "--kind", "glChar", "--lambda", "1", "--count", "--n"),
    ("verify", "--suite", "lgv", "--kind", "glChar", "--lambda", "1", "--n"),
    ("verify", "--suite", "routes", "--n-max"),
    ("verify", "--suite", "routes", "--lambda-max"),
    ("verify", "--suite", "tokuyama", "--mu-max"),
    ("verify", "--suite", "h-diff", "--m-max"),
])
def test_integer_flags_are_read_exactly(capsys, argv):
    for text in NOT_INTEGERS:
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-1], f"{argv[-1]}={text}"])
        assert exc.value.code == 2
        assert "is not an integer" in capsys.readouterr().err, text

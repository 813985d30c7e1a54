import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff import cli, morphism, spectrum, words
from qmarkoff.cli import LIMITS, MAX_SPECTRUM_DEPTH, MAX_TREE_DEPTH, main, parse_spec, SpecSyntaxError
from qmarkoff.language import Characteristic, Mechanical, Periodic, Skew, _radix_words
from qmarkoff.morphism import mu_q
from qmarkoff.words import christoffel_word

from oracles import evaluate_by_fraction_horner


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_spec_grammar():
    assert parse_spec("fibonacci") == Characteristic((1,) * 24)
    assert parse_spec("periodic:aabab") == Periodic("aabab")
    assert parse_spec("periodic:00101") == Periodic("aabab")
    assert parse_spec("characteristic:2,1,2,1") == Characteristic((2, 1, 2, 1))
    assert parse_spec("skew:m=aba,form=blocks,xy=ab") == Skew(m="aba", form="blocks", xy="ab")
    assert parse_spec("skew") == Skew()
    assert parse_spec("mechanical:alpha=2/5,rho=1/3,kind=upper") == Mechanical(Fraction(2, 5))


def test_parse_spec_errors():
    for bad in ("nonsense", "periodic:xyz", "characteristic:1,zero", "mechanical:rho=1/3",
                "skew:form", "mechanical:alpha=1/0"):
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)


def test_parse_spec_checks_rho_and_kind_then_drops_them():
    # the language of a mechanical spec is that of its slope, so rho and kind keep their checks and no more
    for text in ("mechanical:alpha=3/7", "mechanical:alpha=3/7,rho=-5/2,kind=upper", "mechanical:kind=lower,alpha=6/14",
                 "mechanical:alpha=3/7,rho=0.25"):
        assert parse_spec(text) == Mechanical(Fraction(3, 7)) == (Fraction(3, 7),), text
    for text, message in (
        ("mechanical:alpha=1/2,kind=middle", "kind must be 'lower' or 'upper'"),
        ("mechanical:alpha=1/2,rho=x", "bad mechanical rho 'x'"),
        ("mechanical:alpha=1/2,rho=1/0", "Fraction(1, 0)"),
        ("mechanical:alpha=3/2,kind=middle", "slope must lie in [0, 1]"),  # the slope is checked before the kind
        ("mechanical:alpha=3/2,rho=x", "bad mechanical rho 'x'"),  # and after rho
    ):
        with pytest.raises(SpecSyntaxError) as info:
            parse_spec(text)
        assert str(info.value) == f"bad spec {text!r}: {message}"


def test_qmarkoff_command_golden(capsys):
    code, out, _ = run(capsys, "qmarkoff", "aabab")
    assert code == 0
    assert (
        "q_markoff: 1 + 4*q + 10*q^2 + 18*q^3 + 27*q^4 + 33*q^5 + 33*q^6"
        " + 29*q^7 + 21*q^8 + 12*q^9 + 5*q^10 + q^11" in out
    )
    assert "mu: [[463, 194], [284, 119]]" in out


def test_qmarkoff_accepts_01_alphabet(capsys):
    _, out_ab, _ = run(capsys, "qmarkoff", "aabab")
    _, out_01, _ = run(capsys, "qmarkoff", "00101")
    assert out_ab == out_01


def test_tree_root_triple(capsys):
    code, out, _ = run(capsys, "tree", "--depth", "0", "--triples")
    assert code == 0
    assert out == "(1,5,2)\n"


def test_tree_words_and_qpoly(capsys):
    _, out, _ = run(capsys, "tree", "--depth", "1")
    assert out.splitlines() == ["a.b", "a.ab", "ab.b"]
    _, out, _ = run(capsys, "tree", "--depth", "0", "--qpoly")
    assert out.strip() == "1 + q + 2*q^2 + q^3"


def test_tree_refuses_depth_over_limit(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "tree", "--depth", str(MAX_TREE_DEPTH + 1), "--json")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == "error: tree takes --depth at most 10, got 11\n"
    code, out, err = run(capsys, "tree", "--depth", str(MAX_TREE_DEPTH))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2 ** (MAX_TREE_DEPTH + 1) - 1


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "--depth", "1", "--json")
    nodes = json.loads(out)
    assert [n["path"] for n in nodes] == ["", "L", "R"]
    assert nodes[0]["word"] == "ab"
    assert nodes[0]["triple"] == [1, 5, 2]
    assert nodes[0]["q_markoff"] == "1 + q + 2*q^2 + q^3"


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("mode", ["json", "qpoly"])
def test_tree_depth4_golden_stdout_builds_no_mu_q(capsys, monkeypatch, mode):
    def refuse(w):
        raise AssertionError(f"mu_q({w!r}) called")

    monkeypatch.setattr(morphism, "mu_q", refuse)
    monkeypatch.setattr(cli, "mu_q", refuse)
    code, out, err = run(capsys, "tree", "--depth", "4", f"--{mode}")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"tree_{mode}_depth4.txt").read_text()


def test_tree_json_is_one_json_dumps(capsys):
    # the nodes are written one at a time, as json.dumps(nodes, indent=2) would write them
    for depth in range(7):
        code, out, _ = run(capsys, "tree", "--depth", str(depth), "--json")
        nodes = json.loads(out)
        assert (code, len(nodes)) == (0, 2 ** (depth + 1) - 1)
        assert out == json.dumps(nodes, indent=2) + "\n"


TREE_MODES = ["", "--triples", "--qpoly", "--json"]
SRC = Path(__file__).resolve().parents[1] / "src"


def reference_tree(mode, depth):
    """The stdout of `tree --depth DEPTH MODE`, built from the library in one list."""
    paths = morphism.tree_paths(depth)
    if mode == "--json":
        nodes = [{"path": "".join(p), "word": morphism.christoffel_node(p).word,
                  "triple": list(morphism.markoff_triple(p)),
                  "q_markoff": str(morphism.q_markoff(morphism.christoffel_node(p).word))} for p in paths]
        return json.dumps(nodes, indent=2) + "\n"
    render = {"": morphism.christoffel_node, "--triples": morphism.markoff_triple,
              "--qpoly": lambda p: morphism.q_markoff(morphism.christoffel_node(p).word)}[mode]
    return "".join(f"{render(p)}\n" for p in paths)


def test_tree_prints_the_reference_text_at_every_depth(capsys):
    for mode in TREE_MODES:
        for depth in range(9):
            argv = ["tree", "--depth", str(depth), *filter(None, [mode])]
            assert run(capsys, *argv) == (0, reference_tree(mode, depth), ""), (mode, depth)


@pytest.mark.parametrize("mode", ["--qpoly", "--json"])
@pytest.mark.parametrize("letters", [0, 7])
def test_tree_render_failure_exits_3_after_the_last_whole_node(capsys, monkeypatch, mode, letters):
    _, whole, _ = run(capsys, "tree", "--depth", "4", mode)
    real = cli.q_markoff

    def q_markoff(word):
        if len(word) >= letters:
            raise RuntimeError("render failed")
        return real(word)

    monkeypatch.setattr(cli, "q_markoff", q_markoff)
    code, out, err = run(capsys, "tree", "--depth", "4", mode)
    assert (code, err) == (3, "error: render failed\n")
    assert whole.startswith(out) and len(out) < len(whole)
    sep = ",\n  " if mode == "--json" else "\n"
    if letters:
        assert whole[len(out):].startswith(sep)  # the output ends at a node boundary
        assert out.count(sep) >= 4
    else:
        assert out == ""


class BrokenStdout(io.StringIO):
    """A stdout that takes `room` characters and then raises BrokenPipeError."""

    def __init__(self, room):
        super().__init__()
        self.room = room

    def write(self, text):
        if self.tell() + len(text) > self.room:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("mode", TREE_MODES)
def test_tree_failed_write_exits_3(mode):
    out, err = BrokenStdout(100), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["tree", "--depth", "6", *filter(None, [mode])])
    assert (code, err.getvalue()) == (3, "error: [Errno 32] Broken pipe\n")


def _cli(*argv, **kwargs):
    """`python -m qmarkoff.cli ARGV` from src/, with the default block-buffered stdout."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "qmarkoff.cli", *argv], env=env, stderr=subprocess.PIPE, **kwargs)


def test_closed_stdout_exits_3_without_traceback():
    proc = _cli("tree", "--json", "--depth", "8", stdout=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 3  # one error line fits in the stderr pipe
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["tree", "--depth", "0"], ["tree", "--json", "--depth", "6"], ["counterexamples"]])
def test_full_stdout_exits_3_without_traceback(argv):
    with open("/dev/full", "w") as full:
        proc = _cli(*argv, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert err.decode() == "error: [Errno 28] No space left on device\n"


def test_internal_error_exits_3_with_one_error_line(capsys, monkeypatch):
    def broken(args):
        print("partial")
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli, "_cmd_counterexamples", broken)
    assert run(capsys, "counterexamples") == (3, "partial\n", "error: internal fault\n")


def test_error_after_some_text_leaves_stdout_empty(capsys, monkeypatch):
    real = cli.q_markoff

    def q_markoff(word):  # fails on the second counterexample, after the first is formatted
        if word == "abbbab":
            raise ValueError("no polynomial")
        return real(word)

    monkeypatch.setattr(cli, "q_markoff", q_markoff)
    assert run(capsys, "counterexamples") == (2, "", "error: no polynomial\n")


def test_only_main_writes_stdout():
    tree = ast.parse((SRC / "qmarkoff" / "cli.py").read_text(encoding="utf-8"))

    def writers(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "print"
                or isinstance(n, ast.Attribute) and n.attr == "stdout"
                and isinstance(n.value, ast.Name) and n.value.id == "sys"]

    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    others = [n for n in tree.body if n is not main_def]
    assert writers(main_def)
    assert [ast.unparse(n) for other in others for n in writers(other)] == []


def test_every_command_but_tree_returns_one_chunk():
    # one write: a reader that closes the pipe at its first match cannot close it between two writes
    commands = set()
    for argv in (["qmarkoff", "aabab"], ["language", "--spec", "fibonacci", "--n", "5"],
                 ["language", "--spec", "fibonacci", "--n", "5", "--json"],
                 ["verify-monotone", "--spec", "fibonacci", "--max-n", "8"], ["spectrum", "aabab"],
                 ["curves", "--spec", "fibonacci", "--max-len", "4", "--gammas", "1/2,2"],
                 ["pair-check", "--spec", "skew", "--radius", "4"], ["counterexamples"]):
        args = cli.build_parser().parse_args(argv)
        code, chunks = args.func(args)
        assert (argv, code, len(chunks), chunks[0][-1:]) == (argv, 0, 1, "\n")
        commands.add(args.func.__name__)
    assert commands | {"_cmd_tree"} == {name for name in vars(cli) if name.startswith("_cmd_")}


def test_a_reader_that_closes_after_one_line_sees_exit_0():
    # unbuffered, as under python -u, each write reaches the pipe at once: a second write would
    # find it closed
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["verify-monotone", "--spec", "fibonacci", "--max-n", "256"]
    proc = subprocess.Popen([sys.executable, "-m", "qmarkoff.cli", *argv], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"spec: characteristic\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert (code, err) == (0, "")


def test_language_text_listing(capsys):
    code, out, _ = run(capsys, "language", "--spec", "fibonacci", "--n", "8", "--alphabet", "01")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n: 8"
    assert lines[1] == "factors (9):"
    body = [ln.split() for ln in lines[2:]]
    assert body[0] == ["1010010"]
    assert body[1] == ["00100101", "wrap_awb"]
    assert body[-2] == ["10100101", "last_letter"]
    assert body[-1] == ["001001010", "wrap_awa"]


LANGUAGE_SPECS = {
    "skew": "skew:m=aba,form=blocks,xy=ba",
    "mechanical": "mechanical:alpha=2/5,rho=1/3,kind=upper",
    "periodic-power": "periodic:aabaab",
    "mechanical-off-grid": "mechanical:alpha=3/7,rho=1/4",
}

LANGUAGE_TEXT_N1 = "n: 1\nfactors (2):\na\nb   last_letter\naa  wrap_awa\n"
LANGUAGE_TEXT_N2 = (
    "n: 2\nfactors (3):\nb\naa   wrap_awa\nab   last_letter\nba   flip_ab_ba\naab  wrap_awb\n"
)
LANGUAGE_SKEW_TEXT_N13 = """\
n: 13
factors (14):
babaababaaba
aabaababaabab   wrap_awb
aababaabaabab   flip_ab_ba
aababaababaab   flip_ab_ba
abaabaababaab   flip_ab_ba
abaababaabaab   flip_ab_ba
abaababaababa   flip_ab_ba
ababaabaababa   flip_ab_ba
ababaababaaba   flip_ab_ba
baabaababaaba   flip_ab_ba
baababaabaaba   flip_ab_ba
baababaababaa   flip_ab_ba
babaabaababaa   flip_ab_ba
babaababaabaa   flip_ab_ba
babaababaabab   last_letter
aabaababaababa  wrap_awa
"""

LANGUAGE_JSON_N1 = {
    "n": 1,
    "factors": ["0", "1"],
    "changes": [{"from": "0", "to": "1", "kind": "last_letter"}],
}
LANGUAGE_JSON_N2 = {
    "n": 2,
    "factors": ["00", "01", "10"],
    "changes": [
        {"from": "00", "to": "01", "kind": "last_letter"},
        {"from": "01", "to": "10", "kind": "flip_ab_ba"},
    ],
}
LANGUAGE_SKEW_JSON_N13 = {
    "n": 13,
    "factors": [
        "0010010100101", "0010100100101", "0010100101001", "0100100101001", "0100101001001",
        "0100101001010", "0101001001010", "0101001010010", "1001001010010", "1001010010010",
        "1001010010100", "1010010010100", "1010010100100", "1010010100101",
    ],
    "changes": [
        {"from": "0010010100101", "to": "0010100100101", "kind": "flip_ab_ba"},
        {"from": "0010100100101", "to": "0010100101001", "kind": "flip_ab_ba"},
        {"from": "0010100101001", "to": "0100100101001", "kind": "flip_ab_ba"},
        {"from": "0100100101001", "to": "0100101001001", "kind": "flip_ab_ba"},
        {"from": "0100101001001", "to": "0100101001010", "kind": "flip_ab_ba"},
        {"from": "0100101001010", "to": "0101001001010", "kind": "flip_ab_ba"},
        {"from": "0101001001010", "to": "0101001010010", "kind": "flip_ab_ba"},
        {"from": "0101001010010", "to": "1001001010010", "kind": "flip_ab_ba"},
        {"from": "1001001010010", "to": "1001010010010", "kind": "flip_ab_ba"},
        {"from": "1001010010010", "to": "1001010010100", "kind": "flip_ab_ba"},
        {"from": "1001010010100", "to": "1010010010100", "kind": "flip_ab_ba"},
        {"from": "1010010010100", "to": "1010010100100", "kind": "flip_ab_ba"},
        {"from": "1010010100100", "to": "1010010100101", "kind": "last_letter"},
    ],
}
LANGUAGE_OFF_GRID_TEXT_N6 = """\
n: 6
factors (7):
babab
aababa   wrap_awa
abaaba   flip_ab_ba
ababaa   flip_ab_ba
ababab   last_letter
baabab   flip_ab_ba
babaab   flip_ab_ba
bababa   flip_ab_ba
aababab  wrap_awb
"""
LANGUAGE_OFF_GRID_JSON_N6 = {
    "n": 6,
    "factors": ["001010", "010010", "010100", "010101", "100101", "101001", "101010"],
    "changes": [
        {"from": "001010", "to": "010010", "kind": "flip_ab_ba"},
        {"from": "010010", "to": "010100", "kind": "flip_ab_ba"},
        {"from": "010100", "to": "010101", "kind": "last_letter"},
        {"from": "010101", "to": "100101", "kind": "flip_ab_ba"},
        {"from": "100101", "to": "101001", "kind": "flip_ab_ba"},
        {"from": "101001", "to": "101010", "kind": "flip_ab_ba"},
    ],
}
# a sequence of period q has at most q factors of each length: period 5, 3 (aabaab is (aab)^2) and 7
COMPLEXITY_ERRORS = {
    ("mechanical", 13): "error: complexity violation: 5 factors of length 13, expected 14\n",
    ("periodic-power", 3): "error: complexity violation: 3 factors of length 3, expected 4\n",
    ("mechanical-off-grid", 7): "error: complexity violation: 7 factors of length 7, expected 8\n",
}


LANGUAGE_GOLDEN = [
    # (spec, n, text stdout, payload of --json --alphabet 01); None where exit 1 is expected
    ("skew", 1, LANGUAGE_TEXT_N1, LANGUAGE_JSON_N1),
    ("skew", 2, LANGUAGE_TEXT_N2, LANGUAGE_JSON_N2),
    ("skew", 13, LANGUAGE_SKEW_TEXT_N13, LANGUAGE_SKEW_JSON_N13),
    ("mechanical", 1, LANGUAGE_TEXT_N1, LANGUAGE_JSON_N1),
    ("mechanical", 2, LANGUAGE_TEXT_N2, LANGUAGE_JSON_N2),
    ("mechanical", 13, None, None),
    # slope 1/3 and slope 3/7 with rho = 1/4 off the 1/7 grid: n below and at the slope's denominator
    ("periodic-power", 2, LANGUAGE_TEXT_N2, LANGUAGE_JSON_N2),
    ("periodic-power", 3, None, None),
    ("mechanical-off-grid", 6, LANGUAGE_OFF_GRID_TEXT_N6, LANGUAGE_OFF_GRID_JSON_N6),
    ("mechanical-off-grid", 7, None, None),
]


@pytest.mark.parametrize(
    "spec,n,text,payload", LANGUAGE_GOLDEN, ids=[f"{spec}-{n}" for spec, n, *_ in LANGUAGE_GOLDEN]
)
def test_language_golden_stdout(capsys, spec, n, text, payload):
    """Full stdout of the factor table, text and JSON, including the n < 2 and boundary rows."""
    argv = ["language", "--spec", LANGUAGE_SPECS[spec], "--n", str(n)]
    for extra, golden in (([], text), (["--json", "--alphabet", "01"], payload)):
        code, out, err = run(capsys, *argv, *extra)
        if golden is None:
            assert (code, out, err) == (1, "", COMPLEXITY_ERRORS[spec, n])
            continue
        if extra:
            golden = json.dumps(golden, indent=2) + "\n"
        assert (code, out, err) == (0, golden, "")


def test_language_json(capsys):
    code, out, _ = run(capsys, "language", "--spec", "fibonacci", "--n", "3", "--json")
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["factors"] == ["aab", "aba", "baa", "bab"]
    assert payload["changes"] == [
        {"from": "aab", "to": "aba", "kind": "flip_ab_ba"},
        {"from": "aba", "to": "baa", "kind": "flip_ab_ba"},
        {"from": "baa", "to": "bab", "kind": "last_letter"},
    ]


def test_qmarkoff_long_word(capsys):
    w = "a" * 600
    mu_q.cache_clear()
    code, out, err = run(capsys, "qmarkoff", w)
    assert code == 0 and err == ""
    m11, m12, m21, m22 = (evaluate_by_fraction_horner(e, 1) for e in mu_q(w))
    assert f"mu: [[{m11}, {m12}], [{m21}, {m22}]]" in out.splitlines()


def test_qmarkoff_refuses_word_over_limit(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "qmarkoff", "ab" * 512 + "a")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == "error: word has 1025 letters; qmarkoff takes at most 1024\n"


def test_verify_monotone_ok(capsys):
    code, out, _ = run(capsys, "verify-monotone", "--spec", "fibonacci", "--max-n", "9")
    assert code == 0
    assert "factors: 55" in out
    assert "differences: 54" in out
    assert "OK" in out


def test_verify_monotone_unbounded_slope_denominator(capsys):
    # the factors come from the slope 1/10^9 itself, not from a window of about 4*10^9 letters
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify-monotone", "--spec", "mechanical:alpha=1/1000000000,rho=1/3,kind=upper", "--max-n", "64"
    )
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert "factors: 2145" in out and "OK" in out


def test_verify_monotone_deterministic(capsys):
    _, first, _ = run(capsys, "verify-monotone", "--spec", "periodic:aabab", "--max-n", "6")
    _, second, _ = run(capsys, "verify-monotone", "--spec", "periodic:aabab", "--max-n", "6")
    assert first == second


# (spec, its class, words checked at --max-n 256, whether the walk filters the members of its chain)
VERIFY_MONOTONE_GOLDEN = [
    ("fibonacci", "characteristic", 33153, False),
    ("periodic:aabab", "periodic", 1275, True),
    ("mechanical:alpha=126/253", "mechanical", 33143, True),
    ("skew:m=aba,form=blocks,xy=ba", "skew", 33153, False),
]


@pytest.mark.parametrize("spec, name, words, filtered", VERIFY_MONOTONE_GOLDEN,
                         ids=[g[0] for g in VERIFY_MONOTONE_GOLDEN])
def test_verify_monotone_golden_stdout_at_the_limit(capsys, monkeypatch, spec, name, words, filtered):
    from qmarkoff import language

    walked = []  # each spec whose radix chain is walked
    radix_words = language._radix_words
    monkeypatch.setattr(language, "_radix_words", lambda s, n: walked.append(s) or radix_words(s, n))
    code, out, err = run(capsys, "verify-monotone", "--spec", spec, "--max-n", "256")
    assert (code, err) == (0, "")
    assert out == (f"spec: {name}\nmax_n: 256\nfactors: {words}\ndifferences: {words - 1}\n"
                   "all differences nonzero with nonnegative coefficients: OK\n")
    # every spec walks the rotation of a slope past 256 in denominator, whose chain has 257 * 258 / 2 words; a
    # periodic or mechanical spec of denominator at most 256 counts only its own words among them
    [chain_spec] = walked
    assert type(chain_spec) is language.Mechanical and chain_spec.alpha.denominator > 256
    assert (words < 257 * 258 // 2) == filtered


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "ab", "--depth", "64")
    assert code == 0
    assert "m: 5" in out
    assert "residual: 0.0" in out


W233 = christoffel_word(89, 233)
M233 = (
    "8641143322291615712464175841411158048018898796414122594063910076954172824147795"
    "072142819756233169741365491785589517740669633730"
)
SPECTRUM_GOLDEN = [
    (["aabab"], "2.99998228641102", "5.37138051302235e-35", "2.99998228641102", "0.0"),
    (["aabab", "--depth", "2"], "3.1666666666666665", "0.8333333333333334", "2.99998228641102", "0.16668438025564658"),
    (["aabab", "--depth", "3"], "2.95", "0.23333333333333334", "2.99998228641102", "0.04998228641101976"),
    # depth 500 > 2 * 233 quotients: both windows wrap the period
    ([W233, "--depth", "64"], "3.0", "9.375364141474374e-35", "3.0", "0.0"),
    ([W233, "--depth", "500"], "3.0", "4.162231895349508e-273", "3.0", "0.0"),
]


def test_spectrum_golden_stdout(capsys):
    for argv, sup, bound, closed, residual in SPECTRUM_GOLDEN:
        code, out, err = run(capsys, "spectrum", *argv)
        m = "194" if argv[0] == "aabab" else M233
        assert (code, err) == (0, ""), argv
        assert out == (
            f"word: {argv[0]}\n"
            f"m: {m}\n"
            f"supremum: {sup}\n"
            f"error_bound: {bound}\n"
            f"closed_form: {closed}\n"
            f"residual: {residual}\n"
        ), argv


def test_spectrum_refuses_depth_over_limit(capsys, monkeypatch):
    code, out, err = run(capsys, "spectrum", "aab", "--depth", str(MAX_SPECTRUM_DEPTH))
    assert (code, err) == (0, "") and "residual: " in out

    def forbidden(*args):
        raise AssertionError("word examined before the depth check")

    monkeypatch.setattr(spectrum, "is_christoffel", forbidden)
    monkeypatch.setattr(spectrum, "mu", forbidden)
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "aab", "--depth", "200000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: spectrum takes --depth at most {MAX_SPECTRUM_DEPTH}, got 200000\n"


def test_spectrum_refuses_words_over_the_letter_limit(capsys):
    code, out, err = run(capsys, "spectrum", "a" + "b" * 4095)
    assert (code, err) == (0, "") and f"\nm: {morphism.mu('a' + 'b' * 4095)[0][1]}\n" in out
    for letters in (4097, 5618):  # a.b^5617: m has 14,285 bits
        code, out, err = run(capsys, "spectrum", "a" + "b" * (letters - 1))
        assert (code, out) == (2, "")
        assert err == f"error: word has {letters} letters; spectrum takes at most 4096\n"


def test_spectrum_rejects_non_christoffel(capsys):
    code, out, err = run(capsys, "spectrum", "aabb")
    assert code == 2
    assert "Christoffel" in err
    assert out == ""


def test_spectrum_computes_supremum_once(capsys, monkeypatch):
    calls = []
    original = spectrum.markoff_supremum
    monkeypatch.setattr(spectrum, "markoff_supremum", lambda *a: calls.append(a) or original(*a))
    code, out, _ = run(capsys, "spectrum", "aabab")
    assert code == 0 and "residual: " in out
    assert len(calls) == 1
    calls.clear()
    code, out, _ = run(capsys, "spectrum", "aabb")
    assert code == 2 and out == "" and not calls


def test_curves_csv(capsys):
    code, out, _ = run(
        capsys, "curves", "--spec", "fibonacci", "--max-len", "2", "--gammas", "0.5,1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,gamma,value"
    assert len(lines) == 1 + 6 * 2  # eps, a, b, aa, ab, ba at two gammas
    assert lines[1] == ",0.5,0.0"
    assert "1,1,2.0" in lines  # word b at gamma 1 evaluates to mu(b)_12 = 2


CURVES_SKEW_GOLDEN = """\
word,gamma,value
,1/3,0.0
,2,0.0
0,1/3,1.0
0,2,1.0
1,1/3,1.3333333333333333
1,2,3.0
00,1/3,1.4444444444444444
00,2,7.0
01,1/3,1.5925925925925926
01,2,19.0
10,1/3,1.9382716049382716
10,2,37.0
000,1/3,1.9753086419753085
000,2,45.0
001,1/3,2.152263374485597
001,2,121.0
010,1/3,2.3058984910836764
010,2,229.0
100,1/3,2.651577503429355
100,2,247.0
0000,1/3,2.692729766803841
0000,2,287.0
0001,1/3,2.931870141746685
0001,2,771.0
0010,1/3,3.1153787532388355
0010,2,1455.0
0100,1/3,3.1537875323883555
0100,2,1527.0
1000,1/3,3.6146928821825943
1000,2,1581.0
"""

CURVES_MECHANICAL_GOLDEN = """\
word,gamma,value
,3/2,0.0
0,3/2,1.0
1,3/2,2.5
00,3/2,4.75
01,3/2,10.375
10,3/2,16.9375
001,3/2,43.65625
010,3/2,68.265625
100,3/2,74.828125
101,3/2,161.6640625
0010,3/2,286.15234375
0100,3/2,300.91796875
0101,3/2,649.896484375
1001,3/2,681.068359375
1010,3/2,1060.9755859375
00100,3/2,1260.9970703125
00101,3/2,2723.26416015625
01001,3/2,2738.02978515625
01010,3/2,4264.810791015625
10010,3/2,4462.711181640625
10100,3/2,4675.889892578125
"""


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("--spec", "skew", "--max-len", "4", "--gammas", "1/3,2"), CURVES_SKEW_GOLDEN),
        (
            ("--spec", "mechanical:alpha=3/8,rho=1/5,kind=upper", "--max-len", "5", "--gammas", "3/2"),
            CURVES_MECHANICAL_GOLDEN,
        ),
        # one gamma value written two ways: each row prints its own token
        (
            ("--spec", "fibonacci", "--max-len", "1", "--gammas", "1/2,0.5"),
            "word,gamma,value\n,1/2,0.0\n,0.5,0.0\n0,1/2,1.0\n0,0.5,1.0\n1,1/2,1.5\n1,0.5,1.5\n",
        ),
    ],
    ids=["skew", "mechanical", "repeated-gamma"],
)
def test_curves_golden_stdout(capsys, argv, golden):
    code, out, err = run(capsys, "curves", *argv)
    assert code == 0 and err == ""
    assert out == golden


def test_curves_refuses_zero_denominator(capsys):
    code, out, err = run(capsys, "curves", "--spec", "fibonacci", "--max-len", "3", "--gammas", "1/2,1/0")
    assert code == 2 and out == ""
    assert err == "error: bad gammas '1/2,1/0': Fraction(1, 0)\n"


def _decimal(n, places):
    return f"{n // 10**places}.{n % 10**places:0{places}d}"


def _within_limits(token):
    g = Fraction(token)
    return g > 0 and max(g.numerator, g.denominator) <= cli.MAX_GAMMA_TERM


GAMMA_TOKENS = st.one_of(
    st.integers(1, 256).map(str),
    st.tuples(st.integers(1, 256), st.integers(1, 256)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.builds(_decimal, st.integers(1, 2560), st.integers(1, 3)).filter(_within_limits),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["periodic:aabab", "skew:m=aba,form=blocks,xy=ba", "mechanical:alpha=3/8,rho=1/5,kind=upper",
                     "fibonacci"]),
    st.integers(0, 20),
    st.lists(GAMMA_TOKENS, min_size=1, max_size=cli.MAX_CURVES_GAMMAS),
)
def test_curves_csv_values_are_the_floats_of_the_exact_values(spec, max_len, tokens):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["curves", "--spec", spec, "--max-len", str(max_len), "--gammas", ",".join(tokens)]) == 0
    gammas = [int(tok) if tok.isdigit() else Fraction(tok) for tok in tokens]
    words = _radix_words(parse_spec(spec), max_len)
    exact = [evaluate_by_fraction_horner(morphism.q_markoff(w), Fraction(g)) for w in words for g in gammas]
    values = [line.rsplit(",", 1)[1] for line in out.getvalue().splitlines()[1:]]
    assert values == [repr(float(v)) for v in exact]


@pytest.mark.parametrize(
    "gammas, max_len, reason",
    [("1/2,1e400", 4, "exponent form"), ("1e-300,1e300", 4, "exponent form"), ("1/2,256", 48, "too large for a float")],
    ids=["1/2,1e400", "1e-300,1e300", "1/2,256"],
)
def test_curves_overflow_writes_no_partial_csv(capsys, gammas, max_len, reason):
    # exponent forms are refused outright; an in-bound gamma whose value is too
    # large for a float is found before any row is written
    code, out, err = run(capsys, "curves", "--spec", "fibonacci", "--max-len", str(max_len), "--gammas", gammas)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


@pytest.mark.parametrize(
    "gammas, message",
    [
        (",".join(["1/2"] * 9), "curves takes at most 8 gammas, got 9"),
        (",".join(["1/2"] * 10**5), "curves takes at most 8 gammas, got 100000"),
        ("1/2,1/257", "curves takes gamma numerators and denominators at most 256"),
        ("0.001", "curves takes gamma numerators and denominators at most 256"),
        ("1e10000000", "exponent form '1e10000000' is not accepted"),
        ("1/2,1E-9999999", "exponent form '1E-9999999' is not accepted"),
        ("", "curves takes at least one gamma, got ''"),
        (",", "curves takes at least one gamma, got ','"),
    ],
    ids=["9-gammas", "100000-gammas", "denominator-257", "decimal-1/1000", "exponent", "exponent-upper",
         "no-gamma", "comma-only"],
)
def test_curves_gammas_refused_over_limit_before_any_work(capsys, monkeypatch, gammas, message):
    def reached(text):
        raise SpecSyntaxError("work started")

    monkeypatch.setattr(cli, "parse_spec", reached)
    argv = ["curves", "--spec", "fibonacci", "--max-len", str(cli.MAX_CURVES_LEN), "--gammas"]
    assert run(capsys, *argv, ",".join(["255/256"] * cli.MAX_CURVES_GAMMAS)) == (2, "", "error: work started\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, gammas)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["pair-check", "--spec", "skew:m=aba,fomr=blocks", "--radius", "4"], "key 'fomr'"),
        (["verify-monotone", "--spec", "mechanical:alpha=1/3,rh0=1/2", "--max-n", "4"], "key 'rh0'"),
        (["pair-check", "--spec", "skew:m=aba,m=,form=blocks", "--radius", "4"], "key 'm'"),
        (["verify-monotone", "--spec", "mechanical:alpha=1e-9999999", "--max-n", "4"], "'1e-9999999'"),
        (["curves", "--spec", "mechanical:alpha=1/3,rho=5E-9999999", "--max-len", "4", "--gammas", "1"],
         "'5E-9999999'"),
    ],
    ids=["skew-key", "mechanical-key", "repeated-key", "alpha-exponent", "rho-exponent"],
)
def test_bad_spec_fields_refused_before_any_work(capsys, argv, named):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["language", "--spec", "characteristic:2,{}", "--n", "3"], "characteristic directive entry"),
        (["verify-monotone", "--spec", "mechanical:alpha={}/3", "--max-n", "4"], "mechanical alpha"),
        (["verify-monotone", "--spec", "mechanical:alpha=1/3,rho=0.{}", "--max-n", "4"], "mechanical rho"),
        (["curves", "--spec", "fibonacci", "--max-len", "4", "--gammas", "1/2,{}"], "gamma"),
    ],
    ids=["directive", "alpha", "rho", "gamma"],
)
def test_numbers_over_the_int_digit_limit_are_refused_by_kind(capsys, argv, kind):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *(arg.format("1" * (limit + 1)) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    assert err.endswith(f"{kind} has {limit + 1} digits, over the limit of {limit}\n")
    # at the limit the token converts: it passes, or fails on its value, never on its digits
    code, out, err = run(capsys, *(arg.format("1" * limit) for arg in argv))
    assert "digits" not in err


@pytest.mark.parametrize(
    "argv, quoted",
    [
        (["qmarkoff", "ab" * 25000 + "c"], "malformed word "),
        (["qmarkoff", "".join(map(chr, range(0x4E00, 0x5100)))], "malformed word "),
        (["language", "--spec", "periodic:" + "aabb" * 15000 + "ab", "--n", "3"], "period "),
        (["language", "--spec", "martian" * 9000, "--n", "3"], "unknown spec "),
        (["pair-check", "--spec", "skew:m=aba," + "x" * 9000, "--radius", "4"], "got "),
        (["pair-check", "--spec", "skew:" + "x" * 9000 + "=1", "--radius", "4"], "key "),
        (["curves", "--spec", "fibonacci", "--max-len", "4", "--gammas", "," * 9000], "gamma, got "),
        (["curves", "--spec", "fibonacci", "--max-len", "4", "--gammas", "1/" + "0" * 100], "bad gammas "),
        (["curves", "--spec", "fibonacci", "--max-len", "4", "--gammas", "x" * 50000], "bad gamma "),
        (["pair-check", "--spec", "skew:m=b" + "a" * 60000, "--radius", "4"], "characters): "),
        (["pair-check", "--spec", "mechanical:alpha=" + "x" * 50000, "--radius", "4"], "mechanical alpha "),
        (["language", "--spec", "characteristic:2," + "x" * 50000, "--n", "3"], "directive entry "),
    ],
    ids=["word", "letters", "period", "spec", "item", "key", "no-gamma", "gamma-zero-division", "gamma",
         "skew-not-christoffel", "alpha", "directive-entry"],
)
def test_error_lines_quote_at_most_80_characters_of_the_input(capsys, argv, quoted):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 400, err[:400]
    start = err.index(quoted) + len(quoted)
    text = ast.literal_eval(err[start : err.index("...", start)])
    assert len(text) == 80 and err[err.index("...", start) :].startswith("... (")


@pytest.mark.parametrize("token, quoted", [("x" * 9000, "invalid int value: "), ("9" * 4000, "got ")],
                         ids=["not-an-int", "over-the-limit"])
def test_size_flags_quote_at_most_80_characters_of_the_input(capsys, token, quoted):
    try:
        code = main(["verify-monotone", "--spec", "fibonacci", "--max-n", token])
    except SystemExit as exc:  # argparse refuses a token that is not an int, after a usage line
        code = exc.code
    out, err = capsys.readouterr()
    line = err.splitlines()[-1]
    assert (code, out) == (2, "") and len(line) < 300
    start = line.index(quoted) + len(quoted)
    assert ast.literal_eval(line[start : line.index("...", start)]) == token[:80]
    assert line.endswith(f"... ({len(token)} characters)")


def test_excerpt_quotes_short_text_whole():
    assert words.excerpt("ab") == "'ab'" and words.excerpt("a" * 80) == repr("a" * 80)
    assert words.excerpt("a" * 81) == repr("a" * 80) + "... (81 characters)"


def test_pair_check(capsys):
    code, out, _ = run(capsys, "pair-check", "--spec", "fibonacci", "--radius", "6")
    assert code == 0
    assert "indistinguishable: yes" in out
    code, out, _ = run(capsys, "pair-check", "--spec", "skew:m=aba,form=blocks", "--radius", "5")
    assert code == 0


def test_pair_check_golden_stdout(capsys):
    code, out, _ = run(capsys, "pair-check", "--spec", "fibonacci", "--radius", "6")
    assert code == 0
    assert out == "spec: characteristic\nradius: 6\npatterns checked: 41\nindistinguishable: yes\n"
    code, out, _ = run(capsys, "pair-check", "--spec", "skew:m=aba,form=blocks", "--radius", "5")
    assert code == 0
    assert out == "spec: skew\nradius: 5\npatterns checked: 32\nindistinguishable: yes\n"


def test_pair_check_long_directive(capsys):
    # the standard word of this directive would have about 10^12 letters
    spec = "characteristic:" + ",".join(["9"] * 12)
    code, out, _ = run(capsys, "pair-check", "--spec", spec, "--radius", "4")
    assert code == 0
    assert "indistinguishable: yes" in out


def test_pair_check_requires_factorization(capsys):
    code, _, err = run(capsys, "pair-check", "--spec", "periodic:ab", "--radius", "3")
    assert code == 2
    assert "central factorization" in err


def test_pair_check_names_its_failing_pattern(capsys, monkeypatch):
    from qmarkoff import pairs

    real = pairs.build_pair

    def flip_control_pair(spec):  # s and s with its letter at 0 flipped: never indistinguishable
        return pairs.AsymptoticPair(real(spec).s, frozenset({0}))

    monkeypatch.setattr(pairs, "build_pair", flip_control_pair)
    assert run(capsys, "pair-check", "--spec", "fibonacci", "--radius", "1") == (
        1, "spec: characteristic\nradius: 1\npatterns checked: 1\nindistinguishable: no\nfailing: 'b' at offset 0\n", "")


def test_counterexamples(capsys):
    code, out, _ = run(capsys, "counterexamples")
    assert code == 0
    assert "q - q^2 - 2*q^3 - 2*q^4 - 3*q^5 - 2*q^6 - q^7" in out
    assert (
        "1 + 5*q + 16*q^2 + 38*q^3 + 70*q^4 + 109*q^5 + 145*q^6 + 168*q^7 + 171*q^8"
        " + 152*q^9 + 118*q^10 + 79*q^11 + 44*q^12 + 19*q^13 + 6*q^14 + q^15" in out
    )
    assert "NO" not in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "qmarkoff", "xyz")
    assert code == 2 and "malformed word" in err
    code, _, err = run(capsys, "language", "--spec", "martian", "--n", "3")
    assert code == 2 and "unknown spec" in err
    code, _, err = run(capsys, "tree", "--depth", "-1")
    assert code == 2
    code, _, err = run(capsys, "language", "--spec", "periodic:ab", "--n", "3")
    assert code == 1 and "complexity violation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-monotone", "--spec", "characteristic:1,1", "--max-n", "5"],
        ["language", "--spec", "characteristic:1,1", "--n", "4"],
    ],
    ids=["verify-monotone", "language"],
)
def test_short_directive_exits_2_before_any_stdout(capsys, argv):
    # directive (1, 1) generates the 3-letter standard word "aba": position 4 is out of reach
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: directive too short for position 4\n"


@pytest.mark.parametrize("mode", ["--triples", "--qpoly"])
def test_tree_json_excludes_the_other_modes(capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--depth", "1", "--json", mode])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_cli_examples_run(capsys):
    block = README.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["qmarkoff"]]
    assert len(commands) == 11
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (argv, code, err) == (argv, 0, "")


def test_ci_workflow_parses_and_runs_the_cli_checks():
    # a plain YAML scalar holding ": " starts a mapping, so a step such as grep -qx 'factors: 33153' needs a
    # block scalar; PyYAML is not a test dependency, so CI itself skips this
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text())
    runs = [step["run"] for step in workflow["jobs"]["tier1"]["steps"] if "run" in step]
    for check in ("factors: 33153", "factors: 33143", "factors: 1275", "factors (2049):", "indistinguishable: yes"):
        assert any(f"| grep -qx '{check}'" in r and r.startswith("set -o pipefail\n") for r in runs), check
    assert any(r.startswith("set -o pipefail\n") and "qmarkoff verify-monotone --spec skew:m=aba,form=blocks,xy=ba "
               "--max-n 256 | grep -qx 'factors: 33153'" in r for r in runs)
    for argv in ("language --spec characteristic:1,1 --n 4", "verify-monotone --spec characteristic:1,1 --max-n 8"):
        assert any(f"qmarkoff {argv} 2>" in r and "'error: directive too short for position 4\\n'" in r
                   for r in runs), argv
    assert any("verify-monotone --spec characteristic:1,1" in r and 'test ! -s "$RUNNER_TEMP/stdout"' in r
               for r in runs)
    assert any(r.startswith("set -o pipefail\n") and "qmarkoff pair-check --spec fibonacci --radius 1024 | grep -qx "
               "'indistinguishable: yes'" in r for r in runs)
    assert any("qmarkoff pair-check --spec characteristic:1,1 --radius 16 2>" in r and 'test "$code" -eq 2' in r
               and 'test ! -s "$RUNNER_TEMP/stdout"' in r and "'error: directive too short for position -33\\n'" in r
               for r in runs)


def test_readme_library_example_runs(capsys):
    example = README.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [str(morphism.q_markoff("aabab"))]


def _fresh(code: str) -> str:
    """Stdout of `python -c CODE` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def test_readme_library_example_runs_in_a_fresh_interpreter():
    # a name missing from the lazy table fails only where no other import has loaded its module
    example = README.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    assert _fresh(example).splitlines() == [str(morphism.q_markoff("aabab"))]


def test_lazy_public_api_in_a_fresh_interpreter():
    out = _fresh(
        "import sys, qmarkoff\n"
        "print(sorted(m for m in sys.modules if m.startswith('qmarkoff')))\n"
        "print(sorted(set(qmarkoff.__all__) - set(dir(qmarkoff))))\n"
        "try:\n"
        "    qmarkoff.frobnicate\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "star = {}\n"
        "exec('from qmarkoff import *', star)\n"
        "library = [sys.modules['qmarkoff.' + m] for m in ('words', 'qpoly', 'morphism', 'language', 'pairs', "
        "'spectrum')]\n"
        "print(len(qmarkoff.__all__), [name for name in qmarkoff.__all__ if name not in star\n"
        "       or getattr(qmarkoff, name) is not star[name]\n"
        "       or {id(vars(m)[name]) for m in library if name in vars(m)} != {id(star[name])}])\n"
    )
    assert out.splitlines() == [
        "['qmarkoff']",  # import qmarkoff loads no module of the library
        "[]",
        "module 'qmarkoff' has no attribute 'frobnicate'",
        "35 []",  # each name is the one object every library module binds to it
    ]


CLI_MODULES = ["qmarkoff", "qmarkoff.cli", "qmarkoff.morphism", "qmarkoff.qpoly", "qmarkoff.words"]


@pytest.mark.parametrize(
    "argv, also, code",
    [
        (None, [], 0),
        (["tree", "--depth", "3", "--json"], [], 0),
        (["qmarkoff", "aabab"], [], 0),
        (["counterexamples"], [], 0),
        (["spectrum", "aabab", "--depth", "16"], ["qmarkoff.spectrum"], 0),
        (["language", "--spec", "fibonacci", "--n", "5"], ["qmarkoff.language"], 0),
        (["language", "--spec", "fibonacci", "--n", "5", "--json"], ["json", "qmarkoff.language"], 0),
        (["verify-monotone", "--spec", "periodic:aab", "--max-n", "6"], ["qmarkoff.language"], 0),
        (["curves", "--spec", "fibonacci", "--max-len", "4", "--gammas", "1/2"], ["qmarkoff.language"], 0),
        (["pair-check", "--spec", "skew", "--radius", "4"], ["qmarkoff.language", "qmarkoff.pairs"], 0),
        # telling a complexity violation (exit 1) from a usage error (exit 2) imports nothing
        (["qmarkoff", "abc"], [], 2),
        (["spectrum", "aabb"], ["qmarkoff.spectrum"], 2),
        (["language", "--spec", "periodic:ab", "--n", "5"], ["qmarkoff.language"], 1),
    ],
    ids=["import", "tree-json", "qmarkoff", "counterexamples", "spectrum", "language", "language-json",
         "verify-monotone", "curves", "pair-check", "qmarkoff-usage-error", "spectrum-usage-error",
         "language-complexity-violation"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, also, code):
    # fractions (with decimal and numbers) loads with language, or where a rational is parsed
    out = _fresh(
        "import sys, qmarkoff.cli\n"
        f"code = 0 if {argv!r} is None else qmarkoff.cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('qmarkoff')\n"
        "                   or m in ('json', 'dataclasses', 'fractions', 'decimal', 'numbers')))\n"
    )
    fractions = ["decimal", "fractions", "numbers"] if "qmarkoff.language" in also else []
    assert out.splitlines()[-1] == f"{code} {sorted(CLI_MODULES + also + fractions)}"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["spectrum", "aabb"], 2, "error: precondition: Christoffel word required\n"),
        (["language", "--spec", "periodic:ab", "--n", "5"], 1,
         "error: complexity violation: 2 factors of length 5, expected 6\n"),
    ],
)
def test_error_exit_codes_before_language_is_loaded(argv, code, err):
    proc = _cli(*argv, stdout=subprocess.PIPE)
    out, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, out, stderr.decode()) == (code, b"", err)


TRACED_CLI = SRC.parent / "bench" / "traced_cli.py"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-monotone", "--spec", "fibonacci", "--max-n", "8"],
        ["verify-monotone", "--spec", "mechanical:alpha=3/8,rho=1/8,kind=upper", "--max-n", "8"],
        ["tree", "--json", "--depth", "3"],
        ["curves", "--spec", "fibonacci", "--max-len", "6", "--gammas", "1/2,7/5"],
        ["spectrum", "aabab"],
        ["language", "--spec", "fibonacci", "--n", "5"],
        ["pair-check", "--spec", "fibonacci", "--radius", "4"],
    ],
    ids=["verify-monotone", "verify-monotone-mechanical", "tree-json", "curves", "spectrum", "language",
         "pair-check"],
)
def test_traced_benchmark_command_matches_untraced(tmp_path, argv):
    # the benchmark's layer tracer wraps names the package loads on `import qmarkoff.cli`
    # (IntPolynomial among them) and reads mu_q.cache_info when the command ends
    proc = _cli(*argv, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    traced = subprocess.run([sys.executable, str(TRACED_CLI), str(trace), *argv], capture_output=True, env=env,
                            timeout=60)
    assert (traced.returncode, traced.stdout) == (proc.returncode, out), traced.stderr.decode()
    counters = json.loads(trace.read_text())["counters"]
    assert [key for key, value in counters.items() if value is None] == []


@pytest.mark.parametrize(
    "argv, flag, limit",
    [
        (["verify-monotone", "--spec", "fibonacci"], "--max-n", cli.MAX_MONOTONE_N),
        (["curves", "--spec", "fibonacci", "--gammas", "1/2"], "--max-len", cli.MAX_CURVES_LEN),
        (["pair-check", "--spec", "skew"], "--radius", cli.MAX_PAIR_RADIUS),
        (["language", "--spec", "skew"], "--n", cli.MAX_LANGUAGE_N),
    ],
)
def test_size_flag_refused_over_limit_before_any_work(capsys, monkeypatch, argv, flag, limit):
    def reached(text):
        raise SpecSyntaxError("work started")

    monkeypatch.setattr(cli, "parse_spec", reached)
    assert run(capsys, *argv, flag, str(limit)) == (2, "", "error: work started\n")
    for value in (limit + 1, 10**9):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, flag, str(value))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: {argv[0]} takes {flag} at most {limit}, got {value}\n"


def test_limits_cover_every_size_flag_and_the_sizes_in_use():
    assert set(LIMITS) == {
        ("tree", "depth"), ("spectrum", "depth"), ("verify-monotone", "max_n"),
        ("curves", "max_len"), ("pair-check", "radius"), ("language", "n"),
    }
    # the largest sizes the README, the tests and the benchmark run
    assert cli.MAX_MONOTONE_N >= 256 and cli.MAX_CURVES_LEN >= 40 and cli.MAX_PAIR_RADIUS >= 48
    assert cli.MAX_LANGUAGE_N >= 64 and cli.MAX_CURVES_GAMMAS >= 5 and cli.MAX_GAMMA_TERM >= 100


SPECS = st.sampled_from([
    "fibonacci", "periodic:aab", "periodic:aabb", "periodic:", "periodic:0x1", "characteristic:2,1",
    "characteristic:1", "characteristic:0", "characteristic:", "skew", "skew:m=aba,form=blocks,xy=ba",
    "skew:m=ab", "skew:form", "skew:form=spiral", "skew:m=aba,fomr=blocks",
    "mechanical:alpha=2/7,rho=-1/3,kind=upper", "mechanical:alpha=1/3,rh0=1/2",
    "mechanical:alpha=1/0", "mechanical:alpha=3/2", "mechanical", "mechanical:alpha=0", "bogus", "",
    "mechanical:alpha=1/1000000000,rho=1/3", "mechanical:alpha=0.0000000001",
])
WORDS = st.text(alphabet="ab01c ", max_size=12)
GAMMAS = st.sampled_from(["1/2,2", "0", "-1", "1/0", "abc", "1e400", "", "3,3", "0.5", "nan", ",,", "1/257",
                          "1,2,3,4,5,6,7,8,9"])
MALFORMED = st.sampled_from(["", "--", "-1", "--bogus", "x", "1.5", "0x10", " 7", "--depth", "-h"])


def _size(command, attr):
    """Cheap real sizes, negatives and malformed tokens, or refused sizes up to twice the limit."""
    limit = LIMITS[command, attr]
    return st.one_of(
        st.integers(-2, 5).map(str),
        st.integers(limit + 1, 2 * limit).map(str),
        MALFORMED,
    )


def _argv(command):
    """Strategy for one argv of `command`: its flags in order, each value drawn from its own strategy."""
    size = {c: _size(c, a) for c, a in LIMITS}.get(command, MALFORMED)
    parts = {
        "tree": [st.just(["--depth"]), size.map(lambda v: [v]), st.sampled_from(
            [[], ["--triples"], ["--qpoly"], ["--json"], ["--json", "--qpoly"], ["--triples", "--qpoly"]])],
        "qmarkoff": [WORDS.map(lambda w: [w])],
        "language": [SPECS.map(lambda s: ["--spec", s, "--n"]), size.map(lambda v: [v]),
                     st.sampled_from([[], ["--json"], ["--alphabet", "01"], ["--alphabet", "xy"]])],
        "verify-monotone": [SPECS.map(lambda s: ["--spec", s, "--max-n"]), size.map(lambda v: [v])],
        "spectrum": [WORDS.map(lambda w: [w, "--depth"]), size.map(lambda v: [v])],
        "curves": [SPECS.map(lambda s: ["--spec", s, "--max-len"]), size.map(lambda v: [v]),
                   GAMMAS.map(lambda g: ["--gammas", g])],
        "pair-check": [SPECS.map(lambda s: ["--spec", s, "--radius"]), size.map(lambda v: [v])],
    }.get(command, [])
    return st.tuples(*parts).map(lambda drawn: [command] + [tok for part in drawn for tok in part])


COMMANDS = ["tree", "qmarkoff", "language", "verify-monotone", "spectrum", "curves", "pair-check",
            "counterexamples", "frobnicate"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(COMMANDS).flatmap(_argv),
    st.lists(st.tuples(st.integers(0, 12), st.none() | MALFORMED), max_size=2),
)
def test_fuzzed_argv_keeps_the_exit_code_contract(argv, edits):
    for at, token in edits:  # None deletes the token at `at`; a string is inserted there
        argv = argv[:at] + argv[at + 1 :] if token is None else argv[:at] + [token] + argv[at:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert code != 2 or out.getvalue() == "", (argv, out.getvalue())

import json
import time
from fractions import Fraction

import pytest

from qmarkoff import spectrum
from qmarkoff.cli import main, parse_spec, SpecSyntaxError
from qmarkoff.language import Characteristic, Mechanical, Periodic, Skew
from qmarkoff.morphism import mu_q


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
    mech = parse_spec("mechanical:alpha=2/5,rho=1/3,kind=upper")
    assert isinstance(mech, Mechanical)
    assert mech.spec.alpha == Fraction(2, 5)
    assert mech.spec.rho == Fraction(1, 3)
    assert mech.spec.kind == "upper"


def test_parse_spec_errors():
    for bad in ("nonsense", "periodic:xyz", "characteristic:1,zero", "mechanical:rho=1/3",
                "skew:form", "mechanical:alpha=1/0"):
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)


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


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "--depth", "1", "--json")
    nodes = json.loads(out)
    assert [n["path"] for n in nodes] == ["", "L", "R"]
    assert nodes[0]["word"] == "ab"
    assert nodes[0]["triple"] == [1, 5, 2]
    assert nodes[0]["q_markoff"] == "1 + q + 2*q^2 + q^3"


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
    (m11, m12), (m21, m22) = mu_q(w).evaluate(1)
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


def test_verify_monotone_deterministic(capsys):
    _, first, _ = run(capsys, "verify-monotone", "--spec", "periodic:aabab", "--max-n", "6")
    _, second, _ = run(capsys, "verify-monotone", "--spec", "periodic:aabab", "--max-n", "6")
    assert first == second


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "ab", "--depth", "64")
    assert code == 0
    assert "m: 5" in out
    assert "residual: 0.0" in out


def test_spectrum_golden_stdout(capsys):
    code, out, _ = run(capsys, "spectrum", "aabab")
    assert code == 0
    assert out == (
        "word: aabab\n"
        "m: 194\n"
        "supremum: 2.99998228641102\n"
        "error_bound: 5.37138051302235e-35\n"
        "closed_form: 2.99998228641102\n"
        "residual: 0.0\n"
    )


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
    ],
    ids=["skew", "mechanical"],
)
def test_curves_golden_stdout(capsys, argv, golden):
    code, out, err = run(capsys, "curves", *argv)
    assert code == 0 and err == ""
    assert out == golden


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
    assert code == 2 and "complexity violation" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

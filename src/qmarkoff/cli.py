"""Command-line front end: trees, factor tables, verification reports, CSV export.

Every command returns its exit code and its text as chunks; main is the only writer of stdout and
stderr. Every command but tree returns its whole text as one chunk; tree streams node by node.

Each command is a fresh interpreter, so the imports follow the commands: the modules every command
runs (morphism, with qpoly, and words) load at the top, while language, pairs, spectrum and json
load inside the commands that use them.

Exit codes: 0 on success, 1 on verification failure (including a spec whose factor count at
the requested n is not n+1), 2 on usage errors (unknown spec string or spec key, malformed or
overlong word, bad numeric flags, a number with more digits than int() converts, a size flag over
its limit in LIMITS, or curves gammas that are none or over MAX_CURVES_GAMMAS or MAX_GAMMA_TERM,
refused before any work), 3 on output or internal errors (a closed or full stdout, any other
exception), each with one error: line, which quotes at most 80 characters of an input (argparse's
own lines for an unknown command, choice or argument quote it whole).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterator

from .morphism import (
    christoffel_node,
    markoff_triple,
    mu,
    mu_q,
    q_markoff,
    tree_paths,
)
from .words import excerpt, parse_word, render_word

if TYPE_CHECKING:
    from fractions import Fraction

    from .language import BalancedSpec

FIBONACCI_DIRECTIVE = (1,) * 24
MAX_QMARKOFF_LETTERS = 1024  # mu_q time is cubic in the length; b^1024 on 2 vCPUs: 6.4-7.9 s, 47 MiB, 12 MB out
MAX_TREE_DEPTH = 10  # all 2^(depth+1) - 1 paths up front; tree --json at 10, to /dev/null or piped: 1.6-2.9 s, 16 MiB
MAX_SPECTRUM_DEPTH = 1024  # bracket widths fall like phi^(-2 depth): floats settle near depth 40
# m has at most 2.5432 bits a letter, 3,140 digits, inside str(int)'s 4300; a.b^4095 --depth 1024: 0.8 s, 15 MiB
MAX_SPECTRUM_LETTERS = 4096
# Wall time and peak RSS of the costliest spec at each limit, then one step above it
# (2-vCPU Xeon, Python 3.11):
# verify-monotone walks one rotation's chain a length at a time, one quotient past max_n on the spec's path:
# fibonacci 0.24 s; mechanical:alpha=255/511 --max-n 512: 0.51 s, 16 MiB
MAX_MONOTONE_N = 256  # periodic:aabab 0.25 s, 16 MiB; mechanical:alpha=126/253 --max-n 320: 0.30 s, 16 MiB
MAX_CURVES_LEN = 160  # fibonacci, 5 gammas: 1.3 s, 64 MiB; --max-len 240: 3.5 s, 99 MiB
# curves --max-len 160, skew blocks, gammas like 255/256: 8 gammas 6.2 s, 155 MiB; 16 gammas
# 12.5 s, 292 MiB; 8 gammas with terms near 512: 6.8 s, 163 MiB.  Checked before the spec.
MAX_CURVES_GAMMAS = 8
MAX_GAMMA_TERM = 256  # largest numerator and denominator of a gamma
MAX_PAIR_RADIUS = 1024  # characteristic:1,1,... (60,000 ones) 1.0-1.8 s, 22 MiB; --radius 1600: 2.8-3.8 s, 25 MiB
MAX_LANGUAGE_N = 2048  # skew --json: 0.27 s, 45 MiB; --n 4096: 0.59 s, 132 MiB
# (subcommand, flag) -> largest accepted value, checked in main before any work
LIMITS = {
    ("tree", "depth"): MAX_TREE_DEPTH,
    ("spectrum", "depth"): MAX_SPECTRUM_DEPTH,
    ("verify-monotone", "max_n"): MAX_MONOTONE_N,
    ("curves", "max_len"): MAX_CURVES_LEN,
    ("pair-check", "radius"): MAX_PAIR_RADIUS,
    ("language", "n"): MAX_LANGUAGE_N,
}


class SpecSyntaxError(ValueError):
    pass


def parse_spec(text: str) -> BalancedSpec:
    """Parse the CLI spec grammar.

    periodic:WORD | fibonacci | characteristic:a1,a2,... |
    skew:m=WORD,form=xxyxx|blocks,xy=ab|ba | mechanical:alpha=P/Q,rho=P/Q,kind=lower|upper
    """
    from .language import Characteristic, Mechanical, Periodic, Skew

    head, _, rest = text.partition(":")
    try:
        if head == "fibonacci" and not rest:
            return Characteristic(FIBONACCI_DIRECTIVE)
        if head == "periodic":
            return Periodic(parse_word(rest))
        if head == "characteristic":
            return Characteristic(tuple(_number(tok, "characteristic directive entry", int)
                                        for tok in rest.split(",") if tok))
        if head == "skew":
            return Skew(**_parse_options(rest, Skew._fields))
        if head == "mechanical":
            opts = _parse_options(rest, ("alpha", "rho", "kind"))
            if "alpha" not in opts:
                raise SpecSyntaxError("mechanical spec needs alpha=P/Q")
            alpha = _fraction(opts["alpha"], "mechanical alpha")
            _fraction(opts.get("rho", "0"), "mechanical rho")  # rho and kind are checked, then dropped:
            spec = Mechanical(alpha)  # no intercept or rounding changes the language of a slope
            if opts.get("kind", "lower") not in ("lower", "upper"):
                raise ValueError("kind must be 'lower' or 'upper'")
            return spec
    except SpecSyntaxError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecSyntaxError(f"bad spec {excerpt(text)}: {exc}") from exc
    raise SpecSyntaxError(f"unknown spec {excerpt(text)}")


def _parse_options(rest: str, keys: tuple[str, ...]) -> dict[str, str]:
    opts: dict[str, str] = {}
    for item in filter(None, rest.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise SpecSyntaxError(f"expected key=value, got {excerpt(item)}")
        if key not in keys or key in opts:
            raise SpecSyntaxError(f"unknown or repeated key {excerpt(key)}; expected one of {', '.join(keys)}")
        opts[key] = value
    return opts


def _number(token: str, kind: str, convert: Callable[[str], int | Fraction]) -> int | Fraction:
    """convert(token), int or Fraction. A token with a run of digits longer than CPython converts
    to an int (sys.get_int_max_str_digits, 4300 by default; 0 means no limit) is refused before
    conversion, and one convert cannot read is quoted by excerpt, not by convert's own message."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python 3.10.7 and later
    digits = max(map(len, re.findall(r"\d+", token.replace("_", ""))), default=0)
    if limit and digits > limit:
        raise ValueError(f"{kind} has {digits} digits, over the limit of {limit}")
    try:
        return convert(token)
    except ValueError:
        raise ValueError(f"bad {kind} {excerpt(token)}") from None


def _fraction(token: str, kind: str) -> Fraction:
    """Fraction(token) for P/Q and decimal tokens; exponent forms such as 1e10000000 cost seconds."""
    from fractions import Fraction  # loaded only where a rational is parsed
    if "e" in token.lower():
        raise ValueError(f"exponent form {excerpt(token)} is not accepted")
    return _number(token, kind, Fraction)


def _size_flag(token: str) -> int:
    """int(token) for a size flag; argparse's own message would quote a bad token whole."""
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(token)}") from None


def _spec_name(spec: BalancedSpec) -> str:
    return type(spec).__name__.lower()


def _lines(*lines: str) -> list[str]:
    """A command's text as one chunk, so main writes it in one call: a reader that closes the pipe
    after its first match cannot close it between two writes."""
    return ["\n".join(lines) + "\n"]


def _cmd_tree(args) -> tuple[int, Iterator[str]]:
    def json_node(p):  # json.dumps(nodes, indent=2), node by node: no field needs escaping
        word, (x, y, z) = christoffel_node(p).word, markoff_triple(p)
        return (f'{{\n    "path": "{"".join(p)}",\n    "word": "{word}",\n    "triple": [\n      {x},\n      {y},\n'
                f'      {z}\n    ],\n    "q_markoff": "{str(q_markoff(word))}"\n  }}')

    render = (json_node if args.json else markoff_triple if args.triples
              else (lambda p: q_markoff(christoffel_node(p).word)) if args.qpoly else christoffel_node)
    head, sep, tail = ("[\n  ", ",\n  ", "\n]\n") if args.json else ("", "\n", "\n")

    def texts():
        for i, p in enumerate(tree_paths(args.depth)):
            yield (sep if i else head) + str(render(p))
        yield tail
    return 0, texts()


def _cmd_qmarkoff(args) -> tuple[int, list[str]]:
    w = parse_word(args.word)
    if len(w) > MAX_QMARKOFF_LETTERS:
        raise ValueError(f"word has {len(w)} letters; qmarkoff takes at most {MAX_QMARKOFF_LETTERS}")
    m, mq = mu(w), mu_q(w)
    e12 = str(mq.e12)
    return 0, _lines(f"word: {w}", f"mu: [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]",
                     f"mu_q[1,1]: {mq.e11}", f"mu_q[1,2]: {e12}", f"mu_q[2,1]: {mq.e21}",
                     f"mu_q[2,2]: {mq.e22}", f"q_markoff: {e12}")


def _cmd_language(args) -> tuple[int, list[str]]:
    from .language import classify_change, enumerate_factors, flip_permutation

    spec = parse_spec(args.spec)
    n = args.n
    changes = flip_permutation(spec, n)
    factors = [changes[0].src] + [c.dst for c in changes]
    if args.json:
        import json

        tagged = [{"from": render_word(c.src, args.alphabet), "to": render_word(c.dst, args.alphabet),
                   "kind": c.kind} for c in changes]
        payload = {"n": n, "factors": [render_word(f, args.alphabet) for f in factors], "changes": tagged}
        return 0, _lines(json.dumps(payload, indent=2))
    # one radix segment: last of length n-1, the length-n factors, first of length n+1 (kinds from changes);
    # the language extends to the right, so the last of length n-1 is the prefix of the last of length n
    below = [factors[-1][:-1]] if n >= 2 else []
    above = enumerate_factors(spec, n + 1)[0]
    segment = below + factors + [above]
    kinds = ([""] + [classify_change(w, factors[0]) for w in below] + [c.kind for c in changes]
             + [classify_change(factors[-1], above)])
    width = max(map(len, segment))
    rows = [f"{render_word(w, args.alphabet).ljust(width + 2)}{kind}".rstrip() for w, kind in zip(segment, kinds)]
    return 0, _lines(f"n: {n}", f"factors ({len(factors)}):", *rows)


def _cmd_verify_monotone(args) -> tuple[int, list[str]]:
    from .language import MonotonicityError, radix_chain_check

    spec = parse_spec(args.spec)
    head = f"spec: {_spec_name(spec)}", f"max_n: {args.max_n}"
    try:
        words = radix_chain_check(spec, args.max_n)
    except MonotonicityError as exc:
        return 1, _lines(*head, f"FAIL: {exc.src!r} -> {exc.dst!r}", f"difference: {exc.difference}")
    return 0, _lines(*head, f"factors: {words}", f"differences: {words - 1}",
                     "all differences nonzero with nonnegative coefficients: OK")


def _cmd_spectrum(args) -> tuple[int, list[str]]:
    w = parse_word(args.word)
    if len(w) > MAX_SPECTRUM_LETTERS:
        raise ValueError(f"word has {len(w)} letters; spectrum takes at most {MAX_SPECTRUM_LETTERS}")
    from .spectrum import christoffel_supremum, closed_form_supremum

    m, sup = christoffel_supremum(w, args.depth)
    closed = closed_form_supremum(m)
    return 0, _lines(f"word: {w}", f"m: {m}", f"supremum: {sup.value!r}", f"error_bound: {sup.error_bound!r}",
                     f"closed_form: {closed!r}", f"residual: {abs(sup.value - closed)!r}")


def _cmd_curves(args) -> tuple[int, list[str]]:
    tokens = [tok for tok in args.gammas.split(",") if tok]
    if not tokens:
        raise ValueError(f"curves takes at least one gamma, got {excerpt(args.gammas)}")
    if len(tokens) > MAX_CURVES_GAMMAS:
        raise ValueError(f"curves takes at most {MAX_CURVES_GAMMAS} gammas, got {len(tokens)}")
    try:
        gammas = [_fraction(tok, "gamma") for tok in tokens]
    except ZeroDivisionError as exc:
        raise ValueError(f"bad gammas {excerpt(args.gammas)}: {exc}") from None
    if any(max(abs(g.numerator), g.denominator) > MAX_GAMMA_TERM for g in gammas):
        raise ValueError(f"curves takes gamma numerators and denominators at most {MAX_GAMMA_TERM}")
    from .language import curve_ratios

    spec = parse_spec(args.spec)
    lines = ["word,gamma,value"]
    for word, values in curve_ratios(spec, args.max_len, gammas):
        text = render_word(word, "01")
        lines.extend(f"{text},{tok},{y / s!r}" for tok, (y, s) in zip(tokens, values))
    return 0, _lines(*lines)


def _cmd_pair_check(args) -> tuple[int, list[str]]:
    from .pairs import build_pair, pair_report

    spec = parse_spec(args.spec)
    report = pair_report(build_pair(spec), args.radius)
    head = f"spec: {_spec_name(spec)}", f"radius: {report.radius}", f"patterns checked: {report.patterns_checked}"
    if report.indistinguishable:
        return 0, _lines(*head, "indistinguishable: yes")
    off, word = report.failing
    return 1, _lines(*head, "indistinguishable: no", f"failing: {excerpt(word)} at offset {off}")


def _verdict(label: str, value: bool) -> str:
    return f"  {label}: {'yes' if value else 'NO'}"


def _cmd_counterexamples(args) -> tuple[int, list[str]]:
    lines = []
    for title, u, v in (
        ("1) abb <radix baa, but the difference is not coefficientwise nonnegative", "abb", "baa"),
        ("2) abbbab <radix bababb, same failure at length 6", "abbbab", "bababb"),
        ("3) abbb <radix aaaab, failure on Christoffel words", "abbb", "aaaab"),
    ):
        d = q_markoff(v) - q_markoff(u)
        lines += [title, f"   mu_q({v})[1,2] - mu_q({u})[1,2] = {d}",
                  _verdict("has negative coefficients", any(c < 0 for c in d.coeffs))]

    d = q_markoff("a" * 12 + "b") - q_markoff("a" + "b" * 7)
    lines += ["4) ab^7 <radix a^12 b, another Christoffel failure",
              _verdict("difference has negative coefficients", any(c < 0 for c in d.coeffs))]

    p1, p2 = q_markoff("aaabbb"), q_markoff("abbaab")
    lines += ["5) q-Markoff polynomials collide on different words of the same length",
              f"   mu_q(aaabbb)[1,2] = {p1}", _verdict("equals mu_q(abbaab)[1,2]", p1 == p2)]

    m1, m2 = mu("aabb")[0][1], mu("abab")[0][1]
    q1, q2 = q_markoff("aabb"), q_markoff("abab")
    lines += ["6) classical collision at 75 persists for the q-polynomials",
              _verdict("mu(aabb)[1,2] == mu(abab)[1,2] == 75", m1 == m2 == 75),
              f"   mu_q(aabb)[1,2] = {q1}",
              _verdict("equals mu_q(abab)[1,2] (q-analog does not separate the pair)", q1 == q2),
              _verdict("full matrices mu_q(aabb) and mu_q(abab) still differ", mu_q("aabb") != mu_q("abab"))]

    # exit 1 iff a verdict reads NO: no other line ends that way
    return int(any(line.endswith(": NO") for line in lines)), _lines(*lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarkoff",
        description="Exact q-Markoff arithmetic over Christoffel words and balanced sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", help="Christoffel / Markoff / q-Markoff tree")
    p.add_argument("--depth", type=_size_flag, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--triples", action="store_true")
    mode.add_argument("--qpoly", action="store_true")
    mode.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("qmarkoff", help="mu, mu_q and the q-Markoff polynomial of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_qmarkoff)

    p = sub.add_parser("language", help="factor table with flip tags")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=_size_flag, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--alphabet", choices=("ab", "01"), default="ab")
    p.set_defaults(func=_cmd_language)

    p = sub.add_parser("verify-monotone", help="radix-chain monotonicity check")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-n", type=_size_flag, required=True)
    p.set_defaults(func=_cmd_verify_monotone)

    p = sub.add_parser("spectrum", help="Markoff supremum vs closed form")
    p.add_argument("word")
    p.add_argument("--depth", type=_size_flag, default=64)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("curves", help="CSV of q-Markoff values at sampled gamma")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-len", type=_size_flag, required=True)
    p.add_argument("--gammas", required=True)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("pair-check", help="indistinguishable asymptotic pair verification")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=_size_flag, required=True)
    p.set_defaults(func=_cmd_pair_check)

    p = sub.add_parser("counterexamples", help="order failures across balanced languages")
    p.set_defaults(func=_cmd_counterexamples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for (command, attr), limit in LIMITS.items():
        if command != args.command:
            continue
        value, flag = getattr(args, attr), "--" + attr.replace("_", "-")
        if value < 0:
            print(f"error: {flag} must be nonnegative", file=sys.stderr)
            return 2
        if value > limit:
            got = value if value < 10**80 else excerpt(str(value))  # a value under 81 digits, whole
            print(f"error: {args.command} takes {flag} at most {limit}, got {got}", file=sys.stderr)
            return 2
    try:
        code, chunks = args.func(args)
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed or full stdout fails here at the latest
        return code
    except (ValueError, OverflowError) as exc:
        # only a command that loaded language raises ComplexityViolation: a usage error loads nothing
        violation = getattr(sys.modules.get(f"{__package__}.language"), "ComplexityViolation", ())
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, violation) else 2
    except Exception as exc:  # a closed or full stdout, or an internal error
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()  # a tree node that fails to render leaves the whole nodes before it
        except OSError:  # the recipe of the signal docs: the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3

if __name__ == "__main__":
    sys.exit(main())

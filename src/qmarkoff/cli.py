"""Command-line front end: trees, factor tables, verification reports, CSV export.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors
(unknown spec string, malformed word, bad numeric flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .language import (
    BalancedSpec,
    Characteristic,
    Mechanical,
    MechanicalSpec,
    MonotonicityError,
    Periodic,
    Skew,
    classify_change,
    enumerate_factors,
    flip_permutation,
    radix_chain_check,
    curves_export,
)
from .morphism import (
    christoffel_node,
    markoff_triple,
    mu,
    mu_q,
    q_markoff,
    tree_paths,
)
from .pairs import build_pair, pair_report
from .spectrum import christoffel_supremum, closed_form_supremum
from .words import parse_word, render_word

FIBONACCI_DIRECTIVE = (1,) * 24
MAX_QMARKOFF_LETTERS = 1024  # mu_q takes time cubic in the word length


class SpecSyntaxError(ValueError):
    pass


def parse_spec(text: str) -> BalancedSpec:
    """Parse the CLI spec grammar.

    periodic:WORD | fibonacci | characteristic:a1,a2,... |
    skew:m=WORD,form=xxyxx|blocks,xy=ab|ba | mechanical:alpha=P/Q,rho=P/Q,kind=lower|upper
    """
    head, _, rest = text.partition(":")
    try:
        if head == "fibonacci" and not rest:
            return Characteristic(FIBONACCI_DIRECTIVE)
        if head == "periodic":
            return Periodic(parse_word(rest))
        if head == "characteristic":
            return Characteristic(tuple(int(tok) for tok in rest.split(",") if tok))
        if head == "skew":
            opts = _parse_options(rest)
            return Skew(
                m=parse_word(opts.pop("m", "")),
                form=opts.pop("form", "xxyxx"),
                xy=opts.pop("xy", "ab"),
            )
        if head == "mechanical":
            opts = _parse_options(rest)
            if "alpha" not in opts:
                raise SpecSyntaxError("mechanical spec needs alpha=P/Q")
            spec = MechanicalSpec(
                alpha=Fraction(opts.pop("alpha")),
                rho=Fraction(opts.pop("rho", "0")),
                kind=opts.pop("kind", "lower"),
            )
            return Mechanical(spec)
    except SpecSyntaxError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecSyntaxError(f"bad spec {text!r}: {exc}") from exc
    raise SpecSyntaxError(f"unknown spec {text!r}")


def _parse_options(rest: str) -> dict[str, str]:
    opts: dict[str, str] = {}
    for item in filter(None, rest.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise SpecSyntaxError(f"expected key=value, got {item!r}")
        opts[key] = value
    return opts


def _spec_name(spec: BalancedSpec) -> str:
    return type(spec).__name__.lower()


def _cmd_tree(args) -> int:
    paths = tree_paths(args.depth)
    if args.json:
        nodes = []
        for p in paths:
            node = christoffel_node(p)
            triple = markoff_triple(p)
            nodes.append(
                {
                    "path": "".join(p),
                    "word": node.word,
                    "triple": [triple.x, triple.y, triple.z],
                    "q_markoff": str(q_markoff(node.word)),
                }
            )
        print(json.dumps(nodes, indent=2))
        return 0
    for p in paths:
        if args.triples:
            print(markoff_triple(p))
        elif args.qpoly:
            print(q_markoff(christoffel_node(p).word))
        else:
            print(christoffel_node(p))
    return 0


def _cmd_qmarkoff(args) -> int:
    w = parse_word(args.word)
    if len(w) > MAX_QMARKOFF_LETTERS:
        raise ValueError(f"word has {len(w)} letters; qmarkoff takes at most {MAX_QMARKOFF_LETTERS}")
    m = mu(w)
    mq = mu_q(w)
    print(f"word: {w}")
    print(f"mu: [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]")
    print(f"mu_q[1,1]: {mq.e11}")
    print(f"mu_q[1,2]: {mq.e12}")
    print(f"mu_q[2,1]: {mq.e21}")
    print(f"mu_q[2,2]: {mq.e22}")
    print(f"q_markoff: {mq.e12}")
    return 0


def _cmd_language(args) -> int:
    spec = parse_spec(args.spec)
    n = args.n
    changes = flip_permutation(spec, n)
    factors = enumerate_factors(spec, n).factors
    if args.json:
        payload = {
            "n": n,
            "factors": [render_word(f, args.alphabet) for f in factors],
            "changes": [
                {
                    "from": render_word(c.src, args.alphabet),
                    "to": render_word(c.dst, args.alphabet),
                    "kind": c.kind,
                }
                for c in changes
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"n: {n}")
    print(f"factors ({len(factors)}):")
    rows: list[tuple[str, str]] = []
    if n >= 2:
        below = enumerate_factors(spec, n - 1).factors[-1]
        rows.append((below, ""))
        rows.append((factors[0], classify_change(below, factors[0])))
    else:
        rows.append((factors[0], ""))
    for c in changes:
        rows.append((c.dst, c.kind))
    above = enumerate_factors(spec, n + 1).factors[0]
    rows.append((above, classify_change(factors[-1], above)))
    width = max(len(w) for w, _ in rows)
    for word, kind in rows:
        line = render_word(word, args.alphabet).ljust(width + 2)
        print(f"{line}{kind}".rstrip())
    return 0


def _cmd_verify_monotone(args) -> int:
    spec = parse_spec(args.spec)
    print(f"spec: {_spec_name(spec)}")
    print(f"max_n: {args.max_n}")
    try:
        report = radix_chain_check(spec, args.max_n)
    except MonotonicityError as exc:
        print(f"FAIL: {exc.src!r} -> {exc.dst!r}")
        print(f"difference: {exc.difference}")
        return 1
    print(f"factors: {len(report.chain)}")
    print(f"differences: {len(report.chain) - 1}")
    print("all differences nonzero with nonnegative coefficients: OK")
    return 0


def _cmd_spectrum(args) -> int:
    w = parse_word(args.word)
    m, sup = christoffel_supremum(w, args.depth)
    closed = closed_form_supremum(m)
    print(f"word: {w}")
    print(f"m: {m}")
    print(f"supremum: {sup.value!r}")
    print(f"error_bound: {sup.error_bound!r}")
    print(f"closed_form: {closed!r}")
    print(f"residual: {abs(sup.value - closed)!r}")
    return 0


def _cmd_curves(args) -> int:
    spec = parse_spec(args.spec)
    tokens = [tok for tok in args.gammas.split(",") if tok]
    gammas = [Fraction(tok) for tok in tokens]
    rows = curves_export(spec, args.max_len, gammas)
    text = {g: tok for g, tok in zip(gammas, tokens)}
    print("word,gamma,value")
    for word, gamma, value in rows:
        print(f"{render_word(word, '01')},{text[gamma]},{float(value)!r}")
    return 0


def _cmd_pair_check(args) -> int:
    spec = parse_spec(args.spec)
    pair = build_pair(spec, 0)
    report = pair_report(pair, args.radius)
    print(f"spec: {_spec_name(spec)}")
    print(f"radius: {report.radius}")
    print(f"patterns checked: {report.patterns_checked}")
    print(f"indistinguishable: {'yes' if report.indistinguishable else 'no'}")
    return 0 if report.indistinguishable else 1


def _cmd_counterexamples(args) -> int:
    ok = True

    def verdict(label: str, value: bool) -> None:
        nonlocal ok
        ok = ok and value
        print(f"  {label}: {'yes' if value else 'NO'}")

    print("1) abb <radix baa, but the difference is not coefficientwise nonnegative")
    d = q_markoff("baa") - q_markoff("abb")
    print(f"   mu_q(baa)[1,2] - mu_q(abb)[1,2] = {d}")
    verdict("has negative coefficients", any(c < 0 for c in d.coeffs))

    print("2) abbbab <radix bababb, same failure at length 6")
    d = q_markoff("bababb") - q_markoff("abbbab")
    print(f"   mu_q(bababb)[1,2] - mu_q(abbbab)[1,2] = {d}")
    verdict("has negative coefficients", any(c < 0 for c in d.coeffs))

    print("3) abbb <radix aaaab, failure on Christoffel words")
    d = q_markoff("aaaab") - q_markoff("abbb")
    print(f"   mu_q(aaaab)[1,2] - mu_q(abbb)[1,2] = {d}")
    verdict("has negative coefficients", any(c < 0 for c in d.coeffs))

    print("4) ab^7 <radix a^12 b, another Christoffel failure")
    d = q_markoff("a" * 12 + "b") - q_markoff("a" + "b" * 7)
    verdict("difference has negative coefficients", any(c < 0 for c in d.coeffs))

    print("5) q-Markoff polynomials collide on different words of the same length")
    p1, p2 = q_markoff("aaabbb"), q_markoff("abbaab")
    print(f"   mu_q(aaabbb)[1,2] = {p1}")
    verdict("equals mu_q(abbaab)[1,2]", p1 == p2)

    print("6) classical collision at 75 persists for the q-polynomials")
    m1, m2 = mu("aabb")[0][1], mu("abab")[0][1]
    verdict("mu(aabb)[1,2] == mu(abab)[1,2] == 75", m1 == m2 == 75)
    q1, q2 = q_markoff("aabb"), q_markoff("abab")
    print(f"   mu_q(aabb)[1,2] = {q1}")
    verdict("equals mu_q(abab)[1,2] (q-analog does not separate the pair)", q1 == q2)
    verdict("full matrices mu_q(aabb) and mu_q(abab) still differ", mu_q("aabb") != mu_q("abab"))

    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarkoff",
        description="Exact q-Markoff arithmetic over Christoffel words and balanced sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", help="Christoffel / Markoff / q-Markoff tree")
    p.add_argument("--depth", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--triples", action="store_true")
    mode.add_argument("--qpoly", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("qmarkoff", help="mu, mu_q and the q-Markoff polynomial of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_qmarkoff)

    p = sub.add_parser("language", help="factor table with flip tags")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--alphabet", choices=("ab", "01"), default="ab")
    p.set_defaults(func=_cmd_language)

    p = sub.add_parser("verify-monotone", help="radix-chain monotonicity check")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_verify_monotone)

    p = sub.add_parser("spectrum", help="Markoff supremum vs closed form")
    p.add_argument("word")
    p.add_argument("--depth", type=int, default=64)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("curves", help="CSV of q-Markoff values at sampled gamma")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--gammas", required=True)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("pair-check", help="indistinguishable asymptotic pair verification")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_pair_check)

    p = sub.add_parser("counterexamples", help="order failures across balanced languages")
    p.set_defaults(func=_cmd_counterexamples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for attr in ("depth", "n", "max_n", "max_len", "radius"):
        value = getattr(args, attr, None)
        if value is not None and value < 0:
            print(f"error: --{attr.replace('_', '-')} must be nonnegative", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (SpecSyntaxError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

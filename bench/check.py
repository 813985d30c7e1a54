"""Independent checker for the output of ``qmarkoff`` CLI commands.

Nothing here imports the package under test.  Every expected answer is
computed from first principles:

* Christoffel words from their closed form, tree nodes from the (u, v)
  recursion, standard words from s_k = s_{k-1}^{d_k} s_{k-2};
* Markoff numbers and triples from integer 2x2 products of
  a -> [[2,1],[1,1]] and b -> [[5,2],[2,1]];
* q-Markoff values at a rational gamma = P/Q from integer 2x2 products of
  the generator images scaled by Q^2 (a) and Q^4 (b), so no polynomial
  arithmetic is needed;
* factor sets from explicit windows of the sequences, pattern counts of
  indistinguishable pairs from explicit substrings.

``check_command(argv, returncode, stdout)`` returns a list of problems;
an empty list means the output is correct.  Expected answers are cached
per argv, so checking a repeated command costs a string comparison.
"""

from __future__ import annotations

import argparse
import json
import math
from fractions import Fraction
from functools import lru_cache

IntMatrix = tuple[tuple[int, int], tuple[int, int]]

MU_A: IntMatrix = ((2, 1), (1, 1))
MU_B: IntMatrix = ((5, 2), (2, 1))
IDENTITY: IntMatrix = ((1, 0), (0, 1))

# The CLI's "fibonacci" spec is the characteristic sequence of this directive.
FIBONACCI_DIRECTIVE = (1,) * 24


class CheckError(Exception):
    """The output or the command cannot be checked, or the output is wrong."""


def christoffel_word(k: int, n: int) -> str:
    """Lower Christoffel word of length n with k letters b: w_i = floor((i+1)k/n) - floor(ik/n)."""
    if not (0 < k < n and math.gcd(k, n) == 1):
        raise ValueError(f"need 0 < k < n with gcd(k, n) = 1, got k={k}, n={n}")
    return "".join("ab"[(i + 1) * k // n - i * k // n] for i in range(n))


def matmul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def markoff_number(w: str) -> int:
    """Entry (1,2) of the integer Markoff morphism applied to w."""
    m = IDENTITY
    for ch in w:
        m = matmul(m, MU_A if ch == "a" else MU_B)
    return m[0][1]


def standard_prefix(directive: tuple[int, ...], length: int) -> str:
    """Prefix of the standard word s_k = s_{k-1}^{d_k} s_{k-2}, s_{-1} = b, s_0 = a."""
    prev, cur = "b", "a"
    for d in directive:
        if len(cur) >= length:
            break
        prev, cur = cur, cur * d + prev
    if len(cur) < length:
        raise CheckError(f"directive reaches only {len(cur)} letters, {length} needed")
    return cur[:length]


def characteristic_window(directive: tuple[int, ...], lo: int, hi: int) -> str:
    """Letters lo..hi-1 of ...p~ a b p... with the a at -1, the b at 0 and p the standard word."""
    p = standard_prefix(directive, max(hi, -lo) + 2)

    def letter(i: int) -> str:
        if i == -1:
            return "a"
        if i == 0:
            return "b"
        return p[i - 1] if i > 0 else p[-i - 2]

    return "".join(letter(i) for i in range(lo, hi))


def sturmian_factors(directive: tuple[int, ...], n: int) -> list[str]:
    """Sorted length-n factors of the characteristic sequence; a Sturmian language has n + 1."""
    if n == 0:
        return [""]
    radius = 8 * n + 64
    window = characteristic_window(directive, -radius, radius)
    fs = sorted({window[i : i + n] for i in range(len(window) - n + 1)})
    if len(fs) != n + 1:
        raise CheckError(f"oracle window too short: {len(fs)} factors of length {n}")
    return fs


def periodic_factors(w: str, n: int) -> list[str]:
    """Sorted length-n factors of the biinfinite repetition of w."""
    rep = w * (n // len(w) + 2)
    return sorted({rep[i : i + n] for i in range(len(w))})


def local_change(u: str, v: str) -> str:
    """Kind of the step u -> v between radix-consecutive factors of a balanced language."""
    if len(u) == len(v):
        diff = [i for i, (x, y) in enumerate(zip(u, v)) if x != y]
        if diff == [len(u) - 1] and (u[-1], v[-1]) == ("a", "b"):
            return "last_letter"
        if len(diff) == 2 and diff[1] == diff[0] + 1:
            i = diff[0]
            if (u[i : i + 2], v[i : i + 2]) == ("ab", "ba"):
                return "flip_ab_ba"
    elif len(v) == len(u) + 1 and u[:1] == "b" and v[:1] == "a" and v[1:-1] == u[1:]:
        return "wrap_awa" if v[-1] == "a" else "wrap_awb"
    raise CheckError(f"{u!r} -> {v!r} is not a local change")


def _parse_word(text: str) -> str:
    w = text.translate(str.maketrans("01", "ab"))
    if set(w) - {"a", "b"}:
        raise CheckError(f"not a word: {text!r}")
    return w


def _directive(spec: str) -> tuple[int, ...]:
    """Directive of a fibonacci or characteristic spec; other specs have no standard word here."""
    head, _, rest = spec.partition(":")
    if head == "fibonacci" and not rest:
        return FIBONACCI_DIRECTIVE
    if head == "characteristic":
        return tuple(int(tok) for tok in rest.split(",") if tok)
    raise CheckError(f"the checker has no oracle for spec {spec!r}")


def _spec_name(spec: str) -> str:
    head = spec.partition(":")[0]
    names = {"fibonacci": "characteristic", "characteristic": "characteristic",
             "periodic": "periodic", "skew": "skew", "mechanical": "mechanical"}
    if head not in names:
        raise CheckError(f"unknown spec {spec!r}")
    return names[head]


def _parse_argv(argv: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("command")
    parser.add_argument("word", nargs="?")
    parser.add_argument("--spec")
    parser.add_argument("--depth", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--max-n", type=int)
    parser.add_argument("--max-len", type=int)
    parser.add_argument("--radius", type=int)
    parser.add_argument("--gammas")
    parser.add_argument("--json", action="store_true")
    try:
        args, unknown = parser.parse_known_args(list(argv))
    except argparse.ArgumentError as exc:
        raise CheckError(f"cannot check argv {list(argv)!r}: {exc}") from exc
    if unknown:
        raise CheckError(f"cannot check arguments {unknown!r}")
    return args


# --- expected answers -------------------------------------------------------


def expected_verify_monotone(spec: str, max_n: int) -> str:
    """Every spec in use has complexity n + 1 up to max_n, so the chain has (N+1)(N+2)/2 words."""
    count = (max_n + 1) * (max_n + 2) // 2
    return (
        f"spec: {_spec_name(spec)}\nmax_n: {max_n}\nfactors: {count}\n"
        f"differences: {count - 1}\nall differences nonzero with nonnegative coefficients: OK\n"
    )


def q_value_rows(words: list[str], gamma: Fraction) -> list[float]:
    """q-Markoff values at gamma of a factor-closed, radix-ordered word list.

    mu_q(a)(g) = [[g + g^2, 1], [g, 1]] and mu_q(b)(g) = [[g + 2g^2 + g^3 + g^4, 1 + g],
    [g + g^2, 1]]; with g = P/Q they are integer matrices over Q^2 and Q^4.
    Each word reuses the product of its prefix, which precedes it in radix order.
    """
    p, q = gamma.numerator, gamma.denominator
    gen_a = ((p * q + p * p, q * q), (p * q, q * q))
    gen_b = (
        (p * q**3 + 2 * p**2 * q**2 + p**3 * q + p**4, q**4 + p * q**3),
        (p * q**3 + p**2 * q**2, q**4),
    )
    products: dict[str, tuple[IntMatrix, int]] = {"": (IDENTITY, 0)}
    values = []
    for w in words:
        if w not in products:
            m, e = products[w[:-1]]
            products[w] = (matmul(m, gen_a), e + 2) if w[-1] == "a" else (matmul(m, gen_b), e + 4)
        m, e = products[w]
        values.append(m[0][1] / q**e)
    return values


def expected_curves(spec: str, max_len: int, gammas_text: str) -> str:
    directive = _directive(spec)
    tokens = [tok for tok in gammas_text.split(",") if tok]
    gammas = [Fraction(tok) for tok in tokens]
    words = [w for n in range(max_len + 1) for w in sturmian_factors(directive, n)]
    columns = [q_value_rows(words, g) for g in gammas]
    lines = ["word,gamma,value"]
    for i, w in enumerate(words):
        w01 = w.translate(str.maketrans("ab", "01"))
        lines.extend(f"{w01},{tok},{col[i]!r}" for tok, col in zip(tokens, columns))
    return "\n".join(lines) + "\n"


def expected_language(spec: str, n: int) -> str:
    head, _, rest = spec.partition(":")

    def factors(k: int) -> list[str]:
        if head == "periodic":
            return periodic_factors(_parse_word(rest), k)
        return sturmian_factors(_directive(spec), k)

    fs = factors(n)
    if len(fs) != n + 1:
        raise CheckError(f"spec {spec!r} has {len(fs)} factors of length {n}, not {n + 1}")
    rows: list[tuple[str, str]] = []
    if n >= 2:
        below = factors(n - 1)[-1]
        rows += [(below, ""), (fs[0], local_change(below, fs[0]))]
    else:
        rows.append((fs[0], ""))
    rows += [(v, local_change(u, v)) for u, v in zip(fs, fs[1:])]
    above = factors(n + 1)[0]
    rows.append((above, local_change(fs[-1], above)))
    width = max(len(w) for w, _ in rows)
    body = "".join(f"{w.ljust(width + 2)}{kind}".rstrip() + "\n" for w, kind in rows)
    return f"n: {n}\nfactors ({len(fs)}):\n{body}"


def pattern_count(directive: tuple[int, ...], radius: int) -> int:
    """Distinct patterns over the supports the pair check walks, on s and on s with (-1, 0) swapped.

    Supports are [0, w) for w = 1..radius and [-radius, radius]; a pattern is
    read at every shift whose support meets the difference set {-1, 0}.
    """
    span = 2 * radius + 2
    s = characteristic_window(directive, -span, span)
    t = s[: span - 1] + s[span] + s[span - 1] + s[span + 1 :]
    supports = [(0, width) for width in range(1, radius + 1)] + [(-radius, radius + 1)]
    total = 0
    for lo, hi in supports:
        starts = {d - off for d in (-1, 0) for off in range(lo, hi)}
        seen = {seq[span + n + lo : span + n + hi] for n in starts for seq in (s, t)}
        total += len(seen)
    return total


def expected_pair_check(spec: str, radius: int) -> str:
    count = pattern_count(_directive(spec), radius)
    return f"spec: characteristic\nradius: {radius}\npatterns checked: {count}\nindistinguishable: yes\n"


def closed_form(m: int) -> float:
    """sqrt(9 - 4/m^2), correctly rounded from an integer square root with 64 guard bits."""
    guard = 64
    return math.isqrt((9 * m * m - 4) << (2 * guard)) / (m << guard)


# --- checks -----------------------------------------------------------------


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: got {g[:120]!r}, expected {w[:120]!r}"
    return f"{len(got_lines)} lines, expected {len(want_lines)}"


def _parse_poly_at_one(text: str) -> int:
    """Value at q = 1 of a polynomial printed as 'c0 + c1*q + c2*q^2 - ...' in ascending powers."""
    if text == "0":
        return 0
    total, last = 0, -1
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, star, power = term.lstrip("-").partition("*")
        if not star and coeff.startswith("q"):
            coeff, power = "1", coeff
        if power and power != "q" and not power.startswith("q^"):
            raise CheckError(f"bad term {term!r}")
        exp = 0 if not power else 1 if power == "q" else int(power[2:])
        if exp <= last:
            raise CheckError(f"powers not ascending in {text[:80]!r}")
        last = exp
        total += sign * int(coeff)
    return total


@lru_cache(maxsize=None)
def tree_nodes(depth: int) -> list[tuple[str, str, list[int]]]:
    """(path, word, Markoff triple) of the Christoffel tree in breadth-first order.

    Left replaces (u, v) by (u, uv), Right by (uv, v); the triple of node
    (u, v) is (m(u), m(uv), m(v)) with m the Markoff number.
    """
    nodes, level = [], [("", "a", "b")]
    for _ in range(depth + 1):
        nodes += level
        level = [child for p, u, v in level for child in ((p + "L", u, u + v), (p + "R", u + v, v))]
    out = []
    for path, u, v in nodes:
        x, y, z = markoff_number(u), markoff_number(u + v), markoff_number(v)
        if x * x + y * y + z * z != 3 * x * y * z:
            raise CheckError(f"oracle triple at {path!r} fails the Markoff equation")
        out.append((path, u + v, [x, y, z]))
    return out


def check_tree_json(depth: int, stdout: str) -> list[str]:
    try:
        nodes = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"tree: stdout is not JSON ({exc})"]
    expected = tree_nodes(depth)
    if len(nodes) != len(expected):
        return [f"tree: {len(nodes)} nodes, expected {len(expected)}"]
    problems = []
    for (path, word, triple), node in zip(expected, nodes):
        try:
            if (node["path"], node["word"], node["triple"]) != (path, word, triple):
                problems.append(f"tree {path!r}: got {node['word']!r} {node['triple']}, expected {word!r} {triple}")
            elif _parse_poly_at_one(node["q_markoff"]) != triple[1]:
                problems.append(f"tree {path!r}: q_markoff at q=1 is not the Markoff number {triple[1]}")
        except (KeyError, TypeError, ValueError, CheckError) as exc:
            problems.append(f"tree {path!r}: malformed node ({exc})")
        if len(problems) >= 5:
            break
    return problems


def check_spectrum(word: str, stdout: str) -> list[str]:
    w = _parse_word(word)
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    try:
        m = int(fields["m"])
        sup, bound = float(fields["supremum"]), float(fields["error_bound"])
        closed, residual = float(fields["closed_form"]), float(fields["residual"])
        got_word = fields["word"]
    except (KeyError, ValueError) as exc:
        return [f"spectrum: malformed output ({exc})"]
    problems = []
    if got_word != w:
        problems.append("spectrum: echoed word differs from the input")
    if m != markoff_number(w):
        problems.append("spectrum: m is not the Markoff number of the word")
    if abs(closed - closed_form(m)) > 2 * math.ulp(3.0):
        problems.append(f"spectrum: closed_form {closed!r} != sqrt(9 - 4/m^2) = {closed_form(m)!r}")
    if residual != abs(sup - closed):
        problems.append(f"spectrum: residual {residual!r} != |supremum - closed_form|")
    if not residual <= bound:
        problems.append(f"spectrum: residual {residual!r} exceeds error_bound {bound!r}")
    if not sup <= 3.0:
        problems.append(f"spectrum: supremum {sup!r} exceeds 3 for a balanced word")
    return problems


@lru_cache(maxsize=None)
def _expected_text(argv: tuple[str, ...]) -> str | None:
    args = _parse_argv(argv)
    if args.command == "verify-monotone":
        return expected_verify_monotone(args.spec, args.max_n)
    if args.command == "curves":
        return expected_curves(args.spec, args.max_len, args.gammas)
    if args.command == "language" and not args.json:
        return expected_language(args.spec, args.n)
    if args.command == "pair-check":
        return expected_pair_check(args.spec, args.radius)
    return None


def check_command(argv: list[str], returncode: int, stdout: str) -> list[str]:
    """Problems found in one command's exit code and stdout; empty when correct."""
    try:
        if returncode != 0:
            return [f"exit code {returncode}, expected 0"]
        want = _expected_text(tuple(argv))
        if want is not None:
            return [] if stdout == want else [_first_difference(stdout, want)]
        args = _parse_argv(tuple(argv))
        if args.command == "tree" and args.json:
            return check_tree_json(args.depth, stdout)
        if args.command == "spectrum":
            return check_spectrum(args.word, stdout)
        raise CheckError(f"no oracle for {argv[0]!r}")
    except (CheckError, ValueError) as exc:
        return [f"cannot check: {exc}"]

"""Command-line front end.

Commands: ``skew`` (skew expressions by any method), ``cuv`` (structure
constants, single or full table), ``schubert``, ``fk`` (coproduct,
antipode, sbar, pairing, delta, nabla on parsed elements), ``canon``
(canonical forms, graded dimensions, equality), and ``verify`` (the
suites of :mod:`.verify`).

Permutations are accepted in two syntaxes.  A comma-separated list is a
word in the simple transpositions, validated as reduced unless
``--allow-nonreduced`` is passed.  A bare digit string is one-line
notation when its digits permute 1..n, and otherwise falls back to a
word one digit at a time, so ``--v 2`` is the simple transposition 2.
One-line notation needs n <= 9; larger windows must use word syntax.

Exit status: 0 on success, 1 on a domain error (bad lengths, windows,
or resource limits), 2 on a parse error.  Identical invocations print
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fkalg, fkcanon, polyring, skew, symgroup, verify
from .fkalg import FKElement, ParseError


def parse_permutation(text: str, n: int, allow_nonreduced: bool = False):
    """A permutation of window n from one-line or word syntax."""
    text = text.strip()
    if not text:
        raise ParseError("empty permutation", 0)
    if "," in text:
        parts = text.split(",")
        word = []
        for part in parts:
            part = part.strip()
            if not (part and (part.isdigit() or (part[0] == "-" and part[1:].isdigit()))):
                raise ParseError(f"bad word letter {part!r}", text.index(part) if part else 0)
            word.append(int(part))
        return _perm_from_word(tuple(word), n, allow_nonreduced)
    if not text.isdigit():
        raise ParseError(f"permutation {text!r} is neither one-line digits nor a word", 0)
    digits = tuple(int(ch) for ch in text)
    if len(digits) == n and sorted(digits) == list(range(1, n + 1)):
        return digits
    return _perm_from_word(digits, n, allow_nonreduced)


def _perm_from_word(word, n: int, allow_nonreduced: bool):
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"word letter {i} outside window {n} (need 1..{n - 1})")
    if not allow_nonreduced and not symgroup.is_reduced(word, n):
        raise ValueError(
            f"word {','.join(map(str, word))} is not reduced;"
            f" pass --allow-nonreduced to fold it anyway"
        )
    return symgroup.from_word(word, n)


def _format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command tree; :func:`main` builds one per
    process.  Handlers are bound by ``func`` and look up the library at
    call time."""
    parser = argparse.ArgumentParser(
        prog="skewdd",
        description="skew divided differences and the quadratic braided algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("skew", help="a skew expression by any of the four methods")
    p.add_argument("--n", type=int, required=True, help="window size")
    p.add_argument("--w", required=True, help="upper permutation")
    p.add_argument("--v", required=True, help="lower permutation")
    p.add_argument("--method", choices=skew.METHODS, default="explicit",
                   help="computation route (default: explicit)")
    p.add_argument("--allow-nonreduced", action="store_true",
                   help="fold non-reduced words instead of rejecting them")
    _format_flag(p)
    p.set_defaults(func=_cmd_skew)

    p = sub.add_parser("cuv", help="structure constants of Schubert products")
    p.add_argument("--n", type=int, required=True, help="window size")
    p.add_argument("--u", help="first factor")
    p.add_argument("--v", help="second factor")
    p.add_argument("--w", help="target")
    p.add_argument("--table", action="store_true",
                   help="print every nonzero constant at this window")
    p.add_argument("--allow-nonreduced", action="store_true",
                   help="fold non-reduced words instead of rejecting them")
    _format_flag(p)
    p.set_defaults(func=_cmd_cuv)

    p = sub.add_parser("schubert", help="a Schubert polynomial")
    p.add_argument("--w", required=True, help="permutation")
    p.add_argument("--n", type=int, default=None,
                   help="window size (default: smallest window holding w)")
    p.add_argument("--allow-nonreduced", action="store_true",
                   help="fold non-reduced words instead of rejecting them")
    _format_flag(p)
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("fk", help="operations on elements of the braided algebra")
    fksub = p.add_subparsers(dest="operation", required=True)
    for name, nargs, helptext in (
        ("coproduct", 1, "braided coproduct of an element"),
        ("antipode", 1, "braided antipode of an element"),
        ("sbar", 1, "conjugate antipode of an element"),
        ("pairing", 2, "dual pairing of two elements"),
        ("delta", 2, "left extraction: delta P A"),
        ("nabla", 2, "right deletion: nabla A P"),
    ):
        q = fksub.add_parser(name, help=helptext)
        q.add_argument("expr", nargs=nargs, help="element expression, e.g. 'x(1,2)x(2,3)'")
        q.add_argument("--n", type=int, default=4, help="window size (default: 4)")
        _format_flag(q)
        q.set_defaults(func=_cmd_fk)

    p = sub.add_parser("canon", help="canonical forms in the quadratic quotient")
    p.add_argument("expr", nargs="?", default=None, help="element expression to reduce")
    p.add_argument("--n", type=int, required=True, help="window size")
    p.add_argument("--dim", type=int, default=None, metavar="D",
                   help="print the graded dimension at degree D")
    p.add_argument("--equal", nargs=2, metavar=("A", "B"), default=None,
                   help="test equality of two expressions modulo the relations")
    p.add_argument("--max-degree", type=int, default=None,
                   help="override the canonical-form degree cap"
                        f" (default: {fkcanon.DEFAULT_MAX_DEGREE})")
    p.add_argument("--limit-n", type=int, default=None,
                   help="override the canonical-form window cap"
                        f" (default: {fkcanon.DEFAULT_MAX_WINDOW})")
    _format_flag(p)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=verify.SUITES, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="window size (default: suite-specific)")
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (default: suite-specific)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized suites (default: suite-specific, 0)")
    p.add_argument("--max-degree", type=int, default=None,
                   help="degree bound of the leibniz, hopf and canon suites"
                        " (default: suite-specific)")
    _format_flag(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def _cmd_skew(args) -> tuple[int, str, object]:
    w = parse_permutation(args.w, args.n, args.allow_nonreduced)
    v = parse_permutation(args.v, args.n, args.allow_nonreduced)
    result = skew.compute_skew(w, v, args.method)
    return 0, str(result), result.to_json_dict()


def _cmd_cuv(args) -> tuple[int, str, object]:
    if args.table:
        rows = skew.structure_constant_table(args.n)
        lines = [
            f"{symgroup.perm_to_oneline(u)} {symgroup.perm_to_oneline(v)}"
            f" {symgroup.perm_to_oneline(w)} {c}"
            for u, v, w, c in rows
        ]
        payload = {
            "n": args.n,
            "triples": [
                {
                    "u": symgroup.perm_to_oneline(u),
                    "v": symgroup.perm_to_oneline(v),
                    "w": symgroup.perm_to_oneline(w),
                    "c": c,
                }
                for u, v, w, c in rows
            ],
        }
        return 0, "\n".join(lines), payload
    missing = [name for name in ("u", "v", "w") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"cuv needs --{', --'.join(missing)} (or --table)")
    u = parse_permutation(args.u, args.n, args.allow_nonreduced)
    v = parse_permutation(args.v, args.n, args.allow_nonreduced)
    w = parse_permutation(args.w, args.n, args.allow_nonreduced)
    c = skew.structure_constant(u, v, w)
    return 0, str(c), {"value": c}


def _cmd_schubert(args) -> tuple[int, str, object]:
    if args.n is not None:
        w = parse_permutation(args.w, args.n, args.allow_nonreduced)
        poly = polyring.schubert(w, args.n)
    elif "," in args.w or not args.w.isdigit():
        raise ValueError("word syntax needs an explicit --n")
    else:
        w = parse_permutation(args.w, len(args.w), args.allow_nonreduced)
        poly = polyring.schubert(w)
    return 0, str(poly), poly.to_json_dict()


def _cmd_fk(args) -> tuple[int, str, object]:
    exprs = [FKElement.parse(e, args.n) for e in args.expr]
    op = args.operation
    if op == "coproduct":
        t = fkalg.coproduct(exprs[0])
        return 0, str(t), t.to_json_dict()
    if op == "antipode":
        e = fkalg.antipode(exprs[0])
    elif op == "sbar":
        e = fkalg.sbar(exprs[0])
    elif op == "pairing":
        val = fkalg.pairing(exprs[0], exprs[1])
        return 0, str(val), {"value": val}
    elif op == "delta":
        e = fkalg.delta_op(exprs[0], exprs[1])
    else:
        e = fkalg.nabla_op(exprs[0], exprs[1])
    return 0, str(e), e.to_json_dict()


def _cmd_canon(args) -> tuple[int, str, object]:
    limits = {"max_window": args.limit_n, "max_degree": args.max_degree}
    if args.dim is not None:
        val = fkcanon.graded_dimension(args.n, args.dim, **limits)
        return 0, str(val), {"n": args.n, "d": args.dim, "dim": val}
    if args.equal is not None:
        a = FKElement.parse(args.equal[0], args.n)
        b = FKElement.parse(args.equal[1], args.n)
        eq = fkcanon.fk_equal(a, b, **limits)
        return 0, ("true" if eq else "false"), {"equal": eq}
    if args.expr is None:
        raise ValueError("canon needs an expression, --dim, or --equal")
    e = fkcanon.canonical_form(FKElement.parse(args.expr, args.n), **limits)
    return 0, str(e), e.to_json_dict()


def _cmd_verify(args) -> tuple[int, str, object]:
    checks = verify.run_suite(
        args.suite,
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        max_degree=args.max_degree,
    )
    failed = sum(not c.passed for c in checks)
    lines = [c.line() for c in checks]
    lines.append(
        f"suite {args.suite}: {len(checks) - failed}/{len(checks)} checks passed"
    )
    payload = {
        "suite": args.suite,
        "passed": failed == 0,
        "checks": [
            {"name": c.name, "passed": c.passed, "details": c.details,
             "instances": c.instances, "failures": c.failures}
            for c in checks
        ],
    }
    return (1 if failed else 0), "\n".join(lines), payload


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # parse_args fills a fresh namespace on every call, so one parser
    # serves every call in the process
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code, text, payload = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

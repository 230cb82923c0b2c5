"""Inputs, ops and output checks of the three benchmark workloads.

An op is one call (or one fixed group of calls) into the library.  Each op
has a key naming its input, which indexes the digest reference, a kind, and
a zero-argument callable.  Ops look library functions up as module
attributes when they run, so the tracer's wrappers see every call.

Inputs come only from the seed: every worker of a run replays the same op
list.  The library receives nothing but the generated permutations, words,
elements and argv lists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from typing import Callable

from tracer import ROUTES

WORKLOADS = ("verify-all", "s5-sweep", "queries")

# verify-all draws its suite seed from this pool, so every op it can run has
# a recorded digest.
VERIFY_SEEDS = tuple(range(6))

# The queries pool and each kind's popularity ranking are fixed (drawn once
# from POOL_SEED), so every query has a recorded digest and every run sees
# the same popularity profile; the run seed draws the stream.  No usage
# record of the package exists to weight the kinds by, so the mix follows a
# neutral rule: each kind gets the same share of the stream and the same
# pool size, and within a kind popularity follows Zipf's law with the
# classic exponent 1.  Then 71.5% to 73.5% of a stream's queries repeat an
# earlier one (seeds 1 to 40); repeat_share reports each run's share.
POOL_SEED = 20140926
KINDS = ("cuv", "schubert", "skew", "fk", "canon", "cli")
POOL_PER_KIND = 480
ZIPF_S = 1.0
PER_KIND = 800  # queries of each kind per worker; every worker starts with cold memo caches

# Window-4 tables through this degree are built in queries set-up, as a
# long-lived session builds them once.
CANON_DEGREE = 6


@dataclass
class Op:
    key: str
    kind: str
    call: Callable[[], object]


# ---------------------------------------------------------------------------
# permutations, independent of the library


def perms(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, n + 1)))


def length(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def bruhat_leq(v, w) -> bool:
    """Tableau criterion: every sorted prefix of v is dominated by w's."""
    for k in range(1, len(w)):
        if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
            return False
    return True


def oneline(w) -> str:
    return "".join(map(str, w))


def comparable_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (v, w) with v <= w in S_n, sorted."""
    ps = perms(n)
    return [(v, w) for w in ps for v in ps if length(v) <= length(w) and bruhat_leq(v, w)]


def _random_word(rng: random.Random, n: int, degree: int):
    letters = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    out = []
    for _ in range(degree):
        out.append(rng.choice([g for g in letters if not out or g != out[-1]]))
    return tuple(out)


def _word_text(word) -> str:
    return "".join(f"x({a},{b})" for a, b in word) or "1"


def _terms_text(terms: dict) -> str:
    return "+".join(f"{c}*{_word_text(w)}" for w, c in sorted(terms.items()))


def _short(text: str) -> str:
    """A fixed-width name for a long input description."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verify-all


def verify_text(checks) -> str:
    return "\n".join(c.line() for c in checks)


def verify_ops(lib, k: int, traced: bool) -> list[Op]:
    verify, fkcanon = lib["verify"], lib["fkcanon"]

    def op():
        fkcanon.clear_cache()
        return verify.run_suite("all", seed=k)

    def op_traced():
        # run_suite reaches the suites through a private table the tracer does
        # not patch; calling the public runners directly does the same work
        # and gives each suite its own span.
        fkcanon.clear_cache()
        out = []
        for name in verify.SUITES[:-1]:
            for c in getattr(verify, f"run_{name}")(seed=k):
                out.append(verify.Check(f"{name}: {c.name}", c.passed, c.details))
        return out

    return [Op(f"k{k}", "verify", op_traced if traced else op)]


def verify_check(op: Op, checks) -> str | None:
    if not checks:
        return "no checks ran"
    bad = [c.name for c in checks if not c.passed]
    return f"failed checks: {bad}" if bad else None


# ---------------------------------------------------------------------------
# s5-sweep

def sweep_ops(lib, seed: int) -> list[Op]:
    pairs = comparable_pairs(5)
    random.Random(seed).shuffle(pairs)
    skew = lib["skew"]

    def make(v, w):
        def op():
            return tuple(getattr(skew, r)(w, v) for r in ROUTES)
        return op

    return [Op(f"{oneline(v)}/{oneline(w)}", "skew4", make(v, w)) for v, w in pairs]


def sweep_check(op: Op, result) -> str | None:
    v, w = (tuple(map(int, s)) for s in op.key.split("/"))
    explicit, _signed, _pairing, recurrence = result
    drop = length(w) - length(v)
    if not explicit.terms:
        return "explicit result is zero"
    if any(c <= 0 for c in explicit.terms.values()):
        return "explicit result has a non-positive coefficient"
    if any(len(word) != drop for word in explicit.terms):
        return f"explicit result is not homogeneous of degree {drop}"
    if explicit.terms != recurrence.terms:
        return "explicit and recurrence results differ"
    return None


def tuple_text(result) -> str:
    return "\n".join(str(r) for r in result)


# ---------------------------------------------------------------------------
# queries


def query_pool(lib) -> dict[str, list[tuple[str, Callable[[], object]]]]:
    """Every query the stream can issue, per kind, as (key, callable)."""
    rng = random.Random(POOL_SEED)
    skew, polyring, fkalg, fkcanon, cli = (
        lib[m] for m in ("skew", "polyring", "fkalg", "fkcanon", "cli"))
    FKElement = fkalg.FKElement
    p5 = perms(5)
    by_len5: dict[int, list] = {}
    for p in p5:
        by_len5.setdefault(length(p), []).append(p)
    pairs5 = comparable_pairs(5)
    pairs4 = comparable_pairs(4)
    p4 = perms(4)
    pool: dict[str, list] = {}

    cuv = []
    while len(cuv) < POOL_PER_KIND:
        v, w = pairs5[rng.randrange(len(pairs5))]
        us = by_len5[length(w) - length(v)]
        u = us[rng.randrange(len(us))]
        cuv.append((f"cuv:{oneline(u)}.{oneline(v)}.{oneline(w)}",
                    lambda u=u, v=v, w=w: skew.structure_constant(u, v, w)))
    pool["cuv"] = cuv

    p6 = perms(6)
    pool["schubert"] = [
        (f"schubert:{oneline(w)}", lambda w=w: polyring.schubert(w))
        for w in rng.sample(p6, POOL_PER_KIND)
    ]

    sk = []
    for _ in range(POOL_PER_KIND):
        v, w = pairs5[rng.randrange(len(pairs5))]
        route = rng.choice(ROUTES)
        sk.append((f"skew:{route}:{oneline(v)}/{oneline(w)}",
                   lambda v=v, w=w, route=route: getattr(skew, route)(w, v)))
    pool["skew"] = sk

    fk = []
    for _ in range(POOL_PER_KIND):
        what = rng.choice(("coproduct", "sbar", "pairing", "delta_op", "nabla_op"))
        word = _random_word(rng, 5, rng.randint(3, 6))
        a = FKElement(5, {word: 1})
        key = f"fk:{what}:{_word_text(word)}"
        if what == "coproduct":
            call = lambda a=a: fkalg.coproduct(a)
        elif what == "sbar":
            call = lambda a=a: fkalg.sbar(a)
        elif what == "pairing":
            other = tuple(word[i] for i in rng.sample(range(len(word)), len(word)))
            b = FKElement(5, {other: 1})
            key += f"|{_word_text(other)}"
            call = lambda a=a, b=b: fkalg.pairing(a, b)
        else:
            pword = _random_word(rng, 5, rng.randint(1, 2))
            p = FKElement(5, {pword: 1})
            key += f"|{_word_text(pword)}"
            if what == "delta_op":
                call = lambda a=a, p=p: fkalg.delta_op(p, a)
            else:
                call = lambda a=a, p=p: fkalg.nabla_op(a, p)
        fk.append((key, call))
    pool["fk"] = fk

    canon = []
    for _ in range(POOL_PER_KIND):
        terms = {}
        for _ in range(3):
            terms[_random_word(rng, 4, rng.randint(2, CANON_DEGREE))] = rng.choice((-2, -1, 1, 2, 3))
        a = FKElement(4, terms)
        if rng.random() < 0.5:
            canon.append((f"canon:form:{_short(_terms_text(terms))}",
                          lambda a=a: fkcanon.canonical_form(a)))
        else:
            bterms = {_commute_once(rng, w): c for w, c in terms.items()}
            if rng.random() < 0.5:
                extra = _random_word(rng, 4, rng.randint(2, CANON_DEGREE))
                bterms[extra] = bterms.get(extra, 0) + 1
            b = FKElement(4, bterms)
            canon.append((f"canon:equal:{_short(_terms_text(terms) + '|' + _terms_text(bterms))}",
                          lambda a=a, b=b: fkcanon.fk_equal(a, b)))
    pool["canon"] = canon

    argvs = []
    for _ in range(POOL_PER_KIND):
        what = rng.choice(("skew", "cuv", "schubert", "fk", "canon"))
        if what == "skew":
            v, w = rng.choice(pairs4)
            argv = ["skew", "--n", "4", "--w", oneline(w), "--v", oneline(v),
                    "--method", rng.choice(("explicit", "signed", "pairing", "recurrence"))]
        elif what == "cuv":
            v, w = rng.choice(pairs4)
            u = rng.choice([p for p in p4 if length(p) == length(w) - length(v)])
            argv = ["cuv", "--n", "4", "--u", oneline(u), "--v", oneline(v), "--w", oneline(w)]
        elif what == "schubert":
            argv = ["schubert", "--w", oneline(rng.choice(perms(5)))]
        elif what == "fk":
            word = _random_word(rng, 4, rng.randint(2, 4))
            argv = ["fk", rng.choice(("coproduct", "sbar", "antipode")), _word_text(word), "--n", "4"]
        else:
            argv = ["canon", "--n", "4", "--dim", str(rng.randint(0, CANON_DEGREE))]
        if rng.random() < 0.3:
            argv += ["--format", "json"]
        argvs.append(argv)
    pool["cli"] = [(f"cli:{' '.join(a)}", lambda a=a: _run_cli(cli, a)) for a in argvs]
    return pool


def _commute_once(rng: random.Random, word):
    """The word with one adjacent pair of disjoint letters swapped, which is
    the same element modulo the relations; the word itself if none is."""
    spots = [i for i in range(len(word) - 1) if not set(word[i]) & set(word[i + 1])]
    if not spots:
        return word
    i = rng.choice(spots)
    return word[:i] + (word[i + 1], word[i]) + word[i + 2:]


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def query_stream(seed: int) -> list[tuple[str, int]]:
    """(kind, pool index) for each query of the stream: PER_KIND queries
    of each kind in a seeded order, each a Zipf(ZIPF_S) draw over a fixed
    ranking of its kind's pool.  Fixing the count of each kind keeps the
    cost of a stream from moving with how many cli calls a seed draws."""
    rng = random.Random(seed)
    ranking = {}
    rank_rng = random.Random(POOL_SEED)
    for kind in KINDS:
        order = list(range(POOL_PER_KIND))
        rank_rng.shuffle(order)
        ranking[kind] = order
    zipf = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(POOL_PER_KIND)))
    kinds = [kind for kind in KINDS for _ in range(PER_KIND)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        r = rng.choices(range(POOL_PER_KIND), cum_weights=zipf)[0]
        out.append((kind, ranking[kind][r]))
    return out


def repeat_share(stream) -> float:
    seen = set()
    repeats = 0
    for item in stream:
        repeats += item in seen
        seen.add(item)
    return repeats / len(stream)


def queries_setup(lib) -> None:
    for d in range(CANON_DEGREE + 1):
        lib["fkcanon"].graded_dimension(4, d)


def queries_ops(lib, seed: int) -> list[Op]:
    pool = query_pool(lib)
    return [Op(pool[kind][i][0], kind, pool[kind][i][1]) for kind, i in query_stream(seed)]


def cuv_triple(key: str):
    """(u, v, w) of a cuv query's key."""
    return tuple(tuple(map(int, s)) for s in key.split(":")[1].split("."))


def oracle_values(lib, ops: list[Op]) -> dict[str, int]:
    """structure_constant_oracle for every cuv op, for the reference.  Only
    record.py calls this: a run compares with the recorded values, so no
    untimed library call warms a memo inside a measured process."""
    oracle = lib["skew"].structure_constant_oracle
    return {op.key: oracle(*cuv_triple(op.key)) for op in ops if op.kind == "cuv"}


def queries_check(op: Op, result, oracle: dict[str, int]) -> str | None:
    if op.kind == "cuv":
        want = oracle.get(op.key)
        if want is None:
            return "no recorded oracle value"
        if result != want:
            return f"structure constant {result} != oracle {want}"
    elif op.kind == "cli" and result[0] != 0:
        return f"exit code {result[0]}"
    return None


def query_text(op: Op, result) -> str:
    if op.kind == "cli":
        return f"{result[0]}\n{result[1]}"
    if op.kind == "canon" and isinstance(result, bool):
        return "true" if result else "false"
    return str(result)


# ---------------------------------------------------------------------------


def make_ops(workload: str, lib, seed: int, traced: bool) -> list[Op]:
    """Set up the workload and return its op list for this seed."""
    if workload == "verify-all":
        k = VERIFY_SEEDS[random.Random(seed).randrange(len(VERIFY_SEEDS))]
        return verify_ops(lib, k, traced)
    if workload == "s5-sweep":
        return sweep_ops(lib, seed)
    queries_setup(lib)
    return queries_ops(lib, seed)


def all_ops(workload: str, lib) -> list[Op]:
    """Every op a run of the workload can issue, for recording the reference."""
    if workload == "verify-all":
        return [op for k in VERIFY_SEEDS for op in verify_ops(lib, k, False)]
    if workload == "s5-sweep":
        return sweep_ops(lib, 0)
    queries_setup(lib)
    return [Op(key, kind, call) for kind, items in query_pool(lib).items() for key, call in items]


def render(workload: str, op: Op, result) -> str:
    """The op's printed result, which the digest reference covers."""
    if workload == "verify-all":
        return verify_text(result)
    if workload == "s5-sweep":
        return tuple_text(result)
    return query_text(op, result)


def check(workload: str, op: Op, result, oracle: dict[str, int]) -> str | None:
    """Structural check of one op's result; None when it holds.  ``oracle``
    holds the recorded structure_constant_oracle values of the cuv queries."""
    if workload == "verify-all":
        return verify_check(op, result)
    if workload == "s5-sweep":
        return sweep_check(op, result)
    return queries_check(op, result, oracle)

"""One benchmark worker: a fresh interpreter that sets up one workload and
runs its ops in a closed loop with one caller.

``run.py`` starts workers; this file is not meant to be run by hand.  The
worker prints one JSON object on its last stdout line.

Modes:

- ``fixed``: run the whole op list, untraced.
- ``pair``: set up, report ready, and wait; on ``go`` (a line on stdin)
  run the whole op list, timing each op in this process's CPU time, and
  report the latencies.  run.py starts two such workers, one per program,
  on one CPU and sends both ``go`` at once (see run.py).  The worker writes
  its two JSON lines to the original stdout; ``sys.stdout`` is pointed at
  stderr, so nothing the library prints can break the exchange.  Any other
  line, or the end of stdin, ends the worker after set-up.
- ``traced``: the whole op list with the tracer installed; spans go to
  ``--spans``.
- ``probes``: cold elimination builds, one (window, degree) at a time.

``--program`` picks the package the worker imports: ``current`` is the
checkout's ``src/skewdd``, the program under test; ``baseline`` is the
frozen copy in ``bench/baseline/skewdd`` that the end-to-end ratios divide
by.

Only op calls are timed.  Rendering, digests and structural checks run
between timed intervals, with the tracer paused.  The digest reference is
read after set-up time is taken (in ``pair`` mode, after ``go``; otherwise
after the first op).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"  # output digests, written by record.py
ORACLE_KEY = "queries-oracle"  # reference.json's table of cuv oracle values

# (window, degree) of each cold build probe, and the window caps they need
PROBES = [(3, d) for d in (2, 3, 4)] + [(4, d) for d in range(2, 7)] + [(5, d) for d in (2, 3, 4)]
PROBE_LIMITS = {"max_window": 5, "max_degree": 6}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# where each --program imports skewdd from
PROGRAMS = {"current": ROOT / "src", "baseline": HERE / "baseline"}


def load_library(program: str = "current"):
    """Import the package from the program's directory and nowhere else."""
    src = PROGRAMS[program]
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import skewdd.cli  # noqa: F401  (imports every module of the package)
    import_s = time.perf_counter() - t
    import skewdd
    if Path(skewdd.__file__).resolve().parent != (src / "skewdd").resolve():
        raise SystemExit(f"skewdd imported from {skewdd.__file__}, not from {src}")
    lib = {name: importlib.import_module(f"skewdd.{name}") for name in LAYERS}
    return lib, import_s


def hilbert_dims(n: int, top: int) -> list[int]:
    """Graded dimensions of the quotient algebra through degree ``top``:
    [2]^2[3] for window 3, [2]^2[3]^2[4]^2 for window 4 and
    [4]^4[5]^2[6]^4 for window 5, where [k] = 1 + t + ... + t^(k-1)."""
    factors = {3: (2, 2, 3), 4: (2, 2, 3, 3, 4, 4), 5: (4,) * 4 + (5,) * 2 + (6,) * 4}[n]
    poly = [1]
    for k in factors:
        nxt = [0] * (len(poly) + k - 1)
        for i, c in enumerate(poly):
            for j in range(k):
                nxt[i + j] += c
        poly = nxt
    return (poly + [0] * (top + 1))[: top + 1]


def run_probes(lib) -> dict:
    fkcanon = lib["fkcanon"]
    out, failures = {}, []
    for n, d in PROBES:
        fkcanon.clear_cache()
        t = time.perf_counter()
        dim = fkcanon.graded_dimension(n, d, **PROBE_LIMITS)
        build_s = time.perf_counter() - t
        rank = fkcanon.ideal_rank(n, d, **PROBE_LIMITS)
        columns = len(fkcanon.clean_words(n, d))
        letters = n * (n - 1) // 2
        if dim != hilbert_dims(n, d)[d] or rank != columns - dim or columns != letters * (letters - 1) ** (d - 1):
            failures.append(f"n{n}d{d}: dim {dim}, rank {rank}, columns {columns}")
        out[f"n{n}d{d}"] = {"build_s": build_s, "rank": rank, "columns": columns}
    fkcanon.clear_cache()
    return {"probes": out, "attempted": len(PROBES), "failed": len(failures), "failures": failures}


def load_reference(workload: str) -> tuple[dict[str, str], dict[str, int]]:
    """The workload's recorded output digests, and the recorded oracle
    values of the cuv queries."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref.get(workload, {}), ref.get(ORACLE_KEY, {})


def timed(op, tracer=None, clock=time.perf_counter):
    """Call one op; return its latency in ms by ``clock``, its result, its
    error and when it started."""
    if tracer is not None:
        tracer.active = True
    t0 = clock()
    try:
        result = op.call()
        error = None
    except Exception as exc:  # an op that raises counts as failed; keep going
        result, error = None, f"{type(exc).__name__}: {exc}"
    t1 = clock()
    if tracer is not None:
        tracer.active = False
    return (t1 - t0) * 1000.0, result, error, t0


def outcome(workload: str, op, result, error, oracle) -> tuple[str, str | None, str | None]:
    """(key, output digest, why it failed): checks run outside timing."""
    got = None
    if error is None:
        try:
            error = workloads.check(workload, op, result, oracle)
            if error is None:
                got = digest(workloads.render(workload, op, result))
        except Exception as exc:  # a check that raises is a failed op too
            error = f"check raised {type(exc).__name__}: {exc}"
    return op.key, got, error


def run_ops(workload: str, ops, tracer) -> dict:
    """Run ops in a closed loop; return latencies and failures.  Only
    ``op.call()`` is timed."""
    lat, kinds, outcomes = [], [], []
    first = None
    digests = oracle = None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        ms, result, error, t0 = timed(op, tracer)
        if first is None:
            first = t0
        lat.append(ms)
        kinds.append(op.kind)
        if digests is None:
            digests, oracle = load_reference(workload)
        outcomes.append(outcome(workload, op, result, error, oracle))
    failures = compare_reference(outcomes, digests or {})
    return {"first": first, "op_s": sum(lat) / 1000.0, "lat_ms": lat, "kinds": kinds,
            "attempted": len(outcomes), "failed": len(failures), "failures": failures[:20]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pair(workload: str, ops, setup_s: float, import_s: float) -> None:
    """Report ready, wait for ``go``, run the ops timed in CPU time, report
    (see the module docstring)."""
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def send(msg) -> None:
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    send({"ready": True, "setup_s": setup_s})
    if sys.stdin.readline().strip() != "go":
        return
    digests, oracle = load_reference(workload)
    lat, outcomes = [], []
    for op in ops:
        ms, result, error, _ = timed(op, clock=time.process_time)
        lat.append(ms)
        outcomes.append(outcome(workload, op, result, error, oracle))
    failures = compare_reference(outcomes, digests)
    summary = {"lat_ms": lat, "attempted": len(outcomes), "failed": len(failures),
               "failures": failures[:20], "setup_s": setup_s, "import_s": import_s,
               "rss_mb": peak_rss_mb()}
    if workload == "queries":
        summary["repeat_share"] = workloads.repeat_share([op.key for op in ops])
    send(summary)


def compare_reference(outcomes, reference: dict) -> list[str]:
    """Failures: ops that failed outright, and ops whose output digest is
    not the recorded one."""
    failures = []
    for key, got, error in outcomes:
        if error is None and reference.get(key) != got:
            error = f"digest {got} != reference {reference.get(key)}"
        if error is not None:
            failures.append(f"{key}: {error}")
    return failures


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("fixed", "pair", "traced", "probes"), required=True)
    ap.add_argument("--program", choices=tuple(PROGRAMS), default="current")
    ap.add_argument("--t0", type=float, required=True, help="perf_counter when the worker was started")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    lib, import_s = load_library(args.program)
    if args.mode == "probes":
        out = run_probes(lib)
    elif args.mode == "pair":
        ops = workloads.make_ops(args.workload, lib, args.seed, traced=False)
        pair(args.workload, ops, time.perf_counter() - args.t0, import_s)
        return
    else:
        tracer = None
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install(lib)
        ops = workloads.make_ops(args.workload, lib, args.seed, traced=tracer is not None)
        out = run_ops(args.workload, ops, tracer)
        out["setup_s"] = out.pop("first") - args.t0
        if args.workload == "queries":
            out["repeat_share"] = workloads.repeat_share([op.key for op in ops])
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.stats()
            if args.spans:
                tracer.write_spans(args.spans)
    out["import_s"] = import_s
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

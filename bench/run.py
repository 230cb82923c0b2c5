"""Benchmark runner for skewdd: one workload, one seed, one run.

    python3 bench/run.py --workload {verify-all,s5-sweep,queries} \\
        --seed N --seconds S --trace {0,1} [--out DIR]

The seed fixes one op list.  Each worker (see worker.py) is a fresh
interpreter that sets up (import, inputs, and for queries the window-4
tables), then replays the whole op list as a closed loop with one caller
and one thread.  Memo caches live as long as their worker, as they would
in a user's process.

The machine this was built on shares its CPU with other tenants: the pace
of each of its CPUs moves by 10% to 20% from one few-second stretch to the
next, and by a third for minutes at a time, so a time taken in one run
says as much about the hour as about the program.  The untraced run
therefore times two programs together: the checkout's ``src/skewdd``
(current) and a frozen copy of the package as it stood when the benchmark
was written (``bench/baseline``, the baseline).  A *pair* is two workers,
one per program, pinned to the same CPU.  The current worker sets up
while nothing else runs, then the baseline worker; then both run their op
lists at once, and the kernel shares the one CPU between them in slices
of a few milliseconds.  Each worker times its ops in its own CPU time, so
neither counts the other's slices, and both meet the same stretches of
that CPU's pace.  The end-to-end time metrics are ratios, current over
baseline: 1.0 means as fast as the baseline program, 0.8 means 20% less
CPU time.  Pairs alternate between the CPUs the run may use.

A run makes k pairs, one after another, k fixed by ``--seconds`` and the
workload alone (``repeats``), never by how fast the code under test is.
At each op position a program's latency is the median over its k workers
(the median of k repeats); the ratios compare the two programs' sums,
medians and 99th percentiles over positions.  ``setup_s`` is the median
over at least SETUP_SAMPLES set-ups of the current program, each in wall
time from interpreter start to ready, while no other worker computes.  The
plain times of both programs go to the run record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the
traced run: the op list once with the tracer installed, once without (the
difference is the tracing overhead), then the cold elimination-build
probes; it reports the per-layer metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (machine,
commit, per-worker figures) goes to ``DIR/<workload>-seed<N>-trace<T>.json``;
a traced run also writes ``...-spans.jsonl`` and ``...-layers.txt`` there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import ROUTES
from worker import PROBES, REFERENCE
from workloads import KINDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170.0

# Wall seconds of one pair (two set-ups and both op lists sharing a CPU),
# per workload, as measured on the machine the benchmark was built on
# (2-core Xeon, Python 3.11).  Only the number of pairs comes from it: see
# repeats().  One pair's ratios already repeat to within about 1% there.
PAIR_S = {"verify-all": 25.0, "s5-sweep": 12.0, "queries": 20.0}
# set-ups of the current program a run times at least, for setup_s
SETUP_SAMPLES = 3
PROGRAMS = ("baseline", "current")

# the functions whose .calls and .self_s the per-layer metrics name
FUNCS = {
    "symgroup": ("bruhat_leq", "reduced_subwords", "compose", "length", "embed"),
    "fkcanon": ("canonical_form", "fk_equal", "graded_dimension"),
    "fkalg": ("FKElement.__mul__", "FKElement.__add__", "delta_op", "pairing",
              "pairing_bruhat", "coproduct", "sn_degree"),
    "polyring": ("divided_difference", "act", "schubert", "Poly.__mul__", "skew_direct_apply"),
    "skew": ROUTES + ("represent", "structure_constant"),
    "cli": ("main", "build_parser"),
}
VERIFY_RUNNERS = ("run_leibniz", "run_hopf", "run_positivity", "run_agreement", "run_canon")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        try:
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                    text=True, env=env, timeout=30).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, env=env, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "cpu": cpu,
        "commit": commit,
        "dirty": dirty,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Runner:
    """Starts workers and keeps to the run's deadline: a timer kills every
    worker still running when the run's time is up."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.live: set[subprocess.Popen] = set()
        self.timer = threading.Timer(RUN_TIMEOUT_S, self.kill_all)
        self.timer.daemon = True
        self.timer.start()

    def left(self) -> float:
        left = RUN_TIMEOUT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise RuntimeError("run took longer than its time limit")
        return left

    def command(self, mode: str, program: str = "current") -> list[str]:
        return [sys.executable, "-s", str(HERE / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--mode", mode, "--program", program]

    @staticmethod
    def env() -> dict:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONHASHSEED"] = "0"
        return env

    def worker(self, mode: str, spans: Path | None = None) -> dict:
        """Run one worker to its end; return its JSON line."""
        cmd = self.command(mode)
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env=self.env(), cwd=str(ROOT), timeout=self.left())
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
        return json.loads(lines[-1])

    def start(self, program: str) -> tuple[subprocess.Popen, dict]:
        """Start a pair worker and wait until it is set up."""
        self.left()
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.command("pair", program) + ["--t0", repr(t0)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                env=self.env(), cwd=str(ROOT))
        self.live.add(proc)
        return proc, self.read(proc)

    @staticmethod
    def read(proc: subprocess.Popen) -> dict:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"pair worker ended early (exit {proc.wait()})")
        return json.loads(line)

    def finish(self, proc: subprocess.Popen, summary: dict | None = None) -> dict | None:
        """Close a pair worker's stdin, which ends it after set-up if it was
        not told to go, and wait for it to exit; return ``summary``."""
        proc.stdin.close()
        code = proc.wait(timeout=self.left())
        proc.stdout.close()
        self.live.discard(proc)
        if code != 0:
            raise RuntimeError(f"pair worker exited with {code}")
        return summary

    def kill_all(self) -> None:
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()

    def close(self) -> None:
        """Stop the timer; kill and reap any worker still running."""
        self.timer.cancel()
        self.kill_all()
        for proc in list(self.live):
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass
        self.live.clear()


def corun(runner: Runner, cpu: int) -> dict[str, dict]:
    """One pair on one CPU: set up the current worker, then the baseline
    worker, then let both run their op lists at once.  Returns per program
    the worker's summary, with its latencies in CPU ms."""
    os.sched_setaffinity(0, {cpu})  # the workers inherit it
    procs = {program: runner.start(program)[0] for program in ("current", "baseline")}
    for proc in procs.values():
        proc.stdin.write("go\n")
        proc.stdin.flush()
    return {program: runner.finish(proc, runner.read(proc)) for program, proc in procs.items()}


def repeats(workload: str, seconds: float) -> int:
    """Pairs a run makes: as many as fit in ``seconds`` at the built-on
    machine's pace, at least one.  The count depends on nothing measured,
    so the medians below are taken over as many repeats for a parent as
    for a change."""
    return max(1, int(seconds // PAIR_S[workload]))


def median_of_replays(runs: list[list[float]]) -> list[float]:
    """Per op position, the median latency over the runs.  Every worker
    replays the same op list from the same fresh state, so the k latencies
    at one position are k repeats of one operation.  The median, not the
    minimum: the machine has fast stretches as well as slow ones, and the
    minimum of a few repeats mostly tells whether one program caught a
    fast stretch that the other missed."""
    return [statistics.median(lat) for lat in zip(*runs)]


def pace(lat: list[float]) -> dict[str, float]:
    """A program's plain figures over op positions, from latencies in ms."""
    return {"pass_s": sum(lat) / 1000.0, "ops_per_s": len(lat) / (sum(lat) / 1000.0),
            "op_p50_ms": statistics.median(lat), "op_p99_ms": percentile(lat, 99)}


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    k = repeats(runner.args.workload, seconds)
    cpus = sorted(os.sched_getaffinity(0))
    pairs = [corun(runner, cpus[j % len(cpus)]) for j in range(k)]
    cur = [p["current"] for p in pairs]
    setups = [w["setup_s"] for w in cur]
    while len(setups) < SETUP_SAMPLES:  # a worker that sets up and ends
        proc, ready = runner.start("current")
        runner.finish(proc)
        setups.append(ready["setup_s"])
    plain = {program: pace(median_of_replays([p[program]["lat_ms"] for p in pairs]))
             for program in PROGRAMS}
    ratio = {key: plain["current"][key] / plain["baseline"][key]
             for key in ("pass_s", "op_p50_ms", "op_p99_ms")}
    ops = len(cur[0]["lat_ms"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_time_rel": (ratio["pass_s"], "ratio"),
        "op_p50_rel": (ratio["op_p50_ms"], "ratio"),
        "op_p99_rel": (ratio["op_p99_ms"], "ratio"),
        "peak_rss_mb": (max(w["rss_mb"] for w in cur), "MB"),
    }
    detail = {
        "repeats": k,
        "samples": ops,
        "p99_samples_beyond": ops - math.ceil(0.99 * ops),
        "plain": plain,
        "setup_s_each": setups,
        "op_s_each": {program: [sum(p[program]["lat_ms"]) / 1000.0 for p in pairs]
                      for program in PROGRAMS},
        "attempted": sum(w["attempted"] for w in cur),
        "failed": sum(w["failed"] for w in cur),
        "failures": [f for w in cur for f in w["failures"]][:20],
        "baseline_failed": sum(p["baseline"]["failed"] for p in pairs),
    }
    if runner.args.workload == "queries":
        detail["repeat_share"] = cur[0]["repeat_share"]
    return metrics, detail


def layer_metrics(traced: dict, plain: dict, probes: dict, import_s: float) -> dict:
    t = traced["trace"]
    fn = t["functions"]
    m: dict[str, tuple[float, str]] = {}
    for layer, names in FUNCS.items():
        for name in names:
            f = fn[f"{layer}.{name}"]
            m[f"{layer}.{name}.calls"] = (f["calls"], "count")
            m[f"{layer}.{name}.self_s"] = (f["self_s"], "s")
    m["symgroup.reduced_subwords.sets"] = (t["subword_sets"], "count")
    for route in ROUTES:
        m[f"skew.{route}.terms"] = (t["route_terms"][route], "count")
    sets = t["route_sets"]["skew_explicit"] + t["route_sets"]["skew_signed"]
    terms = t["route_terms"]["skew_explicit"] + t["route_terms"]["skew_signed"]
    m["skew.yield"] = (terms / sets if sets else 0.0, "ratio")
    for name in VERIFY_RUNNERS:
        m[f"verify.{name}.self_s"] = (fn[f"verify.{name}"]["self_s"], "s")
    for layer, self_s in t["layer_self_s"].items():
        m[f"{layer}.self_s"] = (self_s, "s")
    for n, d in PROBES:
        m[f"fkcanon.build_s.n{n}d{d}"] = (probes["probes"][f"n{n}d{d}"]["build_s"], "s")
    for key in ("n4d6", "n5d4"):
        m[f"fkcanon.rank.{key}"] = (probes["probes"][key]["rank"], "count")
        m[f"fkcanon.columns.{key}"] = (probes["probes"][key]["columns"], "count")
    m["cli.import_s"] = (import_s, "s")
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(plain["kinds"], plain["lat_ms"]):
        by_kind.setdefault(kind, []).append(lat)
    for kind in KINDS:
        vals = by_kind.get(kind)
        m[f"queries.{kind}.p50_ms"] = (statistics.median(vals) if vals else 0.0, "ms")
    m["trace.traced_s"] = (traced["op_s"], "s")
    m["trace.untraced_s"] = (plain["op_s"], "s")
    m["trace.overhead_frac"] = (traced["op_s"] / plain["op_s"] - 1.0, "ratio")
    return m


def layer_table(metrics: dict) -> str:
    rows = [f"{'metric':<44} {'value':>14}  unit"]
    for name in sorted(metrics):
        value, unit = metrics[name]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        rows.append(f"{name:<44} {text:>14}  {unit}")
    return "\n".join(rows) + "\n"


def traced_run(runner: Runner, out_dir: Path, stem: str) -> tuple[dict, dict]:
    traced = runner.worker("traced", spans=out_dir / f"{stem}-spans.jsonl")
    plain = runner.worker("fixed")
    probes = runner.worker("probes")
    import_s = statistics.median([traced["import_s"], plain["import_s"], probes["import_s"]])
    metrics = layer_metrics(traced, plain, probes, import_s)
    (out_dir / f"{stem}-layers.txt").write_text(layer_table(metrics))
    failures = traced["failures"] + plain["failures"] + probes["failures"]
    detail = {
        "attempted": traced["attempted"] + plain["attempted"] + probes["attempted"],
        "failed": traced["failed"] + plain["failed"] + probes["failed"],
        "failures": failures[:20],
        "samples": plain["attempted"],
        "spans_kept": traced["trace"]["spans_kept"],
        "spans_total": traced["trace"]["spans_total"],
        "functions": traced["trace"]["functions"],
    }
    return metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description="skewdd benchmark: one workload, one run")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".bench_out"),
                    help="directory for the run record, spans and layer table")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "skewdd" / "__init__.py").is_file():
        print(f"error: no skewdd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing digest reference {REFERENCE}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    runner = Runner(args)
    # a run stopped from outside still stops its workers (see the finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        if args.trace:
            metrics, detail = traced_run(runner, out_dir, stem)
        else:
            metrics, detail = end_to_end(runner, args.seconds)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    record = {"environment": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **detail}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps(env, sort_keys=True))
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    if not args.trace:
        print(f"{detail['samples']} op positions, each repeated by {detail['repeats']} pairs; "
              f"{detail['p99_samples_beyond']} positions beyond the 99th percentile")
        for program in PROGRAMS:
            print(f"{program:<8} " + "  ".join(
                f"{key} {value:.6g}" for key, value in detail["plain"][program].items()))
        if detail["baseline_failed"]:
            print(f"the baseline program failed {detail['baseline_failed']} ops")
        if "repeat_share" in detail:
            print(f"share of the stream's queries that repeat an earlier one: "
                  f"{detail['repeat_share']:.3f}")
    else:
        print(f"traced {detail['spans_total']} calls, kept {detail['spans_kept']} boundary spans")
    print(layer_table(metrics), end="")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line behavior: syntaxes, exit codes, formats, determinism."""

import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewdd
from skewdd import cli
from skewdd import fkcanon
from skewdd import verify
from skewdd.fkalg import FKElement, FKTensor, ParseError
from skewdd.fkcanon import ResourceLimitError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_permutation_one_line():
    assert cli.parse_permutation("3412", 4) == (3, 4, 1, 2)
    assert cli.parse_permutation("132", 3) == (1, 3, 2)


def test_parse_permutation_word_fallback():
    # a single digit can never be one-line notation for n >= 2
    assert cli.parse_permutation("2", 4) == (1, 3, 2, 4)
    # "21" at n=5 is not a permutation of 1..5, so it folds as a word
    assert cli.parse_permutation("21", 5) == (3, 1, 2, 4, 5)
    # comma syntax is always a word, even when the digits would be one-line
    assert cli.parse_permutation("2,1,3,2", 4) == (3, 4, 1, 2)


def test_parse_permutation_rejects_nonreduced():
    with pytest.raises(ValueError, match="not reduced"):
        cli.parse_permutation("1,1,2,3", 4)
    assert cli.parse_permutation("1,1,2,3", 4, allow_nonreduced=True) == (1, 3, 4, 2)


def test_parse_permutation_errors():
    with pytest.raises(ParseError):
        cli.parse_permutation("abc", 4)
    with pytest.raises(ParseError):
        cli.parse_permutation("", 4)
    with pytest.raises(ParseError):
        cli.parse_permutation("1,x", 4)
    with pytest.raises(ValueError, match="outside window"):
        cli.parse_permutation("7", 4)


def test_skew_worked_example(capsys):
    code, out, _ = run_cli(capsys, "skew", "--n", "4", "--w", "2,1,3,2", "--v", "2")
    assert code == 0
    assert out == "x(1,2)x(2,4)x(3,4) + x(1,3)x(1,2)x(2,4)\n"
    code, out, _ = run_cli(
        capsys, "skew", "--n", "4", "--w", "2,1,3,2", "--v", "2", "--method", "signed"
    )
    assert code == 0
    assert out == "x(1,2)x(3,4)x(2,3) - x(2,3)x(1,3)x(2,4)\n"


def test_skew_methods_agree_modulo_relations(capsys):
    texts = {}
    for method in ("signed", "pairing", "explicit", "recurrence"):
        code, out, _ = run_cli(
            capsys, "skew", "--n", "4", "--w", "3412", "--v", "1243",
            "--method", method,
        )
        assert code == 0
        texts[method] = out.strip()
    assert texts["explicit"] == texts["recurrence"]
    code, out, _ = run_cli(
        capsys, "canon", "--n", "4", "--equal", texts["signed"], texts["explicit"]
    )
    assert code == 0
    assert out == "true\n"


def test_skew_json_matches_text(capsys):
    argv = ("skew", "--n", "4", "--w", "2,1,3,2", "--v", "2")
    code, text_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    from_json = FKElement.from_json_dict(json.loads(json_out))
    assert from_json == FKElement.parse(text_out.strip(), 4)


def test_cuv_single_value(capsys):
    code, out, _ = run_cli(
        capsys, "cuv", "--n", "3", "--u", "213", "--v", "213", "--w", "312"
    )
    assert code == 0
    assert out == "1\n"
    code, out, _ = run_cli(
        capsys, "cuv", "--n", "3", "--u", "213", "--v", "213", "--w", "312",
        "--format", "json",
    )
    assert json.loads(out) == {"value": 1}


def test_cuv_requires_triple_or_table(capsys):
    code, _, err = run_cli(capsys, "cuv", "--n", "3", "--u", "213")
    assert code == 1
    assert "cuv needs" in err


def test_cuv_table_text_and_json_agree(capsys):
    code, text_out, _ = run_cli(capsys, "cuv", "--n", "3", "--table")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "cuv", "--n", "3", "--table", "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["n"] == 3
    text_rows = [line.split() for line in text_out.strip().splitlines()]
    json_rows = [[t["u"], t["v"], t["w"], str(t["c"])] for t in payload["triples"]]
    assert text_rows == json_rows
    # identity times identity is the first row of the sorted table
    assert text_rows[0] == ["123", "123", "123", "1"]


def test_schubert_output(capsys):
    code, out, _ = run_cli(capsys, "schubert", "--w", "213")
    assert code == 0
    assert out == "x1\n"
    code, out, _ = run_cli(capsys, "schubert", "--w", "1,2", "--n", "3")
    assert code == 0
    assert out == "x1*x2\n"


def test_schubert_word_needs_window(capsys):
    code, _, err = run_cli(capsys, "schubert", "--w", "1,2")
    assert code == 1
    assert "explicit --n" in err


def test_fk_coproduct_worked_example(capsys):
    code, out, _ = run_cli(capsys, "fk", "coproduct", "x(1,2)x(2,3)", "--n", "3")
    assert code == 0
    terms = out.strip().split(" + ")
    assert sorted(terms) == sorted(
        [
            "1 (x) x(1,2)x(2,3)",
            "x(1,2) (x) x(2,3)",
            "x(2,3) (x) x(1,3)",
            "x(1,2)x(2,3) (x) 1",
        ]
    )
    code, json_out, _ = run_cli(
        capsys, "fk", "coproduct", "x(1,2)x(2,3)", "--n", "3", "--format", "json"
    )
    t = FKTensor.from_json_dict(json.loads(json_out))
    assert t == FKTensor.parse(out.strip(), 3)


def test_fk_antipode_and_sbar(capsys):
    code, out, _ = run_cli(capsys, "fk", "antipode", "x(1,2)x(2,3)x(3,4)", "--n", "4")
    assert code == 0
    assert out == "-x(3,4)x(2,4)x(1,4)\n"
    code, out, _ = run_cli(capsys, "fk", "sbar", "x(1,2)x(2,3)x(3,4)", "--n", "4")
    assert code == 0
    assert out == "x(1,4)x(2,4)x(3,4)\n"


def test_fk_delta_nabla_pairing(capsys):
    code, out, _ = run_cli(
        capsys, "fk", "delta", "x(2,3)", "x(1,2)x(2,3)x(1,2)", "--n", "3"
    )
    assert code == 0
    assert out == "x(1,3)x(1,2)\n"
    code, out, _ = run_cli(
        capsys, "fk", "nabla", "x(1,2)x(2,3)x(1,2)", "x(2,3)", "--n", "3"
    )
    assert code == 0
    assert out == "x(2,3)x(1,2)\n"
    code, out, _ = run_cli(
        capsys, "fk", "pairing", "x(1,2)x(2,3)", "x(2,3)x(1,2)", "--n", "3"
    )
    assert code == 0
    assert out == "1\n"


def test_fk_parse_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "fk", "sbar", "x(1,2", "--n", "3")
    assert code == 2
    assert err.startswith("error:")


def test_canon_reduce_and_dim(capsys):
    code, out, _ = run_cli(
        capsys, "canon", "x(1,2)x(2,3) - x(2,3)x(1,3) - x(1,3)x(1,2)", "--n", "3"
    )
    assert code == 0
    assert out == "0\n"
    code, out, _ = run_cli(capsys, "canon", "--n", "3", "--dim", "2")
    assert code == 0
    assert out == "4\n"
    code, out, _ = run_cli(
        capsys, "canon", "--n", "3", "--dim", "2", "--format", "json"
    )
    assert json.loads(out) == {"n": 3, "d": 2, "dim": 4}


def test_canon_equal_false(capsys):
    code, out, _ = run_cli(
        capsys, "canon", "--n", "3", "--equal", "x(1,2)", "x(2,3)"
    )
    assert code == 0
    assert out == "false\n"


def test_canon_needs_a_mode(capsys):
    code, _, err = run_cli(capsys, "canon", "--n", "3")
    assert code == 1
    assert "canon needs" in err


def test_canon_resource_refusal(capsys):
    code, _, err = run_cli(capsys, "canon", "--n", "6", "--dim", "2")
    assert code == 1
    assert "exceeds limits" in err
    code, out, _ = run_cli(
        capsys, "canon", "--n", "6", "--dim", "1", "--limit-n", "6"
    )
    assert code == 0
    assert out == "15\n"


def test_canon_negative_degree_is_exit_1(capsys):
    code, out, err = run_cli(capsys, "canon", "--n", "4", "--dim", "-1")
    assert code == 1
    assert out == ""
    assert "negative" in err


def test_bad_flag_is_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["skew", "--n", "4", "--w", "3412", "--v", "2", "--method", "magic"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("skew", "--n", "4", "--w", "3412", "--v", "2", "--seed", "3"),
    ("cuv", "--n", "3", "--u", "2", "--v", "1", "--w", "312", "--max-degree", "3"),
    ("schubert", "--w", "312", "--limit-n", "5"),
    ("fk", "sbar", "x(1,2)", "--n", "3", "--seed", "3"),
    ("canon", "--n", "3", "--dim", "2", "--seed", "3"),
    ("verify", "--suite", "canon", "--limit-n", "5"),
], ids=lambda argv: argv[0])
def test_flags_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_canon_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "canon", "--n", "3", "--samples", "25"
    )
    assert code == 0
    assert "dim(3,2)=4" in out
    assert out.strip().splitlines()[-1].endswith("checks passed")
    assert "FAIL" not in out


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_rejects_fewer_than_one_sample(capsys, suite):
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            verify.run_suite(suite, samples=samples)
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--samples", str(samples)
        )
        assert code == 1
        assert out == ""
        assert "samples must be at least 1" in err


def test_verify_rejects_a_negative_max_degree(capsys):
    for suite in ("leibniz", "hopf", "canon", "all"):
        with pytest.raises(ValueError, match="max_degree"):
            verify.run_suite(suite, max_degree=-2)
    code, out, err = run_cli(capsys, "verify", "--suite", "canon", "--max-degree", "-2")
    assert code == 1
    assert out == ""
    assert "max_degree must be at least 0" in err


@pytest.mark.parametrize("n, top", [(3, 4), (4, 6)])
def test_verify_canon_refuses_a_degree_above_its_table(capsys, n, top):
    # the table reaches the canonicalizer's degree cap; top is the default
    cap = fkcanon.DEFAULT_MAX_DEGREE
    message = f"degree {cap + 1} out of range (0..{cap})"
    with pytest.raises(ResourceLimitError) as info:
        verify.run_suite("canon", n=n, samples=1, max_degree=cap + 1)
    assert str(info.value) == message
    code, out, err = run_cli(
        capsys, "verify", "--suite", "canon", "--n", str(n), "--samples", "1",
        "--max-degree", str(cap + 1),
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "canon", "--n", str(n), "--samples", "1",
        "--max-degree", str(cap),
    )
    assert code == 0
    assert f"dim({n},{cap})=" in out
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "canon", "--n", str(n), "--samples", "1",
    )
    assert code == 0
    assert f"dim({n},{top})=" in out and f"dim({n},{top + 1})=" not in out


@pytest.mark.parametrize("suite, check, scope", [
    ("agreement", "longest word factorization", "windows 3..2, 0 orderings"),
    ("hopf", "pairing vanishing", "0 degree or descent mismatches"),
], ids=("agreement", "hopf"))
def test_check_with_no_instances_fails(capsys, suite, check, scope):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", "2", "--samples", "1")
    assert code == 1
    line = next(ln for ln in out.splitlines() if check in ln)
    assert line.startswith("FAIL") and scope in line


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    def fake(suite, **kwargs):
        return [verify.Check("stub", False, "forced failure")]

    monkeypatch.setattr(verify, "run_suite", fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "canon")
    assert code == 1
    assert "FAIL" in out
    code, json_out, _ = run_cli(
        capsys, "verify", "--suite", "canon", "--format", "json"
    )
    assert code == 1
    assert json.loads(json_out)["passed"] is False


def _record_runners(monkeypatch):
    """Replace every suite runner by a stub with its signature that records
    the suite's name and arguments and returns no checks."""
    called = []
    for name, runner in list(verify._RUNNERS.items()):
        def fake(name=name, **kw):
            called.append((name, kw))
            return []

        monkeypatch.setitem(verify._RUNNERS, name, functools.wraps(runner)(fake))
    return called


@pytest.mark.parametrize("kwargs, message", [
    ({"max_degree": 8}, "degree 8 out of range (0..7)"),
    ({"max_degree": 9}, "degree 9 out of range (0..8)"),
    ({"n": 2}, "window 2 out of range for this suite (3..4)"),
], ids=("canon-degree", "hopf-degree", "canon-window"))
def test_verify_all_checks_every_limit_before_running(capsys, monkeypatch, kwargs, message):
    called = _record_runners(monkeypatch)
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        verify.run_suite("all", **kwargs)
    argv = [f"--{k.replace('_', '-')}={v}" for k, v in kwargs.items()]
    code, out, err = run_cli(capsys, "verify", "--suite", "all", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert called == []


def test_verify_all_passes_each_suite_its_own_defaults(monkeypatch):
    called = _record_runners(monkeypatch)
    assert verify.run_suite("all", n=3, max_degree=2) == []
    assert called == [
        ("leibniz", {"n": 3, "samples": 100, "seed": 0, "max_degree": 2}),
        ("hopf", {"n": 3, "samples": 200, "seed": 0, "max_degree": 2}),
        ("positivity", {"n": 3, "samples": 200, "seed": 0}),
        ("agreement", {"n": 3, "samples": 50, "seed": 0}),
        ("canon", {"n": 3, "samples": 1000, "seed": 0, "max_degree": 2}),
    ]


def test_verify_json_reports_counts(capsys):
    code, text, _ = run_cli(capsys, "verify", "--suite", "agreement")
    code_json, out, _ = run_cli(capsys, "verify", "--suite", "agreement", "--format", "json")
    assert code == code_json == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    chain = checks["chain pairing"]
    assert (chain["instances"], chain["failures"], chain["passed"]) == (57496, 0, True)
    assert "(57496 words), 0 failures" in chain["details"]
    assert all(c["instances"] > 0 and c["failures"] == 0 for c in checks.values())
    assert [f"pass  {c['name']}: {c['details']}" for c in checks.values()] == \
        text.splitlines()[:-1]
    code, out, _ = run_cli(capsys, "verify", "--suite", "canon", "--samples", "2",
                           "--format", "json")
    dims, vanishing = json.loads(out)["checks"][:2]
    assert (dims["instances"], dims["failures"]) == (None, None)
    assert (vanishing["instances"], vanishing["failures"]) == (2, 0)


def test_verify_is_deterministic_under_seed(capsys):
    argv = ("verify", "--suite", "leibniz", "--n", "3", "--samples", "5",
            "--seed", "11")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_repeated_invocations_are_byte_identical(capsys):
    argv = ("skew", "--n", "4", "--w", "3412", "--v", "2", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def main_in_process(argv):
    """(exit status, stdout) of one ``cli.main`` call in this process; the
    SystemExit of a parse error gives its status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# a valid call, a parse error, a domain error, then both formats of each
# query command
REUSE_ARGVS = [
    ("skew", "--n", "4", "--w", "3412", "--v", "2"),
    ("skew", "--n", "4", "--w", "3412", "--v", "2", "--method", "magic"),
    ("canon", "--n", "4", "--dim", "-1"),
    ("skew", "--n", "4", "--w", "2,1,3,2", "--v", "2", "--method", "signed"),
    ("skew", "--n", "4", "--w", "3412", "--v", "2", "--format", "json"),
    ("cuv", "--n", "3", "--u", "213", "--v", "213", "--w", "312"),
    ("cuv", "--n", "3", "--u", "213", "--v", "213", "--w", "312", "--format", "json"),
    ("schubert", "--w", "1432"),
    ("schubert", "--w", "1,2", "--n", "3", "--format", "json"),
    ("fk", "coproduct", "x(1,2)x(2,3)", "--n", "3"),
    ("fk", "pairing", "x(1,2)", "x(1,2)", "--n", "3", "--format", "json"),
    ("canon", "x(1,2)x(2,3)x(1,2)", "--n", "3"),
    ("canon", "--n", "3", "--dim", "2", "--format", "json"),
]


def test_one_parser_serves_every_call():
    built = []
    real = cli.build_parser
    cli.build_parser = lambda: built.append(1) or real()
    cli._parser = None
    try:
        results = [main_in_process(argv) for argv in REUSE_ARGVS]
    finally:
        cli.build_parser = real
    assert len(built) == 1
    assert [code for code, _ in results[:3]] == [0, 2, 1]
    env = child_env()
    for argv, result in zip(REUSE_ARGVS, results):
        proc = subprocess.run(
            [sys.executable, "-m", "skewdd.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result == (proc.returncode, proc.stdout), argv
    assert cli.build_parser() is not cli.build_parser()


def console_scripts():
    """The ``[project.scripts]`` table of pyproject.toml as {name: "module:attr"}.

    Read with a regular expression, since tomllib needs Python 3.11 and
    the package supports 3.10; the table holds only ``name = "module:attr"``
    lines.
    """
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return dict(re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]*)"', table.group(1), re.M))


# What the wrapper that pip writes for a console script does: import the
# module, look up the attribute, exit with what it returns.
ENTRY_POINT_WRAPPER = """\
import importlib, sys
module, attr = sys.argv.pop(1).split(":")
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def child_env():
    """The environment, with the source root of the imported skewdd first on PYTHONPATH."""
    env = dict(os.environ)
    root = str(Path(skewdd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def test_console_script_subprocess():
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "skewdd.cli", "skew", "--n", "4",
         "--w", "2,1,3,2", "--v", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x(1,2)x(2,4)x(3,4) + x(1,3)x(1,2)x(2,4)\n"

    # the installed `skewdd` executable runs this; the tests run uninstalled
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_WRAPPER, console_scripts()["skewdd"],
         "canon", "--n", "3", "--dim", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"

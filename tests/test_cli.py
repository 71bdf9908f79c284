"""Command-line behaviour: outputs, exit codes, conversions."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from adfsolve.cli import main
from adfsolve.formula import parse_adf, write_adf, write_bnet
from adfsolve.semantics import SEMANTICS, solve
from adfsolve.solutions import count
from conftest import EXAMPLE_ADF, EXAMPLE_BNET, random_adf


@pytest.fixture()
def example_path(tmp_path):
    path = tmp_path / "example1.adf"
    path.write_text(EXAMPLE_ADF)
    return str(path)


@pytest.fixture()
def example_bnet_path(tmp_path):
    path = tmp_path / "example1.bnet"
    path.write_text(EXAMPLE_BNET)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_preferred(capsys, example_path):
    code, out, _ = run_cli(capsys, "solve", "--sem", "prf", "--count", example_path)
    assert code == 0
    assert out.strip() == "2"


def test_count_is_the_default_action(capsys, example_path):
    code, out, _ = run_cli(capsys, "solve", "--sem", "adm", example_path)
    assert code == 0
    assert out.strip() == "5"


def test_enumerate_stable(capsys, example_path):
    code, out, _ = run_cli(capsys, "solve", "--sem", "stb", "--enumerate", example_path)
    assert code == 0
    assert out.strip() == "a:1 b:0 c:0"


def test_enumerate_grounded(capsys, example_path):
    code, out, _ = run_cli(capsys, "solve", "--sem", "grd", "--enumerate", example_path)
    assert code == 0
    assert out.strip() == "a:1 b:* c:*"


@pytest.mark.parametrize(
    "flags, expected",
    [([], ""), (["--json"], '"count": 0, "solutions": []')],
)
def test_empty_listing_prints_no_count(capsys, tmp_path, flags, expected):
    path = tmp_path / "odd.adf"
    path.write_text("s(a). ac(a, neg(a)).")
    code, out, err = run_cli(capsys, "solve", "--sem", "stb", "--enumerate", *flags, str(path))
    assert code == 0
    assert err == ""
    if expected:
        assert expected in out
    else:
        assert out == ""


def test_enumerate_limit(capsys, example_path):
    code, out, _ = run_cli(
        capsys, "solve", "--sem", "adm", "--enumerate", "--limit", "2", example_path
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_count_on_generated_free_input_network(capsys, tmp_path):
    lines = ["targets, factors"] + [f"v{i}, v{i}" for i in range(20)]
    path = tmp_path / "inputs.bnet"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "solve", "--sem", "com", "--count", str(path))
    assert code == 0
    assert out.strip() == str(3**20)


def test_json_output(capsys, example_path):
    code, out, _ = run_cli(
        capsys, "solve", "--sem", "com", "--enumerate", "--json", example_path
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["semantics"] == "com"
    assert payload["count"] == 3
    assert len(payload["solutions"]) == 3
    assert {"a": "1", "b": "*", "c": "*"} in payload["solutions"]
    assert payload["elapsed_ms"] >= 0


def test_sample_deterministic(capsys, example_path):
    code, first, _ = run_cli(
        capsys, "solve", "--sem", "adm", "--sample", "5", "--seed", "11", example_path
    )
    assert code == 0
    code, second, _ = run_cli(
        capsys, "solve", "--sem", "adm", "--sample", "5", "--seed", "11", example_path
    )
    assert first == second
    assert len(first.strip().splitlines()) == 5


def test_stdin_with_format(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(EXAMPLE_ADF.encode())))
    code = main(["solve", "--sem", "2v", "--count", "--format", "adf"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "2"


def test_stdin_without_format_is_an_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(EXAMPLE_ADF.encode())))
    code = main(["solve", "--sem", "2v", "--count"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--format" in captured.err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.adf"
    path.write_text("s(a). ac(a, or(a,).")
    code, _, err = run_cli(capsys, "solve", "--sem", "adm", str(path))
    assert code == 1
    assert "line" in err and "column" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--sem", "adm", "/nonexistent.adf")
    assert code == 1
    assert "cannot read" in err


def test_bnet_format_autodetection(capsys, example_bnet_path):
    code, out, _ = run_cli(capsys, "solve", "--sem", "prf", "--count", example_bnet_path)
    assert code == 0
    assert out.strip() == "2"


def test_timing_goes_to_stderr(capsys, example_path):
    code, out, err = run_cli(capsys, "solve", "--sem", "2v", "--count", "--time", example_path)
    assert code == 0
    assert out.strip() == "2"
    assert "time:" in err


def test_oracle_flag(capsys, example_path):
    code, out, err = run_cli(
        capsys, "solve", "--sem", "prf", "--count", "--oracle", example_path
    )
    assert code == 0
    assert out.strip() == "2"
    assert "oracle check passed" in err


def test_convert_to_bnet(capsys, example_path):
    code, out, _ = run_cli(capsys, "convert", "--format", "bnet", example_path)
    assert code == 0
    assert out == "targets, factors\na, 1\nb, !a | c\nc, b\n"


def test_convert_round_trip_preserves_counts(capsys, tmp_path, example_path):
    code, bnet_text, _ = run_cli(capsys, "convert", "--format", "bnet", example_path)
    assert code == 0
    back = tmp_path / "back.bnet"
    back.write_text(bnet_text)
    code, adf_text, _ = run_cli(capsys, "convert", "--format", "adf", str(back))
    assert code == 0
    returned = parse_adf(adf_text)
    original = parse_adf(EXAMPLE_ADF)
    for sem in SEMANTICS:
        assert count(solve(returned, sem)) == count(solve(original, sem))


def test_convert_pure_and_network_round_trips_bytewise(capsys, tmp_path):
    text = "targets, factors\np, p & q\nq, q\n"
    path = tmp_path / "net.bnet"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "convert", "--format", "adf", str(path))
    assert code == 0
    again = tmp_path / "net.adf"
    again.write_text(out)
    code, bnet_out, _ = run_cli(capsys, "convert", "--format", "bnet", str(again))
    assert code == 0
    assert bnet_out == text


def test_convert_counts_on_random_models(capsys, tmp_path):
    rng = random.Random(173)
    for index in range(25):
        adf = random_adf(rng, rng.randint(1, 7), depth=4, xor=False)
        path = tmp_path / f"model{index}.adf"
        path.write_text(write_adf(adf))
        code, out, _ = run_cli(capsys, "convert", "--format", "bnet", str(path))
        assert code == 0
        round_tripped = tmp_path / f"model{index}.bnet"
        round_tripped.write_text(out)
        for sem in ("adm", "prf", "stb"):
            _, a, _ = run_cli(capsys, "solve", "--sem", sem, "--count", str(path))
            _, b, _ = run_cli(capsys, "solve", "--sem", sem, "--count", str(round_tripped))
            assert a == b


def test_xor_budget_abort_exit_code(capsys, tmp_path):
    def xor_chain(depth):
        chain = "a"
        for _ in range(depth):
            chain = f"xor({chain},a)"
        path = tmp_path / f"xor{depth}.adf"
        path.write_text(f"s(a). ac(a,{chain}).")
        return str(path)

    code, _, err = run_cli(capsys, "convert", "--format", "bnet", xor_chain(20))
    assert code == 2
    assert "'a'" in err and "budget" in err
    code, out, _ = run_cli(capsys, "convert", "--format", "bnet", xor_chain(12))
    assert code == 0
    assert out.count("&") > 0


@pytest.mark.parametrize("error", [RuntimeError, RecursionError])
def test_round_bound_abort_exit_code(capsys, monkeypatch, example_path, error):
    def exceed(*args, **kwargs):
        raise error("solver exceeded its limit")

    monkeypatch.setattr("adfsolve.semantics.solve", exceed)
    code, out, err = run_cli(capsys, "solve", "--sem", "prf", "--count", example_path)
    assert code == 2
    assert out == ""
    assert err.strip() == "error: solver exceeded its limit"


DEEP_INPUTS = {
    ".adf": "s(a). ac(a," + "neg(" * 1200 + "a" + ")" * 1200 + ").",
    ".bnet": "targets, factors\na, " + "!" * 1200 + "a\n",
}


@pytest.mark.parametrize(
    "suffix, command", [(".adf", "solve"), (".bnet", "solve"), (".adf", "convert")]
)
def test_deep_nesting_exits_with_limit_code(tmp_path, suffix, command):
    # a fresh process, so the recursion limit is Python's default
    path = tmp_path / ("deep" + suffix)
    path.write_text(DEEP_INPUTS[suffix])
    args = ["--sem", "2v"] if command == "solve" else ["--format", "bnet"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "adfsolve", command, str(path), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_undecodable_file_exits_without_traceback(tmp_path):
    path = tmp_path / "bad.adf"
    path.write_bytes(b"s(a). ac(a,\xff).")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "adfsolve", "solve", "--sem", "2v", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in result.stderr


def test_undecodable_stdin_exits_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "adfsolve", "solve", "--sem", "2v", "--format", "adf", "-"],
        input=b"s(a). ac(a,\xff).",
        capture_output=True,
        env=env,
        timeout=60,
    )
    err = result.stderr.decode()
    assert result.returncode == 1
    assert err.startswith("error: cannot read -: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--enumerate", "--limit", "200000"], ["--sample", "50000"]])
def test_closed_pipe_exits_without_traceback(tmp_path, flags):
    # the reader takes one line and closes its end while the solver still writes
    path = tmp_path / "free.adf"
    path.write_text(" ".join(f"s(x{i}). ac(x{i},x{i})." for i in range(14)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen(
        [sys.executable, "-m", "adfsolve", "solve", "--sem", "adm", *flags, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as process:
        first = process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read().decode()
        code = process.wait(timeout=60)
    assert code == 1
    assert first.startswith(b"x0:")
    assert "Traceback" not in err


def test_limit_requires_enumerate(capsys, example_path):
    code, _, err = run_cli(capsys, "solve", "--sem", "adm", "--limit", "2", example_path)
    assert code == 1
    assert "--limit" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--enumerate", "--limit", "0"], "--limit needs a positive count"),
        (["--sample", "0"], "--sample needs a positive count"),
    ],
)
def test_nonpositive_count_exit_code(capsys, example_path, flags, message):
    code, out, err = run_cli(capsys, "solve", "--sem", "adm", *flags, example_path)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_sample_from_empty_set_exit_code(capsys, tmp_path):
    path = tmp_path / "odd.adf"
    path.write_text("s(a). ac(a,neg(a)).")
    code, out, err = run_cli(capsys, "solve", "--sem", "stb", "--sample", "3", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: cannot sample from an empty solution set\n"


def test_oracle_cap_exit_code(capsys, tmp_path):
    names = [f"x{i}" for i in range(14)]
    path = tmp_path / "wide.adf"
    path.write_text(" ".join(f"s({n}). ac({n},{n})." for n in names))
    code, out, err = run_cli(capsys, "solve", "--sem", "2v", "--oracle", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: 14 arguments exceed the brute-force cap of 12\n"


def test_oracle_mismatch_exit_code(capsys, monkeypatch, example_path):
    monkeypatch.setattr("adfsolve.oracle.brute_semantics", lambda adf, sem: set())
    code, out, err = run_cli(capsys, "solve", "--sem", "prf", "--oracle", example_path)
    assert code == 1
    assert out == ""
    assert err == (
        "error: oracle mismatch for prf: symbolic 2 vs reference 0 interpretations\n"
    )


def test_missing_file_is_read_before_its_format_is_detected(capsys, tmp_path):
    missing = str(tmp_path / "absent.txt")
    code, out, err = run_cli(capsys, "solve", "--sem", "adm", missing)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {missing}: ")

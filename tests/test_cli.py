"""Command-line behaviour: outputs, exit codes, conversions."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from adfsolve import encoding, solutions
from adfsolve.bdd import BddManager
from adfsolve.cli import CHUNK_BYTES, main
from adfsolve.formula import parse_adf, write_adf, write_bnet
from adfsolve.semantics import SEMANTICS, solve
from adfsolve.solutions import count, enumerate_solutions, sample_uniform
from conftest import EXAMPLE_ADF, EXAMPLE_BNET, grid_adf, random_adf, random_adf_with_free_inputs

SRC = str(Path(__file__).resolve().parents[1] / "src")
FREE14 = " ".join(f"s(x{i}). ac(x{i},x{i})." for i in range(14))
MIB = 1 << 20
ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')


def child_env(unbuffered: bool) -> dict:
    """The test's environment for a CLI child, with stdout buffered or not."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_capped(args, cap_bytes, **kwargs):
    """Run the CLI in a child whose address space is capped at ``cap_bytes``."""
    code = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap_bytes}, {cap_bytes})); "
        "from adfsolve.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=child_env(False), timeout=120, **kwargs
    )


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


@pytest.mark.parametrize(
    "flags, tables",
    [
        (["--count"], 1),
        (["--enumerate"], 1),
        (["--sample", "3"], 1),
        (["--json", "--enumerate"], 2),
    ],
    ids=["count", "enumerate", "sample", "json-enumerate"],
)
def test_only_a_printed_count_is_counted(capsys, monkeypatch, example_path, flags, tables):
    # a listing and a printed count each ask model_counts for the root's
    # linked entry, so a query asks twice only when it prints the count as well
    built = 0
    model_counts = BddManager.model_counts

    def counted(self, f, levels):
        nonlocal built
        built += 1
        return model_counts(self, f, levels)

    monkeypatch.setattr(BddManager, "model_counts", counted)
    code, out, _ = run_cli(capsys, "solve", "--sem", "adm", *flags, example_path)
    assert code == 0 and out
    assert built == tables


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
    env = dict(os.environ, PYTHONPATH=SRC)
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
    env = dict(os.environ, PYTHONPATH=SRC)
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
    env = dict(os.environ, PYTHONPATH=SRC)
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


@pytest.mark.parametrize(
    "name, text, error",
    [
        # a statement file's lines end at \n only, so a lone \r is one column
        ("lone_cr.adf", b"s(a).\rq(a).", "line 1, column 8: expected 's' or 'ac' statement"),
        ("crlf.adf", b"s(a).\r\nac(a, and(a,,a)).\r\n", "line 2, column 13: expected a name"),
        ("lone_cr.bnet", b"targets, factors\ra, a &\r", "line 2, column 7: expected a name"),
        ("crlf.bnet", b"targets, factors\r\na, a\r\nb, a |\r\n", "line 3, column 7: expected"),
    ],
    ids=["adf-lone-cr", "adf-crlf", "bnet-lone-cr", "bnet-crlf"],
)
def test_file_and_stdin_report_the_same_position(capsys, monkeypatch, tmp_path, name, text, error):
    import io

    path = tmp_path / name
    path.write_bytes(text)
    from_file = run_cli(capsys, "solve", "--sem", "2v", str(path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
    input_format = name.rsplit(".", 1)[1]
    from_stdin = run_cli(capsys, "solve", "--sem", "2v", "--format", input_format, "-")
    assert from_file == from_stdin
    code, _, err = from_file
    assert code == 1
    assert err.startswith(f"error: {error}")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flags", [["--enumerate", "--limit", "200000"], ["--sample", "50000"]])
def test_closed_pipe_exits_without_traceback(tmp_path, flags, unbuffered):
    # the reader takes one line and closes its end while the solver still writes
    path = tmp_path / "free.adf"
    path.write_text(FREE14)
    with subprocess.Popen(
        [sys.executable, "-m", "adfsolve", "solve", "--sem", "adm", *flags, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(unbuffered),
    ) as process:
        first = process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read().decode()
        code = process.wait(timeout=60)
    assert code == 1
    assert first.startswith(b"x0:")
    assert "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_chunked_listing_prints_every_line(tmp_path, unbuffered):
    path = tmp_path / "free.adf"
    path.write_text(FREE14)
    solset = solve(parse_adf(FREE14), "2v")
    lines = [interp.format_line() for interp in enumerate_solutions(solset)]
    assert len(lines) == 16384
    # the last chunk is a short one
    assert len(lines) % (CHUNK_BYTES // (len(lines[0]) + 1)) != 0
    result = subprocess.run(
        [sys.executable, "-m", "adfsolve", "solve", "--sem", "2v", "--enumerate", str(path)],
        capture_output=True,
        env=child_env(unbuffered),
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.decode() == "\n".join(lines) + "\n"


def test_cli_listings_equal_the_library_listings(capsys, tmp_path):
    # the command line writes the walkers' rows, as lines or as JSON
    # objects; the library wraps them in interpretations, formatted by
    # format_line or dumped from as_dict
    def printed(ss, sem, interps, as_json):
        if not as_json:
            return "".join(i.format_line() + "\n" for i in interps)
        dicts = [i.as_dict() for i in interps]
        payload = {"semantics": sem, "count": count(ss), "solutions": dicts, "elapsed_ms": 0}
        return json.dumps(payload) + "\n"

    rng = random.Random(229)
    path = tmp_path / "model.adf"
    for index in range(201):
        make = random_adf if index % 2 else random_adf_with_free_inputs
        # the last model has no argument: each semantics lists one empty interpretation
        path.write_text(write_adf(make(rng, rng.randint(1, 7))) if index < 200 else "")
        adf = parse_adf(path.read_text())
        for sem in SEMANTICS:
            ss = solve(adf, sem)
            listed = list(enumerate_solutions(ss, 50))
            seed = rng.randrange(2**32)
            try:
                drawn = sample_uniform(ss, 20, seed)
            except ValueError as exc:  # the set is empty
                drawn, empty = None, f"error: {exc}\n"
            flags = ["solve", str(path), "--sem", sem]
            for extra in ([], ["--json"]):
                code, out, err = run_cli(capsys, *flags, "--enumerate", "--limit", "50", *extra)
                out = ELAPSED.sub('"elapsed_ms": 0', out)
                assert (code, out, err) == (0, printed(ss, sem, listed, extra), ""), (index, sem)
                code, out, err = run_cli(capsys, *flags, "--sample", "20", "--seed", str(seed), *extra)
                out = ELAPSED.sub('"elapsed_ms": 0', out)
                if drawn is None:
                    expected = (1, "", empty)
                else:
                    expected = (0, printed(ss, sem, drawn, extra), "")
                assert (code, out, err) == expected, (index, sem, seed, extra)


@pytest.mark.parametrize(
    "flags, lines",
    [(["--sem", "2v", "--enumerate"], 16384), (["--sem", "adm", "--sample", "2000"], 2000)],
    ids=["enumerate", "sample"],
)
def test_a_plain_listing_builds_no_interpretation(capsys, monkeypatch, tmp_path, flags, lines):
    calls = Counter()

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    decode = counted("decode", encoding.decode)
    monkeypatch.setattr(encoding, "decode", decode)
    # a module that imported decode by name would call its own binding
    monkeypatch.setattr(solutions, "decode", decode, raising=False)
    monkeypatch.setattr(encoding, "_trusted", counted("_trusted", encoding._trusted))
    path = tmp_path / "free.adf"
    path.write_text(FREE14)
    code, out, _ = run_cli(capsys, "solve", *flags, str(path))
    assert code == 0
    assert len(out.splitlines()) == lines
    assert calls["decode"] == calls["_trusted"] == 0
    # a --json listing is written from the same rows
    code, out, _ = run_cli(capsys, "solve", *flags, "--json", str(path))
    assert code == 0
    assert len(json.loads(out)["solutions"]) == lines
    assert calls["decode"] == calls["_trusted"] == 0


def test_cli_import_leaves_unused_modules_out():
    # dataclasses pulls in inspect; json is only for --json, oracle only for --oracle
    probe = (
        "import sys, adfsolve.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'adfsolve.oracle'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(False),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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


@pytest.mark.parametrize(
    "flags", [[], ["--enumerate"], ["--json", "--enumerate"]], ids=["count", "enumerate", "json"]
)
def test_oracle_mismatch_exit_code(capsys, monkeypatch, example_path, flags):
    # the oracle checks before anything is printed
    monkeypatch.setattr("adfsolve.oracle.brute_semantics", lambda adf, sem: set())
    code, out, err = run_cli(capsys, "solve", "--sem", "prf", "--oracle", *flags, example_path)
    assert code == 1
    assert out == ""
    assert err == (
        "error: oracle mismatch for prf: symbolic 2 vs reference 0 interpretations\n"
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["--sem", "xyz"],
        ["--sem", "adm", "--count", "--enumerate"],
        ["--sem", "adm", "--sample", "abc"],
    ],
    ids=["unknown-semantics", "two-actions", "bad-sample-count"],
)
def test_usage_errors_exit_with_input_code(capsys, example_path, flags):
    # 2 is kept for resource limits
    code, out, err = run_cli(capsys, "solve", *flags, example_path)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: adfsolve solve ")
    assert err.splitlines()[-1].startswith("error: argument --")
    assert "Traceback" not in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: adfsolve solve ")


FEED_FORWARD = "s(a). s(b). s(c). ac(a,a). ac(b,a). ac(c,neg(b))."


@pytest.mark.parametrize(
    "flags, reversed_layout",
    [
        (["--count"], True),
        ([], True),
        (["--json"], True),
        (["--count", "--oracle"], True),
        (["--enumerate"], False),
        (["--enumerate", "--json"], False),
        (["--sample", "2"], False),
    ],
    ids=["count", "default", "json", "oracle", "enumerate", "enumerate-json", "sample"],
)
def test_only_counts_are_solved_in_the_fold_layout(
    capsys, monkeypatch, tmp_path, flags, reversed_layout
):
    # this model is declared feed-forward, so the fold prefers it reversed;
    # listings keep the declared order, which is their order
    path = tmp_path / "forward.adf"
    path.write_text(FEED_FORWARD)
    layouts = []

    def recording_solve(adf, sem, layout=None):
        solset = solve(adf, sem, layout)
        layouts.append(solset.layout.positions)
        return solset

    monkeypatch.setattr("adfsolve.semantics.solve", recording_solve)
    code, out, _ = run_cli(capsys, "solve", "--sem", "com", *flags, str(path))
    assert code == 0
    assert layouts == [(2, 1, 0) if reversed_layout else (0, 1, 2)]
    if not flags or flags[0] == "--count":
        assert out == "3\n"


def test_missing_file_is_read_before_its_format_is_detected(capsys, tmp_path):
    missing = str(tmp_path / "absent.txt")
    code, out, err = run_cli(capsys, "solve", "--sem", "adm", missing)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


def test_listing_streams_under_a_memory_cap(tmp_path):
    # 3**12 admissible interpretations; built as one list they need about 217 MB
    path = tmp_path / "free12.adf"
    path.write_text(" ".join(f"s(x{i}). ac(x{i},x{i})." for i in range(12)))
    listing = tmp_path / "listing.txt"
    args = ["solve", "--sem", "adm", "--enumerate", str(path)]
    with open(listing, "wb") as out:
        result = run_capped(args, 128 * MIB, stdout=out, stderr=subprocess.PIPE)
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    # false sorts before true at each level, so values run 0 < 1 < *
    expected = itertools.product("01*", repeat=12)
    with open(listing, encoding="utf-8") as lines:
        total = 0
        for line, values in zip(lines, expected):
            assert line == " ".join(f"x{i}:{v}" for i, v in enumerate(values)) + "\n"
            total += 1
        assert lines.read() == ""
    assert total == 3**12 == 531441


def test_sample_streams_under_a_memory_cap(tmp_path):
    # built as one list before printing, these samples pass the cap
    path = tmp_path / "free12.adf"
    path.write_text(" ".join(f"s(x{i}). ac(x{i},x{i})." for i in range(12)))
    listing = tmp_path / "listing.txt"
    args = ["solve", "--sem", "adm", "--sample", "450000", "--seed", "1", str(path)]
    with open(listing, "wb") as out:
        result = run_capped(args, 128 * MIB, stdout=out, stderr=subprocess.PIPE)
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    # every three-valued interpretation of free arguments is admissible
    member = re.compile(" ".join(f"x{i}:[01*]" for i in range(12)) + "\n")
    total = 0
    with open(listing, encoding="utf-8") as lines:
        for total, line in enumerate(lines, 1):
            assert member.fullmatch(line), (total, line)
    assert total == 450000


def test_json_listing_streams_under_a_memory_cap(tmp_path):
    # built as interpretations, then dicts, then one string, these
    # samples pass the cap
    n = 250000
    path = tmp_path / "free12.adf"
    path.write_text(" ".join(f"s(x{i}). ac(x{i},x{i})." for i in range(12)))
    listing = tmp_path / "listing.json"
    args = ["solve", "--sem", "adm", "--sample", str(n), "--seed", "1", "--json", str(path)]
    with open(listing, "wb") as out:
        result = run_capped(args, 128 * MIB, stdout=out, stderr=subprocess.PIPE)
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    names = [f"x{i}" for i in range(12)]

    def member(obj):
        # every three-valued interpretation of free arguments is admissible
        if "semantics" in obj:
            return obj
        assert list(obj) == names and set(obj.values()) <= {"0", "1", "*"}, obj
        return True

    payload = json.loads(listing.read_text(), object_hook=member)
    assert list(payload) == ["semantics", "count", "solutions", "elapsed_ms"]
    assert payload["count"] == 3**12
    assert payload["solutions"] == [True] * n


def test_wide_grid_completes_under_a_memory_cap(tmp_path):
    # a count folds this grid reversed, in about 11 K store slots; in the
    # declared order, without collection, it peaks near 490 MB
    path = tmp_path / "grid25x10.adf"
    path.write_text(write_adf(grid_adf(25, 10, seed=1)))
    result = run_capped(["solve", "--sem", "com", str(path)], 128 * MIB, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"19683\n"
    assert result.stderr == b""


def test_declared_fold_of_a_wide_grid_lists_under_a_memory_cap(tmp_path):
    # a listing keeps the declared layout, whose fold on this grid peaks
    # near 490 MB without collection; the count above folds in reverse
    adf = grid_adf(25, 10, seed=1)
    path = tmp_path / "grid25x10.adf"
    path.write_text(write_adf(adf))
    args = ["solve", "--sem", "com", "--enumerate", "--limit", "1", str(path)]
    result = run_capped(args, 128 * MIB, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    (line,) = result.stdout.splitlines()
    names, values = zip(*(pair.split(":") for pair in line.split(" ")))
    assert names == adf.arguments
    # a complete interpretation is a fixed point of the operator
    interp = encoding.Interpretation(names, values)
    layout = encoding.VarLayout.for_adf(adf)
    assert encoding.apply_gamma(encoding.gamma_pairs(adf, layout), interp, layout) == interp


def test_memory_exhaustion_exits_with_limit_code(tmp_path):
    # b_i copies a_i: with every a above every b, the two-valued set
    # needs 2**22 nodes, far past the cap; declared or reversed, every b
    # stays on one side of every a
    n = 22
    path = tmp_path / "copies.adf"
    statements = [f"s(a{i})." for i in range(n)] + [f"s(b{i})." for i in range(n)]
    statements += [f"ac(a{i},a{i}). ac(b{i},a{i})." for i in range(n)]
    path.write_text(" ".join(statements))
    result = run_capped(
        ["solve", "--sem", "2v", str(path)], 64 * MIB, capture_output=True, text=True
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[0].startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("sem", SEMANTICS)
def test_child_shuts_down_without_stderr(tmp_path, sem):
    # diagram handles count themselves in their manager until they are
    # deleted, also while the interpreter shuts down
    path = tmp_path / "grid6x6.adf"
    path.write_text(write_adf(grid_adf(6, 6)))
    result = subprocess.run(
        [sys.executable, "-m", "adfsolve", "solve", "--sem", sem, str(path)],
        capture_output=True,
        text=True,
        env=child_env(False),
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.strip().isdigit()
    assert result.stderr == ""

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import random_partition, recording_executor
from oddmaps import Partition, k_data
from oddmaps.cli import _COMMANDS, _PARSER, _json, main, parse_partition_text, render_kdata
from oddmaps.oracle import Mismatch, ParityReport
from oddmaps.partition import _bead_mask

P = Partition


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_parse_partition_text():
    assert parse_partition_text("[5,4,2,2,1,1]") == P((5, 4, 2, 2, 1, 1))
    assert parse_partition_text("[]") == P(())
    assert parse_partition_text(" [3, 1] ") == P((3, 1))
    with pytest.raises(ValueError, match="weakly decreasing"):
        parse_partition_text("[2,3]")
    for bad in ("5,4", "[5,4", "[a]", "[1,]"):
        with pytest.raises(ValueError):
            parse_partition_text(bad)


def test_parse_render_roundtrip():
    rng = random.Random(75)
    for _ in range(1000):
        lam = random_partition(rng, 50)
        assert parse_partition_text(str(lam)) == lam


def test_render_kdata_goldens():
    block = render_kdata(k_data(P((5, 4, 2, 2, 1, 1)), 2))
    assert block == "      [1]\n    [] [1]\n[1,1] [1] [] []"
    assert [line.strip() for line in block.splitlines()] == [
        "[1]",
        "[] [1]",
        "[1,1] [1] [] []",
    ]
    block = render_kdata(k_data(P((1,)), 1))
    assert [line.strip() for line in block.splitlines()] == ["[1]", "[] []"]
    block = render_kdata(k_data(P((3, 2, 2, 2, 1, 1)), 2))
    assert [line.strip() for line in block.splitlines()] == [
        "[1]",
        "[] [1]",
        "[1,1] [] [] []",
    ]


def test_fk_command(capsys):
    code, out = run_cli(capsys, "fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]")
    assert code == 0
    assert out.strip() == "[3,2,2,2,1,1]"
    code, out = run_cli(
        capsys, "fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 15,
        "k": 2,
        "lambda": [5, 4, 2, 2, 1, 1],
        "result": [3, 2, 2, 2, 1, 1],
    }


def test_fiber_command(capsys):
    code, out = run_cli(capsys, "fiber", "--n", "6", "--k", "2", "--mu", "[2]")
    assert code == 0
    assert out.splitlines() == ["[6]", "[3,3]", "[2,2,1,1]", "[2,1,1,1,1]"]
    code, out = run_cli(
        capsys, "fiber", "--n", "6", "--k", "2", "--mu", "[2]", "--format", "json"
    )
    payload = json.loads(out)
    assert set(payload) == {"n", "k", "mu", "members", "size", "d"}
    assert payload["size"] == 4 and payload["d"] == 0


def test_odd_list_command(capsys):
    code, out = run_cli(capsys, "odd-list", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 4,
        "members": [[4], [3, 1], [2, 1, 1], [1, 1, 1, 1]],
        "size": 4,
    }


def test_image_command(capsys):
    code, out = run_cli(capsys, "image", "--n", "6", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "k", "members", "size", "d"}
    assert payload["members"] == [] and payload["size"] == 0
    code, out = run_cli(capsys, "image", "--n", "19", "--k", "2")
    assert code == 0
    assert "[5,4,2,2,1,1]" in out.splitlines()


def test_surjective_command(capsys):
    code, out = run_cli(capsys, "surjective", "--n", "8", "--k", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 8, "k": 0, "d": 3, "result": False}
    code, out = run_cli(capsys, "surjective", "--n", "12", "--k", "0")
    assert code == 0 and out.strip() == "true"


def test_commute_command(capsys):
    code, out = run_cli(
        capsys, "commute", "--n", "6", "--k", "0", "--l", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 6, "k": 0, "l": 1, "commutes": True, "witness": None}
    code, out = run_cli(
        capsys, "commute", "--n", "12", "--k", "1", "--l", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["commutes"] is False and payload["witness"] is not None


def test_witness_command(capsys):
    code, out = run_cli(capsys, "witness", "--n", "13", "--k", "0", "--l", "2")
    assert code == 0 and out.strip() == "[5,5,1,1,1]"
    code, out = run_cli(
        capsys, "witness", "--n", "13", "--k", "0", "--l", "2", "--format", "json"
    )
    assert json.loads(out) == {"n": 13, "k": 0, "l": 2, "witness": [5, 5, 1, 1, 1]}


def test_tower_command(capsys):
    code, out = run_cli(capsys, "tower", "--lambda", "[5,4,2,2,1,1]", "--k", "2")
    assert code == 0
    assert out == "      [1]\n    [] [1]\n[1,1] [1] [] []\n"
    code, out = run_cli(
        capsys, "tower", "--lambda", "[5,4,2,2,1,1]", "--k", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["result"] == [[[1]], [[], [1]], [[1, 1], [1], [], []]]


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify", "--max-n", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["mismatches"] == []
    assert payload["report"]["checks_run"] > 0


# Whole outputs, byte for byte; csv.writer ends each row with \r\n.
GOLDEN = [
    pytest.param(
        ["fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]", "--format", "csv"],
        'n,k,lambda,result\r\n15,2,"[5,4,2,2,1,1]","[3,2,2,2,1,1]"\r\n',
        id="fk-csv",
    ),
    pytest.param(
        ["surjective", "--n", "8", "--k", "0", "--format", "csv"],
        "n,k,d,result\r\n8,0,3,False\r\n",
        id="surjective-csv",
    ),
    pytest.param(
        ["commute", "--n", "6", "--k", "0", "--l", "1", "--format", "csv"],
        "n,k,l,commutes,witness\r\n6,0,1,True,\r\n",
        id="commute-csv-commuting",
    ),
    pytest.param(
        ["commute", "--n", "12", "--k", "1", "--l", "2", "--format", "csv"],
        'n,k,l,commutes,witness\r\n12,1,2,False,"[8,4]"\r\n',
        id="commute-csv-not-commuting",
    ),
    pytest.param(
        ["witness", "--n", "13", "--k", "0", "--l", "2", "--format", "csv"],
        'n,k,l,witness\r\n13,0,2,"[5,5,1,1,1]"\r\n',
        id="witness-csv",
    ),
    pytest.param(
        ["tower", "--lambda", "[5,4,2,2,1,1]", "--k", "2", "--format", "csv"],
        '[1]\r\n[],[1]\r\n"[1,1]",[1],[],[]\r\n',
        id="tower-csv",
    ),
    pytest.param(
        ["verify", "--max-n", "8", "--format", "csv"],
        "n_max,checks_run,mismatches\r\n8,164,0\r\n",
        id="verify-csv",
    ),
    pytest.param(
        ["odd-list", "--n", "4"],
        "[4]\n[3,1]\n[2,1,1]\n[1,1,1,1]\n",
        id="odd-list-text",
    ),
    pytest.param(
        ["odd-list", "--n", "0", "--format", "csv"],
        "partition\r\n[]\r\n",
        id="odd-list-csv-empty-partition",
    ),
    pytest.param(
        ["image", "--n", "8", "--k", "0"],
        "[4,2,1]\n[3,3,1]\n[3,2,2]\n[3,2,1,1]\n",
        id="image-text",
    ),
    pytest.param(["image", "--n", "6", "--k", "2"], "\n", id="image-text-empty"),
    pytest.param(
        ["image", "--n", "6", "--k", "2", "--format", "csv"],
        "partition\r\n",
        id="image-csv-empty",
    ),
    pytest.param(
        ["commute", "--n", "6", "--k", "0", "--l", "1"],
        "commutes: true\n",
        id="commute-text-no-witness",
    ),
    pytest.param(
        ["commute", "--n", "12", "--k", "1", "--l", "2"],
        "commutes: false\nwitness: [8,4]\n",
        id="commute-text-witness",
    ),
    pytest.param(
        ["verify", "--max-n", "8"],
        "checks run: 164\nmismatches: 0\n",
        id="verify-text",
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN)
def test_golden_output(capsys, argv, expected):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def _record(*argv):
    args = _PARSER.parse_args(list(argv))
    return _COMMANDS[args.command].record(args)


def _json_dumps(record):
    return json.dumps(record, indent=2, default=lambda p: list(p.parts))


def _json_written(record):
    buf = io.StringIO()
    _json(record, buf.write)
    return buf.getvalue()


# Every command at a small n, with empty partitions in odd-list, fk and
# tower, an empty members tuple, both booleans and a None witness.
RECORDS = [
    ("odd-list", "--n", "0"),
    ("odd-list", "--n", "6"),
    ("fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]"),
    ("fk", "--n", "1", "--k", "0", "--lambda", "[1]"),
    ("fiber", "--n", "6", "--k", "2", "--mu", "[2]"),
    ("image", "--n", "8", "--k", "0"),
    ("image", "--n", "6", "--k", "2"),
    ("surjective", "--n", "8", "--k", "0"),
    ("surjective", "--n", "12", "--k", "0"),
    ("commute", "--n", "6", "--k", "0", "--l", "1"),
    ("commute", "--n", "12", "--k", "1", "--l", "2"),
    ("witness", "--n", "13", "--k", "0", "--l", "2"),
    ("tower", "--lambda", "[5,4,2,2,1,1]", "--k", "2"),
    ("tower", "--lambda", "[]", "--k", "1"),
    ("verify", "--max-n", "8"),
]


@pytest.mark.parametrize("argv", RECORDS, ids=" ".join)
def test_json_writer_matches_json_dumps(argv):
    record = _record(*argv)
    assert _json_written(record) == _json_dumps(record)


def test_json_writer_on_empty_values_and_nested_tuples():
    empty = P(())
    tower = _record("tower", "--lambda", "[3,2,2,2,1,1]", "--k", "2")
    assert any(p == empty for row in tower["result"] for p in row)
    for record in (
        {"lambda": empty},
        {"members": (), "size": 0},
        {"members": (empty,)},
        {},
        tower,
        {"rows": ((), (empty,), [P((2, 1)), empty])},
    ):
        assert _json_written(record) == _json_dumps(record), record


def test_json_writer_escapes_strings_as_json_does(monkeypatch):
    text = 'A "Quoted" back\\slash,\nnewline, tab\t, caf\u00e9 \u221e \U0001d11e \x7f'
    fake = ParityReport(
        n_max=4,
        checks_run=2,
        mismatches=(
            Mismatch(lam=P((2, 1)), k=None, expected=text, got=P((1, 1))),
            Mismatch(lam=P(()), k=0, expected="", got=text[::-1]),
        ),
    )
    monkeypatch.setattr("oddmaps.cli.cross_validate", lambda n, jobs=1: fake)
    record = _record("verify", "--max-n", "4")
    assert record["report"]["mismatches"][0]["expected"] == text
    assert _json_written(record) == _json_dumps(record)
    with pytest.raises(TypeError):
        _json({"x": 1.5}, io.StringIO().write)


def test_verify_exit_code_on_mismatch(capsys, monkeypatch):
    fake = ParityReport(
        n_max=4,
        checks_run=1,
        mismatches=(Mismatch(lam=P((2, 1)), k=0, expected=P((2,)), got=P((1, 1))),),
    )
    monkeypatch.setattr("oddmaps.cli.cross_validate", lambda n, jobs=1: fake)
    code, out = run_cli(capsys, "verify", "--max-n", "4")
    assert code == 1
    assert out == "checks run: 1\nmismatches: 1\n  [2,1] k=0: expected [2], got [1,1]\n"
    code, out = run_cli(capsys, "verify", "--max-n", "4", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "report": {
            "n_max": 4,
            "checks_run": 1,
            "mismatches": [{"lambda": [2, 1], "k": 0, "expected": "[2]", "got": "[1,1]"}],
        }
    }
    code, out = run_cli(capsys, "verify", "--max-n", "4", "--format", "csv")
    assert code == 1
    assert out == "n_max,checks_run,mismatches\r\n4,1,1\r\n"


def test_invariant_failure_exit_3(capsys, monkeypatch):
    def broken(lam, k):
        raise RuntimeError("2 odd 2^2-hook removals, expected exactly 1")

    monkeypatch.setattr("oddmaps.cli.remove_odd_hook", broken)
    argv = ["fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: 2 odd 2^2-hook removals" in captured.err
    assert "oddmaps fk --n 15 --k 2 --lambda '[5,4,2,2,1,1]'" in captured.err


def test_csv_output_parses(capsys):
    import csv
    import io

    code, out = run_cli(capsys, "fiber", "--n", "6", "--k", "2", "--mu", "[2]", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition"]
    assert rows[1:] == [["[6]"], ["[3,3]"], ["[2,2,1,1]"], ["[2,1,1,1,1]"]]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run_cli(
        capsys, "fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"] == [3, 2, 2, 2, 1, 1]


def test_out_write_failure_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "result.json"
    argv = ["fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]", "--out", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


# The first row of RECORDS for each command.
SMALL = {argv[0]: argv for argv in reversed(RECORDS)}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_out_file_holds_the_bytes_stdout_gets(tmp_path, capsysbinary, name, fmt):
    argv = [*SMALL[name], "--format", fmt]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == printed


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_output_is_written_as_it_is_rendered(monkeypatch, fmt):
    # At least one write per member of the 128 odd partitions of 24, none
    # longer than one partition's rendering (at most 24 parts, one a line in
    # JSON), so no format builds the whole output before it writes.
    pieces = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append))
    assert main(["odd-list", "--n", "24", "--format", fmt]) == 0
    assert len(pieces) >= 128
    assert max(map(len, pieces)) < 300


def test_stdout_write_failure_propagates(monkeypatch):
    # Only --out maps a write failure to exit 2; a closed pipe on stdout is
    # left to the interpreter, as print leaves it.
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    for fmt in ("text", "json", "csv"):
        with pytest.raises(BrokenPipeError):
            main(["odd-list", "--n", "6", "--format", fmt])


def test_verify_jobs_clamped_without_starting_processes(capsys, monkeypatch):
    created = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_executor(created))
    monkeypatch.setattr("oddmaps.oracle.os.cpu_count", lambda: 8)
    code, out = run_cli(capsys, "verify", "--max-n", "5", "--jobs", "100000")
    assert code == 0 and out == "checks run: 44\nmismatches: 0\n"
    assert created == [5]
    for jobs in ("0", "-3"):
        code, _ = run_cli(capsys, "verify", "--max-n", "5", "--jobs", jobs)
        assert code == 2
    assert created == [5]


def test_usage_errors_exit_2(capsys):
    code, _ = run_cli(capsys, "fk", "--n", "15", "--k", "2", "--lambda", "[2,3]")
    assert code == 2
    code, _ = run_cli(capsys, "fk", "--n", "14", "--k", "2", "--lambda", "[5,4,2,2,1,1]")
    assert code == 2
    code, _ = run_cli(capsys, "fk", "--n", "3", "--k", "0", "--lambda", "[2,1]")
    assert code == 2
    code, _ = run_cli(capsys, "odd-list", "--n", "99")
    assert code == 2
    code, _ = run_cli(capsys, "tower", "--lambda", "[1]", "--k", "12")
    assert code == 2
    code, _ = run_cli(capsys, "tower", "--lambda", "[5,4,2,2,1,1]", "--k", "5")
    assert code == 2
    code, _ = run_cli(capsys, "tower", "--lambda", "[5,4,2,2,1,1]", "--k", "4")
    assert code == 0
    assert main(["image", "--n", "10", "--k", "-1"]) == 2
    assert capsys.readouterr().err == "error: need 2^k < n\n"


def test_negative_fk_k_exits_2_with_its_own_message(capsys):
    code = main(["fk", "--n", "3", "--k", "-1", "--lambda", "[3]"])
    assert code == 2
    assert capsys.readouterr().err == "error: k must be non-negative\n"


def test_huge_k_exits_2_without_building_2_to_the_k(capsys):
    huge = "200000000"
    cases = [
        ("fk", "--n", "15", "--k", huge, "--lambda", "[5,4,2,2,1,1]"),
        ("fiber", "--n", "6", "--k", huge, "--mu", "[2]"),
        ("image", "--n", "6", "--k", huge),
        ("surjective", "--n", "8", "--k", huge),
        ("commute", "--n", "12", "--k", "0", "--l", huge),
        ("witness", "--n", "13", "--k", "0", "--l", huge),
    ]
    for argv in cases:
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2, argv
        assert peak < 1 << 20, (argv, peak)


def test_huge_fk_n_exits_2_before_any_work(capsys, monkeypatch):
    monkeypatch.delenv("ODDMAPS_MAX_N", raising=False)
    tracemalloc.start()
    try:
        code, _ = run_cli(capsys, "fk", "--n", "4194304", "--k", "0", "--lambda", "[4194304]")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20, peak


def test_sweep_cap_env_override(capsys, monkeypatch):
    monkeypatch.delenv("ODDMAPS_MAX_N", raising=False)
    code, _ = run_cli(capsys, "witness", "--n", "41", "--k", "0", "--l", "1")
    assert code == 2
    monkeypatch.setenv("ODDMAPS_MAX_N", "64")
    code, out = run_cli(capsys, "witness", "--n", "41", "--k", "0", "--l", "1")
    assert code == 0 and out.strip() != ""
    monkeypatch.delenv("ODDMAPS_MAX_N")
    code, _ = run_cli(capsys, "fk", "--n", "41", "--k", "0", "--lambda", "[41]")
    assert code == 2
    code, _ = run_cli(capsys, "tower", "--lambda", "[41]", "--k", "1")
    assert code == 2
    monkeypatch.setenv("ODDMAPS_MAX_N", "64")
    code, out = run_cli(capsys, "fk", "--n", "41", "--k", "0", "--lambda", "[41]")
    assert (code, out) == (0, "[40]\n")
    code, out = run_cli(capsys, "tower", "--lambda", "[41]", "--k", "1")
    assert code == 0 and out.strip() != ""
    monkeypatch.setenv("ODDMAPS_MAX_N", "100")
    code, _ = run_cli(capsys, "odd-list", "--n", "41")
    assert code == 0
    monkeypatch.setenv("ODDMAPS_MAX_N", "10")
    code, _ = run_cli(capsys, "odd-list", "--n", "11")
    assert code == 2


def test_malformed_sweep_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("ODDMAPS_MAX_N", "abc")
    code = main(["fk", "--n", "4", "--k", "0", "--lambda", "[3]"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: ODDMAPS_MAX_N must be an integer, got 'abc'\n"
    # surjective is uncapped, so it never reads the variable.
    code, out = run_cli(capsys, "surjective", "--n", "4", "--k", "0")
    assert (code, out) == (0, "true\n")
    monkeypatch.setenv("ODDMAPS_MAX_N", " 12 ")
    code, out = run_cli(capsys, "odd-list", "--n", "12")
    assert code == 0 and out.strip() != ""
    code, _ = run_cli(capsys, "odd-list", "--n", "13")
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(fmt):
    # About 1 MB of output, more than a pipe buffer holds, so the command
    # is still writing when the reader (as ``head -1`` would) closes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "oddmaps", "odd-list", "--n", "63", "--format", fmt],
        env={**os.environ, "PYTHONPATH": path, "ODDMAPS_MAX_N": "63"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, "")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_internal_invariant_failures_in_the_map_and_the_witness_exit_3(capsys, monkeypatch):
    # _only_removal requires exactly one odd slide.
    monkeypatch.setattr("oddmaps.maps._known_odd_slides", lambda x, n, step: [x, x])
    argv = ["fk", "--n", "15", "--k", "2", "--lambda", "[5,4,2,2,1,1]"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "odd 2^2-hook removals, expected exactly 1" in captured.err
    assert "command: oddmaps fk --n 15 --k 2 --lambda '[5,4,2,2,1,1]'" in captured.err
    monkeypatch.undo()
    # counterexample_witness verifies what it built: [12,1] is even, and
    # the compositions agree on [13] at (13; 0, 2).
    for built, error in (
        (P((12, 1)), "constructed witness [12,1] is not an odd partition of 13"),
        (P((13,)), "constructed witness [13] fails to separate the compositions"),
    ):
        monkeypatch.setattr("oddmaps.maps._witness_mask", lambda n, k, l: _bead_mask(built))
        assert main(["witness", "--n", "13", "--k", "0", "--l", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {error}\n" in captured.err
        assert "command: oddmaps witness --n 13 --k 0 --l 2" in captured.err


@pytest.mark.parametrize("module", ["oddmaps", "oddmaps.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", module, "odd-list", "--n", "3"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    # The odd partitions of 3: [2,1] has even degree 2.
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[3]\n[1,1,1]\n", "")


_OPTIONS = (
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --format {text,json,csv}\n"
    "  --out FILE\n"
)

# argparse wraps to the terminal width, read from COLUMNS.
HELP = {
    (): (
        "usage: oddmaps [-h]\n"
        "               {odd-list,fk,fiber,image,surjective,commute,witness,tower,verify}\n"
        "               ...\n"
        "\n"
        "Odd-hook removal maps on partitions and their classification.\n"
        "\n"
        "positional arguments:\n"
        "  {odd-list,fk,fiber,image,surjective,commute,witness,tower,verify}\n"
        "    odd-list            enumerate odd partitions of n\n"
        "    fk                  apply the odd-hook removal map\n"
        "    fiber               preimage of mu under the removal map\n"
        "    image               odd partitions missed by the removal map\n"
        "    surjective          surjectivity criterion at (n, k)\n"
        "    commute             exhaustive commutativity check at (n; k, l)\n"
        "    witness             construct a non-commutativity witness\n"
        "    tower               render the k-data table of a partition\n"
        "    verify              cross-validate against the branching oracle\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    ("odd-list",): (
        "usage: oddmaps odd-list [-h] [--format {text,json,csv}] [--out FILE] --n N\n"
        "\n" + _OPTIONS + "  --n N\n"
    ),
    ("fk",): (
        "usage: oddmaps fk [-h] [--format {text,json,csv}] [--out FILE] --n N --k K\n"
        "                  --lambda LAM\n"
        "\n" + _OPTIONS + "  --n N\n  --k K\n  --lambda LAM\n"
    ),
    ("fiber",): (
        "usage: oddmaps fiber [-h] [--format {text,json,csv}] [--out FILE] --n N --k K\n"
        "                     --mu MU\n"
        "\n" + _OPTIONS + "  --n N\n  --k K\n  --mu MU\n"
    ),
    ("image",): (
        "usage: oddmaps image [-h] [--format {text,json,csv}] [--out FILE] --n N --k K\n"
        "\n" + _OPTIONS + "  --n N\n  --k K\n"
    ),
    ("surjective",): (
        "usage: oddmaps surjective [-h] [--format {text,json,csv}] [--out FILE] --n N\n"
        "                          --k K\n"
        "\n" + _OPTIONS + "  --n N\n  --k K\n"
    ),
    ("commute",): (
        "usage: oddmaps commute [-h] [--format {text,json,csv}] [--out FILE] --n N --k\n"
        "                       K --l L\n"
        "\n" + _OPTIONS + "  --n N\n  --k K\n  --l L\n"
    ),
    ("witness",): (
        "usage: oddmaps witness [-h] [--format {text,json,csv}] [--out FILE] --n N --k\n"
        "                       K --l L\n"
        "\n" + _OPTIONS + "  --n N\n  --k K\n  --l L\n"
    ),
    ("tower",): (
        "usage: oddmaps tower [-h] [--format {text,json,csv}] [--out FILE] --lambda LAM\n"
        "                     --k K\n"
        "\n" + _OPTIONS + "  --lambda LAM\n  --k K\n"
    ),
    ("verify",): (
        "usage: oddmaps verify [-h] [--format {text,json,csv}] [--out FILE] --max-n\n"
        "                      MAX_N [--jobs JOBS]\n"
        "\n" + _OPTIONS + "  --max-n MAX_N\n  --jobs JOBS\n"
    ),
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "oddmaps")
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_cli(capsys, *command, "--help")
    assert code == 0
    assert out == HELP[command]


# One past the default cap of 40; tower is capped by |lambda|, verify by --max-n.
OVER_CAP = [
    ("odd-list", "--n", "41"),
    ("fk", "--n", "41", "--k", "0", "--lambda", "[41]"),
    ("fiber", "--n", "41", "--k", "0", "--mu", "[40]"),
    ("image", "--n", "41", "--k", "0"),
    ("commute", "--n", "41", "--k", "0", "--l", "1"),
    ("witness", "--n", "41", "--k", "0", "--l", "1"),
    ("tower", "--lambda", "[41]", "--k", "1"),
    ("verify", "--max-n", "41"),
]


@pytest.mark.parametrize("argv", OVER_CAP, ids=lambda argv: argv[0])
def test_every_capped_command_refuses_the_cap_plus_one(capsys, monkeypatch, argv):
    monkeypatch.delenv("ODDMAPS_MAX_N", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(
        f"oddmaps {argv[0]}: error: n=41 exceeds the sweep cap 40"
        " (set ODDMAPS_MAX_N to raise it)\n"
    )


def test_surjective_is_not_capped(capsys, monkeypatch):
    monkeypatch.delenv("ODDMAPS_MAX_N", raising=False)
    code, out = run_cli(capsys, "surjective", "--n", "1000000", "--k", "0")
    assert (code, out) == (0, "false\n")

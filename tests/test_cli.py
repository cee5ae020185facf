"""End-to-end command line behaviour, driven in-process."""

import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import rosa_lts.builder
import rosa_lts.cli
from gen import gen_program, ring_program
from rosa_lts import build_lts, parse_program
from rosa_lts.cli import main

SAMPLE_SOURCE = "<a,0.3>.0||{a,c}<b,inf>.0\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.rosa"
    path.write_text(SAMPLE_SOURCE, encoding="utf-8")
    return str(path)


def test_text_output_to_stdout(sample_file, capsys):
    assert main([sample_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("#0 [action] <a,0.3>.0||{a,c}b.0\n")
    assert "truncated: no" in captured.out
    assert captured.err == ""


def test_json_and_dot_formats(sample_file, capsys):
    assert main([sample_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["root"] == 0 and len(doc["nodes"]) == 2

    assert main([sample_file, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph G {\n")


def test_out_writes_file_and_keeps_stdout_clean(sample_file, tmp_path, capsys):
    target = tmp_path / "graph.dot"
    assert main([sample_file, "--format", "dot", "--out", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert target.read_text(encoding="utf-8").startswith("digraph G {\n")


def test_id_labels(sample_file, capsys):
    assert main([sample_file, "--labels", "id"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#0 [action]\n#1 [deadlock]\n")


def test_check_valid_input(sample_file, capsys):
    assert main([sample_file, "--check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_check_reports_parse_errors(tmp_path, capsys):
    path = tmp_path / "bad.rosa"
    path.write_text("P = a.\n", encoding="utf-8")
    assert main([str(path), "--check"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "expected a process" in err


@pytest.mark.parametrize(
    "source,message",
    [
        ("P = a.²\n", "1:7: unexpected character '²'"),
        ("P = <a,٣>.0\n", "1:8: unexpected character '٣'"),
        ("P = <a,1e999>.0\n", "1:8: rate must be finite, got 1e999"),
    ],
)
def test_bad_literal_is_a_one_line_error(tmp_path, capsys, source, message):
    path = tmp_path / "bad.rosa"
    path.write_text(source, encoding="utf-8")
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_duplicate_definition_is_a_validation_failure(tmp_path, capsys):
    path = tmp_path / "dup.rosa"
    path.write_text("P = a.0\nP = b.0\n", encoding="utf-8")
    assert main([str(path)]) == 2
    assert "error:" in capsys.readouterr().err


UNGUARDED = {
    "self": ("P = P\n", "P -> P"),
    "seq_unit": ("P = 0;P\n", "P -> P"),
    "seq_choice": ("P = (0-0);P\n", "P -> P"),
    "through_operators": ("P = Q||{}0\nQ = P+a.0\n", "P -> Q -> P"),
    # The cycle is first unfolded in a successor, not in the root state.
    "behind_a_guard": ("main = a.P\nP = P\n", "P -> P"),
    # No state ever unfolds P: its sync partner is never offered, or the
    # left of ';' never ends. Both are still rejected.
    "behind_a_blocked_sync": ("main = c.0 ||{b} b.P\nP = P\n", "P -> P"),
    "after_an_endless_left": ("X = a.X\nP = P\nmain = X;P\n", "P -> P"),
}


# --check runs the build's own check: every definition the root reaches.
@pytest.mark.parametrize(
    "source, cycle, flags",
    [
        pytest.param(source, cycle, flags, id=name + suffix)
        for name, (source, cycle) in UNGUARDED.items()
        for suffix, flags in (("", []), ("-check", ["--check"]))
    ],
)
def test_unguarded_recursion_exit_code(tmp_path, capsys, source, cycle, flags):
    path = tmp_path / "loop.rosa"
    path.write_text(source, encoding="utf-8")
    assert main([str(path), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: unguarded recursion: {cycle}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [[], ["--check"]])
def test_the_operand_s5_drops_is_not_checked(tmp_path, capsys, flags):
    path = tmp_path / "dead.rosa"
    path.write_text("main = a.0 *{1} P\nP = P\n", encoding="utf-8")
    assert main([str(path), *flags]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["abc", "1.5", "0"])
def test_max_states_must_be_a_positive_integer(sample_file, capsys, value):
    with pytest.raises(SystemExit) as exit_info:
        main([sample_file, "--max-states", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --max-states: must be a positive integer\n")


def test_root_override_selects_a_definition(tmp_path, capsys):
    path = tmp_path / "two.rosa"
    path.write_text("P = <a,0.5>.0\nQ = <b,0.5>.0\n", encoding="utf-8")
    assert main([str(path)]) == 0
    assert "b,0.5" in capsys.readouterr().out  # default root: last definition
    assert main([str(path), "--root", "P"]) == 0
    assert "a,0.5" in capsys.readouterr().out


def test_root_override_must_exist(sample_file, capsys):
    assert main([sample_file, "--root", "GHOST"]) == 3
    assert "GHOST" in capsys.readouterr().err


def test_an_undefined_root_lists_the_definitions_in_order(tmp_path, capsys):
    path = tmp_path / "three.rosa"
    path.write_text("Q = a.P\nP = b.Q\nmain = P\n", encoding="utf-8")
    assert main([str(path), "--root", "R"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: undefined process variable 'R'; defined: P, Q, main\n")


def test_check_looks_up_the_root_override(sample_file, capsys):
    assert main([sample_file, "--check", "--root", "GHOST"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: undefined process variable 'GHOST'; defined: main\n"
    assert main([sample_file, "--check", "--root", "main"]) == 0
    assert capsys.readouterr().err == ""


def test_truncation_warns_but_succeeds(tmp_path, capsys):
    path = tmp_path / "grow.rosa"
    path.write_text("P = a.(b.0||{}P)\n", encoding="utf-8")
    assert main([str(path), "--max-states", "2"]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "truncated: yes" in captured.out


def test_a_growing_model_stops_at_the_text_budget(tmp_path, capsys, monkeypatch):
    # Each step adds a level to the state; the warning names the budget
    # that stopped the build, and the state count it stopped at.
    for module in (rosa_lts.builder, rosa_lts.cli):
        monkeypatch.setattr(module, "STATE_TEXT_BUDGET", 10_000)
    path = tmp_path / "grow.rosa"
    path.write_text("X = <c,0.5>.(X ||{} 0)\n", encoding="utf-8")
    assert main([str(path)]) == 0
    captured = capsys.readouterr()
    assert "truncated: yes" in captured.out
    nodes = int(captured.out.split("nodes: ")[1].split()[0])
    assert nodes < 1000
    assert captured.err == (
        f"warning: stopped at {nodes} states, whose printed forms passed the "
        "size budget of 10000 characters; output is a truncated prefix of "
        "the full system\n"
    )


GOLDEN = {
    "case_study.txt": ("case_study.rosa", "--format", "text"),
    "case_study.dot": ("case_study.rosa", "--format", "dot"),
    "case_study.json": ("case_study.rosa", "--format", "json"),
    # the state limit hits inside the root's probabilistic fan-out
    "truncated_prob.txt": ("truncated_prob.rosa", "--max-states", "2"),
}


@pytest.mark.parametrize("golden", GOLDEN.keys())
def test_output_matches_golden_file(golden, tmp_path):
    source, *args = GOLDEN[golden]
    out = tmp_path / golden
    assert main([str(DATA / source), *args, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_reads_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a.0\n")))
    assert main(["-"]) == 0
    assert "#0 [action] a.0" in capsys.readouterr().out


@pytest.mark.parametrize("read_from", ["file", "stdin"])
def test_invalid_utf8_is_a_lex_error(tmp_path, read_from):
    # PYTHONIOENCODING makes stdin decode strictly, as a UTF-8 desktop
    # locale does.
    source = b"P = a.0\xff\n"
    path = tmp_path / "bad.rosa"
    path.write_bytes(source)
    from_file = read_from == "file"
    proc = subprocess.run(
        [sys.executable, "-m", "rosa_lts.cli", str(path) if from_file else "-"],
        input=b"" if from_file else source,
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 2
    assert proc.stderr == b"error: 1:8: unexpected character '\\udcff'\n"


def test_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "absent.rosa")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_a_closed_stdout_is_a_one_line_error(tmp_path):
    # The pipe's reader is gone before the first write. Run as its own
    # process, since the interpreter's final flush of stdout must not
    # fail a second time.
    path = tmp_path / "ring.rosa"
    path.write_text(ring_program(300), encoding="utf-8")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rosa_lts.cli", str(path), "--format", "json"],
            stdout=write, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_is_a_one_line_error(tmp_path, capsys):
    # The output is several times the write buffer, so the first write
    # fails within the stream, not at the close.
    path = tmp_path / "ring.rosa"
    path.write_text(ring_program(300), encoding="utf-8")
    assert main([str(path), "--format", "dot", "--out", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: cannot write /dev/full: [Errno 28] No space left on device\n")
    assert captured.out == ""


def test_a_failed_build_creates_no_file(tmp_path, capsys):
    path, out = tmp_path / "cycle.rosa", tmp_path / "out.txt"
    path.write_text("main = a.P\nP = P\n", encoding="utf-8")
    assert main([str(path), "--out", str(out)]) == 3
    assert not out.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("stage", ["parse_program", "check", "build_lts", "to_text"])
def test_out_of_memory_is_a_one_line_error(sample_file, tmp_path, capsys, monkeypatch, stage):
    # A MemoryError from any stage ends the run as the other interpreter
    # limit does, "nested too deeply": one stderr line and exit 2.
    monkeypatch.setattr(rosa_lts.cli, stage, _out_of_memory)
    out = tmp_path / "out.txt"
    argv = [sample_file, "--out", str(out)] + (["--check"] if stage == "check" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert "Traceback" not in captured.err and captured.out == ""
    # The file is opened after the build, so only a failed write leaves one.
    assert out.exists() == (stage == "to_text")


def test_a_run_holds_its_graph_and_not_its_output(tmp_path, capsys):
    # The output goes out a chunk at a time, and the source text is
    # dropped once parsed, so a run's traced peak is that of its parse
    # and build, give or take a small part of the output. Whole-string
    # writes held about two (JSON) to four (DOT) copies of it.
    path = tmp_path / "ring.rosa"
    path.write_text(ring_program(1000), encoding="utf-8")
    # The first run builds the cached argument parser and imports json.
    main([str(path), "--format", "json", "--max-states", "1", "--out", str(tmp_path / "warm")])

    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    build = traced_peak(lambda: build_lts(parse_program(path.read_text(encoding="utf-8"))))
    for fmt in ("dot", "json"):
        out = tmp_path / f"ring.{fmt}"
        peak = traced_peak(lambda: main([str(path), "--format", fmt, "--out", str(out)]))
        size = out.stat().st_size
        assert peak - build <= size / 10, (fmt, build, peak, size)


STATE_TOO_DEEP = "error: a state is nested too deeply to build\n"

DEEP_INPUTS = {
    # parses with a stack of open parentheses; the build's recursion
    # gives out on the 2,000-level choice
    "parenthesized_choice": (
        "".join(f"a{i % 5} + (" for i in range(2000)) + "0" + ")" * 2000 + "\n",
        STATE_TOO_DEEP,
    ),
    # parses in a loop; the build's recursion gives out
    "prefix_chain": (
        ".".join(f"a{i % 5}" for i in range(3000)) + ".0\n",
        STATE_TOO_DEEP,
    ),
    # parses definition by definition; canonicalization unfolds them
    # into one 600-level choice
    "unfolded_choice": (
        "".join(f"P{i} = P{i + 1} + b{i}\n" for i in range(600))
        + "P600 = 0\nmain = P0\n",
        STATE_TOO_DEEP,
    ),
}


@pytest.mark.parametrize("source,message", DEEP_INPUTS.values(), ids=DEEP_INPUTS.keys())
def test_deep_input_is_a_one_line_error(tmp_path, capsys, source, message):
    path = tmp_path / "deep.rosa"
    path.write_text(source, encoding="utf-8")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_check_gives_the_build_answer_on_a_3000_prefix_chain(tmp_path, capsys):
    # The chain parses; canonicalizing its root state gives out, as the
    # build does.
    source, message = DEEP_INPUTS["prefix_chain"]
    path = tmp_path / "chain.rosa"
    path.write_text(source, encoding="utf-8")
    assert main([str(path), "--check"]) == 2
    assert capsys.readouterr().err == message


def test_10000_nested_parentheses_build():
    # Run as its own process, as below, so that the depth is the
    # command's own.
    source = "(" * 10_000 + "a.0" + ")" * 10_000 + "\n"
    proc = subprocess.run(
        [sys.executable, "-m", "rosa_lts.cli", "-"],
        input=source,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "nodes: 2\nedges: 1\n" in proc.stdout


def test_900_action_chain_still_builds(tmp_path):
    # The build recurses once per level; at two frames per level the
    # default limit of 1,000 frames would stop it near 490 actions.
    # Run as its own process so that the test runner's frames do not
    # count against the depth the command itself reaches.
    path = tmp_path / "chain.rosa"
    path.write_text(
        ".".join(f"<a{i % 5},1.5>" for i in range(900)) + ".0\n", encoding="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "rosa_lts.cli", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "nodes: 901\nedges: 900\n" in proc.stdout


def _runs_of_every_outcome(tmp_path) -> list[list[str]]:
    """Argument vectors over the outcomes of a run: builds in all three
    formats, truncated builds, --check, failed writes, and exits 2
    and 3."""
    rng = random.Random(26)
    sources = {f"gen{k}": gen_program(rng) for k in range(50)}
    sources["parse_error"] = "P = a.\n"
    sources["guarded_cycle"] = UNGUARDED["behind_a_guard"][0]
    sources["deep_chain"] = ".".join(f"a{i % 5}" for i in range(2000)) + ".0\n"
    argvs = []
    for name, source in sources.items():
        path = tmp_path / f"{name}.rosa"
        path.write_text(source, encoding="utf-8")
        formats = ("text", "dot", "json") if name.startswith("gen") else ("text",)
        argvs += [[str(path), "--format", fmt, "--max-states", "30",
                   "--out", str(tmp_path / f"{name}.{fmt}")] for fmt in formats]
    argvs += [[str(DATA / "case_study.rosa"), "--format", fmt] for fmt in ("text", "dot", "json")]
    argvs += [[str(DATA / "case_study.rosa"), "--check"],
              [str(DATA / "truncated_prob.rosa"), "--max-states", "2"]]
    # Writes that fail: at the open, and within the stream.
    argvs.append([str(DATA / "case_study.rosa"), "--out", str(tmp_path)])
    if os.path.exists("/dev/full"):
        ring = tmp_path / "ring.rosa"
        ring.write_text(ring_program(300), encoding="utf-8")
        argvs.append([str(ring), "--format", "dot", "--out", "/dev/full"])
    return argvs


def test_a_run_makes_no_reference_cycles(tmp_path, capsys):
    # Why main may pause the cyclic collector: whatever a run makes is
    # freed by reference counting, so a collection after it finds nothing.
    argvs = _runs_of_every_outcome(tmp_path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # The first call builds the cached argparse parser, whose
        # add_argument calls leave formatter objects in cycles.
        main([str(DATA / "case_study.rosa"), "--check"])
        gc.collect()
        codes = Counter(main(argv) for argv in argvs)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert codes == {0: 155, 1: 1 + os.path.exists("/dev/full"), 2: 2, 3: 1}, codes
    err = capsys.readouterr().err
    assert STATE_TOO_DEEP in err and f"error: cannot write {tmp_path}: " in err


def test_main_restores_the_collector_setting(tmp_path, capsys):
    enabled = gc.isenabled()
    try:
        gc.disable()
        assert main([str(DATA / "case_study.rosa"), "--check"]) == 0
        assert not gc.isenabled()
        gc.enable()
        assert main([str(tmp_path / "absent.rosa")]) == 1
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            main([str(DATA / "case_study.rosa"), "--format", "xml"])
        assert gc.isenabled()
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()
    assert "invalid choice: 'xml'" in capsys.readouterr().err

"""The process entry ``cli.run``: ``python -m treelayout.cli`` and the
installed ``treelayout`` command write what ``main()`` writes in process
and exit with its code, and a failed write to stdout is reported once."""

import errno
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treelayout.cli as cli
from treelayout import gen_path, json_text, save_tree, tree_to_json
from treelayout.cli import main

ROOT = Path(__file__).resolve().parents[1]
# stdout is block-buffered, as from a shell: with PYTHONUNBUFFERED set a
# write would fail at once, never at a flush
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)


def _process(argv, cwd, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "treelayout.cli", *map(str, argv)],
        cwd=cwd, env=ENV, stdout=stdout, stderr=subprocess.PIPE)


def test_installed_command_is_the_process_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, name = re.fullmatch(r'treelayout = "([\w.]+):(\w+)"\n*',
                                scripts).groups()
    assert (module, name) == ("treelayout.cli", "run")
    assert callable(getattr(importlib.import_module(module), name))


STEPS = [
    ["gen", "random", "--n", 300, "--seed", 5, "--out", "t.json"],
    ["gen", "path", "--n", 40],
    ["layout", "aware", "--tree", "t.json", "--B", 8, "--out", "a.json",
     "--padded-out", "p.json"],
    ["layout", "oblivious", "--tree", "t.json", "--out", "o.json"],
    ["layout", "oblivious", "--tree", "t.json"],
    ["eval", "--tree", "t.json", "--layout", "a.json", "--out", "a.csv"],
    ["eval", "--tree", "t.json", "--layout", "o.json", "--B", 4, "--B", 16,
     "--offsets", "all"],
    ["eval", "--tree", "t.json", "--layout", "p.json", "--B", 8,
     "--format", "json", "--out", "p.rows.json"],
    ["sweep", "--config", "grid.json"],
]
GRID = {"families": {"path": [20], "perfect": [15], "random": [30]},
        "Bs": [2, 4], "depths": "all", "offsets": "all",
        "summary_out": "grid.summary.json"}


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_process_writes_the_bytes_of_main(tmp_path, monkeypatch, capsys):
    inproc, proc = tmp_path / "main", tmp_path / "run"
    for d in (inproc, proc):
        d.mkdir()
        (d / "grid.json").write_text(json.dumps(GRID))
    monkeypatch.chdir(inproc)
    for argv in STEPS:
        assert main(list(map(str, argv))) == 0, argv
        out = capsys.readouterr().out.encode()
        done = _process(argv, proc)
        assert (done.returncode, done.stdout) == (0, out), argv
        assert b"ERROR" not in done.stderr, argv
    assert _files(proc) == _files(inproc)
    assert len(_files(proc)) == 8


@pytest.mark.parametrize("argv,code", [
    (["layout", "aware", "--tree", "t.json"], 2),
    (["eval", "--tree", "t.json", "--layout", "t.json", "--B", 0], 3),
    (["layout", "oblivious", "--tree", "missing.json"], 3),
    (["gen", "perfect", "--height", 999], 4),
], ids=["usage", "bad-input", "missing-file", "too-large"])
def test_process_exits_with_the_code_of_main(tmp_path, argv, code):
    save_tree(gen_path(5), tmp_path / "t.json")
    done = _process(argv, tmp_path)
    assert (done.returncode, done.stdout) == (code, b"")
    err = done.stderr.decode()
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("usage: ") and ": error: " in err, err
    else:
        assert err.count("\n") == 1 and err.startswith("ERROR "), err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["gen", "path", "--n", 5],
    ["oracle", "--tree", "t.json", "--B", 2, "--D", 2],
], ids=["gen", "oracle"])
def test_failed_stdout_write_exits_3_with_one_line(tmp_path, argv):
    # the output fits stdout's buffer, so the write fails only when the
    # buffer is flushed: main flushes it and reports the error, and run
    # exits without the interpreter's own flush at teardown
    save_tree(gen_path(5), tmp_path / "t.json")
    with open("/dev/full", "w") as full:
        done = _process(argv, tmp_path, stdout=full)
    errors = [line for line in done.stderr.decode().splitlines()
              if not line.startswith("INFO ")]
    assert (done.returncode, errors) == (3, [
        f"ERROR [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"])


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["layout", "--help"]],
                         ids=["top", "layout"])
def test_failed_help_write_exits_1_at_run(tmp_path, argv):
    # argparse prints the help into stdout's buffer and exits inside
    # main; run flushes the buffer, finds the write failed, and exits 1
    # without the interpreter's own flush at teardown
    with open("/dev/full", "w") as full:
        done = _process(argv, tmp_path, stdout=full)
    assert (done.returncode, done.stderr) == (1, b"")


def test_process_started_without_stdout_writes_its_file(tmp_path):
    # with file descriptor 1 closed, Python starts with sys.stdout None
    done = subprocess.run(
        [sys.executable, "-m", "treelayout.cli", "gen", "path", "--n", "5",
         "--out", "t.json"],
        cwd=tmp_path, env=ENV, stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "t.json").read_bytes() == json_text(
        tree_to_json(gen_path(5))).encode()


def test_exception_from_main_propagates_through_run(monkeypatch):
    def fail():
        raise RuntimeError("boom")

    def exit_(code):
        raise AssertionError("run exited")

    monkeypatch.setattr(cli, "main", fail)
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(RuntimeError, match="boom"):
        cli.run()

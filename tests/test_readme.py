"""The README's examples and its error table answer as the README says.

Every ``hmrkit`` command of a ``sh`` block that names no file (an
``--input`` path other than ``-``, a ``--csv`` or an ``--output``) runs
through ``cli.run`` and must exit 0; an ``echo '...' |`` in front of it is
its stdin.  Every row of the error table runs the same way, from an empty
directory, and must answer with the row's error code and exit code and
name the row's text in its message (``—``: the row names nothing).  The
``python`` block must print what the comment under it says.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import shlex
from pathlib import Path

from hmrkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_TABLE = "| Request | Code | Exit | Message names |"


def readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.M | re.S)


def names_a_file(argv: list[str]) -> bool:
    return "--csv" in argv or "--output" in argv or (
        "--input" in argv and argv[argv.index("--input") + 1] != "-")


def split_request(line: str) -> tuple[list[str], str]:
    """The words of a command line, and the stdin that an ``echo '...' |``
    in front of it gives."""
    words, stdin = shlex.split(line, comments=True), ""
    if "|" in words:
        pipe = words.index("|")
        assert words[0] == "echo", line
        stdin, words = " ".join(words[1:pipe]), words[pipe + 1:]
    return words, stdin


def readme_requests() -> list[tuple[list[str], str]]:
    """(argv, stdin) of every README command that names no file."""
    out = []
    for block in readme_blocks("sh"):
        for words, stdin in map(split_request, block.splitlines()):
            if words[:1] == ["hmrkit"] and not names_a_file(words):
                out.append((words[1:], stdin))
    return out


def table_rows(header: str) -> list[list[str]]:
    """The cells of each row of the README table under ``header``, code
    spans unwrapped and ``\\|`` read as ``|``."""
    lines = README.read_text().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(header) + 2:])
    return [[cell.strip().strip("`").replace("\\|", "|")
             for cell in re.split(r"(?<!\\)\|", row)[1:-1]] for row in rows]


def test_readme_commands_answer(capsys, monkeypatch):
    requests = readme_requests()
    # every subcommand but morse and flow, whose examples read files
    assert {argv[0] for argv, _ in requests} == {
        "brieskorn", "psc", "lens", "index", "seifert-matrix", "spinc",
        "fixtures-selftest"}
    failed = []
    for argv, stdin in requests:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = cli.run(argv)
        out = capsys.readouterr().out
        if code != 0:
            failed.append((argv, code, out))
    assert not failed


def test_readme_error_table_answers(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    rows = table_rows(ERROR_TABLE)
    failed = []
    for request, code, exit_code, named in rows:
        words, stdin = split_request(request)
        assert words[0] == "hmrkit", request
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        got = cli.run(words[1:])
        error = json.loads(capsys.readouterr().out)["error"]
        if (error["code"], got) != (code, int(exit_code)) or \
                named != "—" and named not in error["message"]:
            failed.append((request, got, error))
    assert not failed
    # no row wrote a file
    assert not list(tmp_path.iterdir())
    assert {code for _, code, _, _ in rows} == {
        "invalid_input", "malformed_json", "file_not_found",
        "shape_mismatch", "composition_nonzero", "grading_violation",
        "degenerate_spectrum", "step_too_large", "malformed_orbit_map",
        "not_chain_map", "not_divisible_by_8", "not_coprime",
        "unknown_family"}


def test_readme_python_example_prints_its_comment():
    (block,) = readme_blocks("python")
    lines = block.splitlines()
    code = "\n".join(line for line in lines if not line.startswith("#"))
    want = [line[2:] for line in lines if line.startswith("# ")]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want

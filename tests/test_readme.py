"""The README's examples answer as the README says.

Every ``hmrkit`` command of a ``sh`` block that names no file (an
``--input`` path other than ``-``, a ``--csv`` or an ``--output``) runs
through ``cli.run`` and must exit 0; an ``echo '...' |`` in front of it is
its stdin.  The ``python`` block must print what the comment under it
says.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from hmrkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.M | re.S)


def names_a_file(argv: list[str]) -> bool:
    return "--csv" in argv or "--output" in argv or (
        "--input" in argv and argv[argv.index("--input") + 1] != "-")


def readme_requests() -> list[tuple[list[str], str]]:
    """(argv, stdin) of every README command that names no file."""
    out = []
    for block in readme_blocks("sh"):
        for line in block.splitlines():
            words, stdin = shlex.split(line, comments=True), ""
            if "|" in words:
                pipe = words.index("|")
                assert words[0] == "echo", line
                stdin, words = " ".join(words[1:pipe]), words[pipe + 1:]
            if words[:1] == ["hmrkit"] and not names_a_file(words):
                out.append((words[1:], stdin))
    return out


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


def test_readme_python_example_prints_its_comment():
    (block,) = readme_blocks("python")
    lines = block.splitlines()
    code = "\n".join(line for line in lines if not line.startswith("#"))
    want = [line[2:] for line in lines if line.startswith("# ")]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want

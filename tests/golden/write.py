"""Rewrite ``tests/golden/answers.json`` from the current code.

    python tests/golden/write.py

It prints each request whose answer changed, was added or was removed
against the table it replaces, as the argv and the first 12 hex digits of
the body's sha256.  A change that alters a digest names the request and
the reason in CHANGES.md.
"""

import json
import shlex
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import GOLDEN, answer, requests, run_request  # noqa: E402


def by_request(table: list) -> dict:
    return {(shlex.join(e["argv"]), e["body_sha256"][:12]): e for e in table}


old = by_request(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else [])
table = [answer(argv, body, *run_request(argv, body))
         for argv, body in requests()]
new = by_request(table)
for key, entry in new.items():
    if key in old and old[key] != entry:
        print("changed", *key, sep="  ")
    elif key not in old:
        print("added", *key, sep="  ")
for key in sorted(old.keys() - new.keys()):
    print("removed", *key, sep="  ")
GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
print(f"{len(table)} requests written to {GOLDEN}")

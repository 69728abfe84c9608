"""Rewrite ``tests/golden/answers.json`` from the current code.

    python tests/golden/write.py

A change that alters a digest names the request and the reason in
CHANGES.md.
"""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import GOLDEN, answer, requests  # noqa: E402

table = [answer(argv, body) for argv, body in requests()]
GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
print(f"{len(table)} requests written to {GOLDEN}")

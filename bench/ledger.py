"""Known-failure ledger: the inputs that fail at the parent commit, and why.

Every failed job is matched against these entries by what it was (its
spec) and how it failed (:func:`oracles.failure_signature`).  A run
reports, per entry, how many failures it explained, plus every failure no
entry explains.  A fix shows up as a drop in an entry's count; an
unexplained failure is a regression or a new defect.  No input is left
out of a workload because it fails.

``flow``, ``chain`` and ``census`` have no entries: every job there passes
at the parent commit.
"""

from __future__ import annotations

from workloads import DIM1_FIXTURES


def _is_dim1_spinc(spec):
    return spec.get("command") == "spinc" and \
        spec["args"][spec["args"].index("--fixture") + 1] in DIM1_FIXTURES


LEDGER = (
    {
        "id": "spinc-dim1-indexerror",
        "workload": "cli",
        "matches": _is_dim1_spinc,
        "signatures": ("traceback:IndexError",),
        "reason": "spinc on point_pair, circle_antipodal and "
                  "circle_reflection: the census reads 2-cells that a "
                  "dimension-1 fixture does not have (IndexError)",
    },
    {
        "id": "malformed-traceback",
        "workload": "cli",
        "matches": lambda s: s.get("malformed") in (
            "empty_object", "empty_list", "non_numeric"),
        "signatures": ("traceback:KeyError", "traceback:TypeError",
                       "traceback:ValueError"),
        "reason": "{}, [] or non-numeric fields end in a KeyError, "
                  "TypeError or ValueError traceback with exit 1, not a "
                  "coded error with exit 2",
    },
    {
        "id": "flow-zero-step",
        "workload": "cli",
        "matches": lambda s: s.get("malformed") == "zero_step",
        "signatures": ("traceback:ZeroDivisionError",),
        "reason": "flow with step 0 divides t_max by the step "
                  "(ZeroDivisionError)",
    },
    {
        "id": "seifert-snf-blowup",
        "workload": "cli",
        "matches": lambda s: s.get("command") == "seifert-matrix"
        and s.get("genus", 0) >= 4,
        "signatures": ("timeout",),
        "reason": "seifert-matrix of genus 4 or 5: the smallest-pivot "
                  "Smith normal form behind int_rank lets entries grow "
                  "without bound and misses the deadline",
    },
)


def explain(workload: str, failures) -> dict:
    """Match (spec, signature) failures to ledger entries.

    Returns ``{"entries": {id: count}, "unexplained": [...]}``.
    """
    counts = {e["id"]: 0 for e in LEDGER if e["workload"] == workload}
    unexplained = []
    for spec, signature in failures:
        for e in LEDGER:
            if e["workload"] == workload and e["matches"](spec) and \
                    signature in e["signatures"]:
                counts[e["id"]] += 1
                break
        else:
            unexplained.append({"job": _label(spec), "signature": signature})
    return {"entries": counts, "unexplained": unexplained}


def _label(spec) -> str:
    if spec.get("kind") == "cli":
        return " ".join(spec["args"])
    return spec.get("kind", "?")

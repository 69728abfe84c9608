"""Batch command-line frontend: JSON in, JSON report out.

Every subcommand reads explicit flags and/or a JSON input file, runs one
library computation, and writes a deterministic JSON report (sorted keys,
fixed separators) to stdout or ``--output``.  The README's "Command line"
section states which requests are refused, with which error code and
exit code, as a table that ``tests/test_readme.py`` runs.

Each process runs one subcommand, so the module imports only ``errors``
at load time, and each handler imports the library names it calls; the
parser lists no ``--fixture`` names, so that it needs no fixture module.
Only ``morse``, ``flow`` and ``fixtures-selftest`` load numpy, ``morse``
and ``flow`` only once the body's fields are read and checked, ``flow``'s
scalars against their ranges too; none loads ``dataclasses``.  A name
imported inside a handler is looked up on its defining module at each
call, so rebinding it there reaches the CLI.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

from .errors import (DegenerateSpectrum, FileNotFound, HmrkitError,
                     InvalidInput, MalformedJson, ShapeMismatch,
                     check_flow_scalars, input_field, input_float, input_int,
                     input_list, input_object, json_words)

SELFTEST_BUDGET_SECONDS = 60.0

# Pinned example values: ``fixtures-selftest`` re-runs them, and acceptance
# criteria 2, 4, 5, 6 and 8 check them beside their own cases and oracles.
#: (fixture, number of real spin-c structures)
LENS_CENSUS = (("lens_3_1", 3), ("lens_5_1", 5), ("lens_7_1", 7))
#: census size and real_structure_classes of ``s1_x_s2_rotation``
ROTATION_CENSUS = (2, [2])
#: (check name, Seifert matrix, |H_1| with 0 for infinite, b_1)
BRANCHED_COVERS = (
    ("unknot_cover", [], 1, 0),
    ("trefoil_cover", [[-1, 1], [0, -1]], 3, 0),
    ("figure_eight_cover", [[1, -1], [0, -1]], 5, 0),
    ("split_unlink_cover", [[0]], 0, 1),
)
#: the three-sphere tower: fiber spectrum, grading shift, and the ranks of
#: check, hat and bar homology by grading
S3_TOWER = (
    tuple(range(-10, 0)) + tuple(range(1, 11)), -10,
    {"check": dict.fromkeys(range(0, 10), 1),
     "hat": dict.fromkeys(range(-9, 1), 1),
     "bar": dict.fromkeys(range(-10, 10), 1)},
)
#: (n, fiber spectrum k - (n + 1)/2 + 1/4 for k = 1..n, total bar rank) of
#: the RP^(n-1) models; criterion 2 draws random fibers of the same sizes
RP_MODELS = tuple(
    (n, tuple(k - (n + 1) / 2 + 0.25 for k in range(1, n + 1)), n)
    for n in range(2, 9))
#: (check name, family, k, finite part of check, hat undetermined)
BRIESKORN_ANSWERS = (
    ("brieskorn_2_3_13", "2,3,+1", 2, ((0, 2),), False),
    ("brieskorn_2_3_11_hat_open", "2,3,-1", 2, ((0, 2),), True),
    ("brieskorn_2_5_19", "2,5,-1", 2, ((0, 2), (1, 2), (2, 2)), False),
    ("brieskorn_2_7_29", "2,7,29", 1,
     ((0, 2), (2, 2), (4, 2), (5, 4), (6, 2)), False),
)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _dump(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(obj, args) -> int:
    text = _dump(obj, args.pretty)
    if args.output and args.output != "-":
        _file(args.output, "--output", text)
    else:
        sys.stdout.write(text)
    return 0


def _file(path: str, flag: str, text=None):
    """The text of the file at ``path``, given by ``flag``, or ``text``
    written there, newlines untranslated.  A path that cannot be opened,
    read or written, a full device too, is InvalidInput naming the flag,
    or FileNotFound if it does not exist."""
    try:
        with open(path, "r" if text is None else "w", newline="") as fh:
            return fh.read() if text is None else fh.write(text)
    except OSError as exc:
        error = FileNotFound if isinstance(exc, FileNotFoundError) \
            else InvalidInput
        verb = "read" if text is None else "written"
        raise error(f"{flag} {path!r} cannot be {verb}: "
                    f"{exc.strerror}") from None


def _load_input(args) -> dict:
    """The body of ``--input``: unreadable text is MalformedJson."""
    try:
        return json.loads(sys.stdin.read() if args.input == "-"
                          else _file(args.input, "--input"))
    except json.JSONDecodeError as exc:
        raise MalformedJson(str(exc)) from None
    except UnicodeDecodeError:
        raise MalformedJson("input is not UTF-8 text") from None
    except ValueError:  # the one other refusal of json.loads
        raise MalformedJson("an integer literal has too many digits") from None
    except RecursionError:
        raise MalformedJson("input is nested too deeply") from None


def _graded(ranks: dict) -> list:
    return [[g, r] for g, r in sorted(ranks.items()) if r]


def _triple_json(triple) -> dict:
    hat, check, bar = triple
    return {"hat": hat.to_json(), "check": check.to_json(),
            "bar": bar.to_json()}


def _parse_window(text: str):
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise InvalidInput(f"--window must be lo:hi with integer ends, "
                           f"got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _finite_float(value) -> float:
    out = input_float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {json_words(out)}")
    return out


def _vector(value) -> list:
    return [_finite_float(x) for x in input_list(value)]


def _square(value) -> list:
    """n >= 1 arrays of n finite numbers, read a level at a time like
    :func:`_vector`: without numpy, and no depth of nesting recurses."""
    rows = input_list(value)
    if not rows:
        raise ValueError("expected a square array of arrays, got an empty one")
    for row in rows:
        if len(input_list(row)) != len(rows):
            raise ValueError(f"expected a square array of arrays, got an "
                             f"array of {len(rows)} holding an array of "
                             f"{len(row)}")
    return [_vector(row) for row in rows]


def _label(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"a label must be a string, got {json_words(value)}")
    return value


def _base_points(value) -> list:
    return [(_label(p["label"]), input_int(p["ind_q"]), _square(p["fiber"]))
            for p in map(input_object, input_list(value))]


def _fiber_model(label: str, fiber: list):
    """The LinearFlowModel of the fiber of point ``label``; a refusal keeps
    its code and names the point.  The reader made the fiber square, so a
    ShapeMismatch means it is not symmetric."""
    from .morse_blowup import LinearFlowModel

    try:
        return LinearFlowModel(fiber)
    except (ShapeMismatch, DegenerateSpectrum) as exc:
        reason = f"whose {exc}" if isinstance(exc, DegenerateSpectrum) \
            else "that is not symmetric"
        raise type(exc)(f"point {json_words(label)} of input field "
                        f"'points' has a fiber {reason}") from None


def _cmd_morse(args) -> int:
    raw = _load_input(args)
    points = input_field(raw, "points", _base_points)
    from .f2lin import read_counts

    counts = input_field(raw, "counts",
                         lambda v: read_counts(v, len(points)), None)
    shift = input_field(raw, "grading_shift", input_int, 0)
    from .complexes import assemble, homology, les_maps, verify_les_exact
    from .morse_blowup import BaseMorseData, BasePoint, build_model_complexes

    base = BaseMorseData(
        tuple(BasePoint(label, ind_q, _fiber_model(label, fiber))
              for label, ind_q, fiber in points), counts)
    blocks = build_model_complexes(base, shift)
    cx = assemble(blocks)
    maps = les_maps(blocks)
    report = {
        "generators": [
            {"id": g.id, "kind": g.kind, "gr": g.gr}
            for g in blocks.gens_o + blocks.gens_s + blocks.gens_u
        ],
        # homology raises CompositionNonzero unless d.d = 0, so this
        # holds for any report that is written
        "d_squared": True,
        "homology": {f: _graded(homology(cx, f))
                     for f in ("check", "hat", "bar")},
        "les_exact": verify_les_exact(cx, maps),
    }
    return _emit(report, args)


def _cmd_flow(args) -> int:
    if (args.samples or args.csv) and args.stride < 1:
        raise InvalidInput(f"--stride must be a positive integer, "
                           f"got {args.stride}")
    raw = _load_input(args)
    matrix = input_field(raw, "L", _square)
    phi0 = input_field(raw, "phi0", _vector, None)
    s0 = input_field(raw, "s0", _finite_float, 0.0)
    t_max = input_field(raw, "t_max", input_float)
    step = input_field(raw, "step", input_float)
    if phi0 is None and args.seed < 0:
        raise InvalidInput(f"--seed must be a non-negative integer, "
                           f"got {args.seed}")
    check_flow_scalars(s0, t_max, step)
    import numpy as np

    from .morse_blowup import (LinearFlowModel, closed_form_phi,
                               integrate_blowup_flow, limiting_eigen_index)

    model = LinearFlowModel(matrix)
    if phi0 is not None:
        phi0 = np.array(phi0, dtype=float)
    else:
        rng = np.random.default_rng(args.seed)
        phi0 = rng.standard_normal(model.n)
        phi0 /= np.linalg.norm(phi0)
    traj = integrate_blowup_flow(model, phi0, s0, t_max, step)
    exact = closed_form_phi(model, phi0, float(traj.times[-1]))
    sign = 1.0 if float(exact @ traj.terminal_phi) >= 0 else -1.0
    index = limiting_eigen_index(model, phi0)
    report = {
        "converged": traj.converged,
        "terminal_lambda": round(traj.terminal_lambda, 12),
        "predicted_eigen_index": index,
        "predicted_eigenvalue": round(float(model.eigenvalues[index - 1]),
                                      12),
        "closed_form_deviation": round(
            float(np.max(np.abs(sign * exact - traj.terminal_phi))), 12),
        "terminal_phi": [round(float(x), 12) for x in traj.terminal_phi],
    }
    if args.samples:
        report["trajectory"] = traj.to_json(stride=args.stride)
    if args.csv:
        # every field is a number, so no CSV field needs quoting
        rows = [["t", *(f"phi{i}" for i in range(model.n)), "s", "lambda"]]
        rows += [[f"{p['t']:.6f}", *(f"{x:.9f}" for x in p["phi"]),
                  f"{p['s']:.9f}", f"{p['lambda']:.9f}"]
                 for p in traj.to_json(stride=args.stride)["samples"]]
        _file(args.csv, "--csv", "".join(",".join(r) + "\r\n" for r in rows))
    return _emit(report, args)


def _cmd_spinc(args) -> int:
    from .cw_fixtures import build_fixture
    from .real_spinc import (EquivariantCWData, real_spinc_torsor,
                             real_structure_classes)

    if args.fixture:
        data = build_fixture(args.fixture)
    else:
        data = EquivariantCWData.from_json(_load_input(args))
    census = real_spinc_torsor(data)
    report = {
        "dim": data.dim,
        "cells_M": list(data.cells_M),
        "cells_Q": list(data.cells_Q),
        # the constructor derives delta_Q so that Theta commutes, and its
        # orbit checks imply pi* Theta = 1 + iota*, so both hold for any
        # data that constructs
        "theta_chain_map": True,
        "naturality": True,
        "census": {
            "exists": census.exists,
            "size": census.size(),
            "kernel_invariants": list(census.kernel_invariants),
            "h1_invariants": list(census.h1_invariants),
        },
        "real_structure_classes": real_structure_classes(data),
    }
    return _emit(report, args)


def _cmd_brieskorn(args) -> int:
    from .seifert_hmr import BrieskornInput, brieskorn_hmr, divisor_count

    window = _parse_window(args.window) if args.window else None
    inp = BrieskornInput(args.family, args.k, window)
    res = brieskorn_hmr(inp)
    report = {
        "family": args.family,
        "k": args.k,
        "pqr": list(inp.pqr),
        "spectrum": [[g, c] for g, c in res.spectrum.counts],
        "theta_minus1_grading": res.spectrum.theta_minus1_grading,
        "divisor_pairs": divisor_count(*inp.pqr),
        "truncation": list(res.truncation),
        # every differential block of the model is zero, so d.d = 0 holds
        # for any report that is written
        "d_squared": True,
        **_triple_json((res.hat, res.check, res.bar)),
    }
    return _emit(report, args)


def _cmd_lens(args) -> int:
    from .seifert_hmr import lens_hmr

    count, triple = lens_hmr(args.p, args.q)
    report = {
        "p": args.p,
        "q": args.q,
        "count": count,
        "summand": _triple_json(triple),
    }
    return _emit(report, args)


def _cmd_psc(args) -> int:
    from .seifert_hmr import psc_hmr

    report = {
        "b1": args.b1,
        "torsion": args.torsion,
    }
    report.update(_triple_json(psc_hmr(args.b1, args.torsion)))
    return _emit(report, args)


def _cmd_index(args) -> int:
    from .index_grading import TopologicalData4, closed4_index

    for flag in ("b1", "bplus", "b0"):
        if getattr(args, flag) < 0:
            raise InvalidInput(f"--{flag} is a dimension; it must be "
                               f"nonnegative, got {getattr(args, flag)}")
    d = TopologicalData4(args.c1sq, args.sigma, args.b1, args.bplus, args.b0)
    return _emit({"index": closed4_index(d)}, args)


def _cmd_seifert_matrix(args) -> int:
    from .f2lin import IntMatrix
    from .real_spinc import SeifertMatrix, branched_cover_invariants

    matrix = input_field(_load_input(args), "data", IntMatrix.from_rows)
    order, b1 = branched_cover_invariants(SeifertMatrix(matrix))
    return _emit({"h1_order": order, "b1": b1}, args)


# ---------------------------------------------------------------------------
# fixtures selftest
# ---------------------------------------------------------------------------


def _selftest_checks():
    """(name, thunk) pairs re-running the library's pinned example values."""
    import numpy as np

    from .complexes import assemble, homology
    from .cw_fixtures import build_fixture
    from .f2lin import IntMatrix
    from .index_grading import (TopologicalData4, closed4_index,
                                loop_grading_shift)
    from .morse_blowup import (BaseMorseData, BasePoint, LinearFlowModel,
                               build_model_complexes)
    from .real_spinc import (SeifertMatrix, branched_cover_invariants,
                             real_spinc_torsor, real_structure_classes)
    from .seifert_hmr import BrieskornInput, brieskorn_hmr, lens_hmr, psc_hmr

    def fiber_complex(spectrum, shift=0):
        model = LinearFlowModel(np.diag(np.array(spectrum, dtype=float)))
        base = BaseMorseData((BasePoint("q", 0, model),))
        return assemble(build_model_complexes(base, shift))

    def rp_model(spectrum, bar_total):
        cx = fiber_complex(spectrum)
        return sum(homology(cx, "bar").values()) == bar_total

    def s3_tower():
        spectrum, shift, ranks = S3_TOWER
        cx = fiber_complex(spectrum, shift)
        return all(homology(cx, f) == r for f, r in ranks.items())

    def census_size(name, size):
        return real_spinc_torsor(build_fixture(name)).size() == size

    def rotation_census():
        data = build_fixture("s1_x_s2_rotation")
        return (real_spinc_torsor(data).size(),
                real_structure_classes(data)) == ROTATION_CENSUS

    def branched(a, order, b1):
        m = SeifertMatrix(IntMatrix.from_rows(a))
        return branched_cover_invariants(m) == (order, b1)

    def brieskorn_family(family, k, finite, undetermined):
        res = brieskorn_hmr(BrieskornInput(family, k))
        return (res.check.finite, res.hat.undetermined) == \
            (finite, undetermined)

    def psc_single_towers():
        hat, check, bar = psc_hmr(0, True)
        return (hat.rank_at(0), check.rank_at(0), bar.rank_at(-3)) == \
            (1, 1, 1)

    checks = [
        ("s3_tower_ranks", s3_tower),
        ("psc_b1_zero", psc_single_towers),
        ("index_example", lambda: closed4_index(
            TopologicalData4(8, 0, 1, 1, 0)) == 1),
        ("loop_shift", lambda: loop_grading_shift(4) == 2),
        ("rotation_census", rotation_census),
    ]
    checks += [(name, partial(branched, *case))
               for name, *case in BRANCHED_COVERS]
    checks += [(name, partial(brieskorn_family, *case))
               for name, *case in BRIESKORN_ANSWERS]
    checks.append(("lens_answer_count", lambda: lens_hmr(5, 2)[0] == 5))
    checks += [(f"rp_model_n{n}", partial(rp_model, *case))
               for n, *case in RP_MODELS]
    checks += [(f"census_{name}", partial(census_size, name, size))
               for name, size in LENS_CENSUS]
    return checks


def _cmd_fixtures_selftest(args) -> int:
    started = time.monotonic()
    results = []
    for name, thunk in _selftest_checks():
        try:
            ok = bool(thunk())
        except HmrkitError:
            ok = False
        results.append({"name": name, "ok": ok})
    elapsed = time.monotonic() - started
    if elapsed > SELFTEST_BUDGET_SECONDS:
        print(f"warning: selftest took {elapsed:.1f}s "
              f"(budget {SELFTEST_BUDGET_SECONDS:.0f}s)", file=sys.stderr)
    report = {
        "checks": results,
        "all_ok": all(r["ok"] for r in results),
    }
    _emit(report, args)
    return 0 if report["all_ok"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmrkit",
        description="blow-up Morse models, real-structure censuses and "
                    "Floer tower calculators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        p.add_argument("--output", default="-",
                       help="report path ('-' for stdout)")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON report")
        if needs_input:
            p.add_argument("--input", required=True,
                           help="input JSON path ('-' for stdin)")

    p = sub.add_parser("morse", help="assemble a blow-up model complex")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_morse)

    p = sub.add_parser("flow", help="integrate the blown-up gradient flow")
    common(p, needs_input=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for a random phi0 when the input omits it")
    p.add_argument("--samples", action="store_true",
                   help="include sampled trajectory points in the report")
    p.add_argument("--stride", type=int, default=100,
                   help="sampling stride for --samples/--csv")
    p.add_argument("--csv", default=None,
                   help="optional CSV trajectory dump path")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("spinc", help="real-structure census from CW data")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="CW JSON path ('-' for stdin)")
    group.add_argument("--fixture", help="built-in equivariant CW fixture")
    p.set_defaults(func=_cmd_spinc)

    p = sub.add_parser("brieskorn", help="Brieskorn-family tower modules")
    common(p)
    p.add_argument("--family", required=True,
                   help="one of 2,3,+1 / 2,3,-1 / 2,5,-1 / 2,5,+1 / 2,7,29")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--window", default=None,
                   help="truncation window lo:hi (default derived)")
    p.set_defaults(func=_cmd_brieskorn)

    p = sub.add_parser("lens", help="lens-space answer per real spin-c")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_lens)

    p = sub.add_parser("psc", help="positive-scalar-curvature tower modules")
    common(p)
    p.add_argument("--b1", type=int, required=True)
    torsion = p.add_mutually_exclusive_group(required=True)
    torsion.add_argument("--torsion", dest="torsion", action="store_true")
    torsion.add_argument("--no-torsion", dest="torsion",
                         action="store_false")
    p.set_defaults(func=_cmd_psc)

    p = sub.add_parser("index", help="closed-4-manifold index formula")
    common(p)
    p.add_argument("--c1sq", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--bplus", type=int, required=True)
    p.add_argument("--b0", type=int, required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("seifert-matrix",
                       help="branched double cover invariants")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_seifert_matrix)

    p = sub.add_parser("fixtures-selftest",
                       help="re-run the pinned example values")
    common(p)
    p.set_defaults(func=_cmd_fixtures_selftest)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HmrkitError as exc:
        sys.stdout.write(_dump(
            {"error": {"code": exc.code, "message": str(exc)}},
            args.pretty))
        return 2 if isinstance(exc, InvalidInput) else 1
    except MemoryError:
        sys.stdout.write(_dump({"error": {
            "code": "out_of_memory",
            "message": f"{args.command} ran out of memory"}}, args.pretty))
        return 2


def main(argv=None):
    try:
        code = run(argv)
        sys.stdout.flush()
    except OSError:
        # stdout cannot take the report (its reader is gone, its device is
        # full); point it at devnull, so that the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()

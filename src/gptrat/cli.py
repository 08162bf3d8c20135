"""Command-line interface.

Exit codes, from _EXIT_CODES: 0 success, 1 usage error, 2 file parse
error, 3 validation error, 4 I/O error, 5 solver error (the LP solver
reached no trustworthy verdict).  Scalar results print with 9 decimal
places; structured results print as JSON with sorted keys, so output is
byte-stable across runs.  main builds its parser once per process and
keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import harmonic_mean
from .errors import InputError, ParseError, SolverError, ValidationError
from .io import measurement_from_file, theory_from_file
from .jointness import check_compatible, incompatibility_degree
from .polygons import (
    parity_class,
    polygon_compatible_max,
    polygon_rat_closed_form,
    sweep,
    verify_table,
)
from .rat import certify_incompatibility, classical_rac_value, compatible_bound, rat_success
from .storability import decoding_power, information_storability
from .zoo import polygon


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="gptrat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("polygon", help="closed-form quantities of the regular n-gon")
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("quantity", choices=[*_POLYGON_VALUES, "verify-table"])
    p_poly.set_defaults(func=cmd_polygon)

    # expected: the number of --measurement arguments the command needs, if fixed
    for name, help_text, payload, expected in (
        ("rat", "random access test of measurements from files", _rat_payload, None),
        ("compat", "joint measurement feasibility", _compat_payload, None),
        ("degree", "degree of incompatibility of a pair", _degree_payload, 2),
    ):
        p_files = sub.add_parser(name, help=help_text)
        p_files.add_argument("--theory", required=True)
        p_files.add_argument("--measurement", action="append", required=True)
        p_files.set_defaults(func=cmd_files, payload=payload, expected=expected)

    p_sweep = sub.add_parser("sweep", help="per-n polygon summary as CSV")
    p_sweep.add_argument("--min", type=int, required=True)
    p_sweep.add_argument("--max", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


# the scalar quantities of gptrat polygon; verify-table prints a table
_POLYGON_VALUES = {
    "lmax": lambda n: information_storability(polygon(n)).value,
    "rat-max": polygon_rat_closed_form,
    "comp-max": polygon_compatible_max,
}


def cmd_polygon(args) -> int:
    n = args.n
    if args.quantity == "verify-table":
        report = verify_table(n)
        print(f"n={report.n} class={report.parity} expected={report.expected:.9f}")
        for v in report.variants:
            states = ",".join(str(j) for j in v.state_labels)
            flag = "ok" if v.ok else "MISMATCH"
            print(f"f={v.f_label} t=({states}) value={v.value:.9f} {flag}")
        good = sum(1 for v in report.variants if v.ok)
        print(f"summary: {good}/{len(report.variants)} variants ok")
        return 0 if report.all_ok else 3
    print(f"{_POLYGON_VALUES[args.quantity](n):.9f}")
    if n >= 4:
        print(f"class: {parity_class(n)}")
    return 0


def cmd_files(args) -> int:
    theory = theory_from_file(args.theory)
    # the count is checked before any measurement file is read
    if args.expected is not None and len(args.measurement) != args.expected:
        raise InputError(f"expected exactly {args.expected} --measurement arguments")
    ms = [measurement_from_file(p, theory) for p in args.measurement]
    print(json.dumps(args.payload(ms, theory), indent=2, sort_keys=True))
    return 0


def _rat_payload(ms, theory) -> dict:
    report = rat_success(ms, theory)
    counts = report.outcome_counts
    h = harmonic_mean(counts)
    storability = information_storability(theory).value
    bounds = {
        "power_average": sum(decoding_power(m, theory) / c for m, c in zip(ms, counts))
        / report.k,
        "storability_over_harmonic_mean": storability / h,
    }
    if len(set(counts)) == 1:
        bounds["classical"] = classical_rac_value(report.k, counts[0])[0]
    payload = {
        "theory": theory.name,
        "k": report.k,
        "outcome_counts": list(counts),
        "p_bar": report.p_bar,
        "per_tuple": [
            {"outcomes": list(labels), "norm": norm, "argmax_vertex": arg}
            for labels, (norm, arg) in report.per_tuple.items()
        ],
        "bounds": bounds,
    }
    if report.k == 2:
        bounds["compatible_pair"] = compatible_bound(counts[0], counts[1], storability)
        cert = certify_incompatibility(ms[0], ms[1], theory)
        payload["certificate"] = {
            "lhs": cert.lhs,
            "threshold": cert.threshold,
            "useful": cert.useful,
            "verdict": cert.verdict,
        }
    return payload


def _compat_payload(ms, theory) -> dict:
    witness = check_compatible(ms, theory)
    if witness is None:
        return {"compatible": False}
    return {"compatible": True, "marginal_residuals": list(witness.marginal_residuals)}


def _degree_payload(ms, theory) -> dict:
    report = incompatibility_degree(ms[0], ms[1], theory)
    return {
        "degree": report.degree,
        "optimal_trivials": [list(map(float, p)) for p in report.optimal_trivials],
    }


def cmd_sweep(args) -> int:
    rows = sweep(args.min, args.max)
    lines = ["n,parity_class,closed_form,brute_force,compatible_max,lmax"]
    for row in rows:
        lines.append(
            f"{row.n},{row.parity},{row.closed_form:.9f},{row.brute_force:.9f},"
            f"{row.compatible_max:.9f},{row.lmax:.9f}"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# (error type, exit code, stderr prefix); the first type that matches decides
_EXIT_CODES = (
    (InputError, 1, "usage error"),
    (ParseError, 2, "parse error"),
    (ValidationError, 3, "validation error"),
    (OSError, 4, "i/o error"),
    (SolverError, 5, "solver error"),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        for error_type, code, prefix in _EXIT_CODES:
            if isinstance(exc, error_type):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())

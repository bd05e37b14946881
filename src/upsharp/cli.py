"""Command-line entry point.

Commands: verify, scan, minimize, conjecture, decompose-check. All output is
machine-readable JSON (optionally CSV). Each option is declared once, by its
``add_argument``; a JSON config file stands for the flags its keys name, and
explicit flags override it. Exit codes: 0 success, 1 verification failure,
2 usage error, 3 computational failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

from .constants import (PRINCIPLES, PROVED, PrincipleId, mode_principle, scan_infimum,
                        sharp_constant)
from .errors import DegenerateProfileError, UpsharpError, UsageError
from .extremals import extremal_quotient
from .minimize import QuotientKind, VariationalProblem, explore_conjecture, minimize_quotient
from .profiles import AnalyticProfile, make_mode, shift_power
from .quadrature import PANEL_COUNT, PANEL_POINTS, PANEL_REL_TOL, QuadratureRule
from .reports import RunManifest, render_csv, render_json, write_report
from .seminorms import Form, FunctionalId, eval_mode_functional, vector_equiv_check_2d

CLOSED_GATE = 1e-9
QUADRATURE_GATE = 1e-6
DECOMPOSE_GATE = 1e-6
EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_COMPUTE = 0, 1, 2, 3


def _parse_list(text: str, convert) -> list:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise UsageError(f"empty list {text!r}")
    try:
        return [convert(part) for part in parts]
    except ValueError:
        raise UsageError(f"malformed number in {text!r}") from None


def parse_int_range(text: str) -> list[int]:
    """'2..10' -> [2..10]; '3' -> [3]; '2,4,7' -> [2, 4, 7]."""
    text = text.strip()
    if ".." in text:
        bounds = _parse_list(text.replace("..", ",", 1), int)
        if len(bounds) != 2 or bounds[1] < bounds[0]:
            raise UsageError(f"empty or malformed range {text!r}")
        return list(range(bounds[0], bounds[1] + 1))
    return _parse_list(text, int)


def parse_float_list(text: str) -> list[float]:
    return _parse_list(text, float)


def _emit(args: argparse.Namespace, payload: dict, header: list[str], rows) -> None:
    """Write the command's report: JSON (its run manifest plus ``payload``) or,
    with ``--format csv``, ``header`` and the rows that ``rows()`` builds. The
    manifest's parameters are every option the command ran with that is set."""
    if args.format == "csv":
        text = render_csv(header, rows())
    else:
        parameters = {key: value for key, value in vars(args).items() if value is not None
                      and key not in ("command", "fn", "config", "seed", "out", "format")}
        manifest = RunManifest.create(args.command, parameters, args.seed)
        text = render_json({"manifest": manifest, **payload})
    write_report(text, args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    principle = PrincipleId(args.principle)
    if args.n is None:  # the default the manifest records
        args.n = f"{PRINCIPLES[principle].least_dimension}..10"
    modes = ("closed_form", "quadrature") if args.mode == "both" else (args.mode,)
    reports = [
        extremal_quotient(principle, n, beta, mode=mode)
        for n in parse_int_range(args.n)
        for beta in parse_float_list(args.beta)
        for mode in modes
    ]

    failures = []
    for rep in reports:
        gate = CLOSED_GATE if rep.mode == "closed_form" else QUADRATURE_GATE
        if rep.rel_gap >= gate:
            failures.append(rep)
    _emit(
        args,
        {"reports": reports, "failures": len(failures)},
        ["principle", "N", "beta", "quotient", "predicted", "rel_gap"],
        lambda: [[rep.principle.value, rep.dimension, rep.rate, rep.quotient, rep.predicted,
                  rep.rel_gap] for rep in reports],
    )
    if failures:
        sys.stderr.write(
            f"verification failed: rel_gap {failures[0].rel_gap:.3e} for "
            f"{failures[0].principle.value} N={failures[0].dimension}\n"
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    formula = args.formula
    results = [scan_infimum(formula, n, args.k_max) for n in parse_int_range(args.n)]

    principle = mode_principle(formula)
    mismatches = []
    annotated = []
    for res in results:
        expected = sharp_constant(principle, res.dimension)
        if expected.status != PROVED:
            annotated.append(
                {"dimension": res.dimension, "argmin": res.argmin,
                 "note": "outside proved range; scan reports the computed infimum"}
            )
        elif res.infimum != expected.value or res.argmin != 0:
            mismatches.append(res)

    _emit(
        args,
        {"results": results, "annotations": annotated,
         "mismatches": len(mismatches)},
        ["formula", "N", "k", "num", "den", "value"],
        lambda: [
            [formula, res.dimension, k, v.numerator, v.denominator, float(v)]
            for res in results
            for k, v in enumerate(res.values)
        ],
    )
    return EXIT_VERIFY if mismatches else EXIT_OK


def cmd_minimize(args: argparse.Namespace) -> int:
    kind = QuotientKind(args.quotient)
    band = args.band
    if not 0 <= band < math.inf:
        raise UsageError("--band must be finite and >= 0")
    problem = VariationalProblem.for_mode(
        kind, args.n, args.k, size=args.m, r_min=args.r_min, r_max=args.r_max,
    )
    result = minimize_quotient(problem)
    _emit(
        args,
        {"result": result, "eigen_crosscheck": result.pencil_value,
         "tolerance_band": band},
        ["kind", "N", "k", "size", "min_value", "pencil_value", "pencil_lower", "t_star",
         "exit", "iterations"],
        lambda: [[kind.value, result.mode.dimension, result.mode.degree, result.grid.size,
                  result.min_value, result.pencil_value, result.pencil_lower, result.t_star,
                  result.exit, result.iterations]],
    )
    if not result.converged:
        why = (
            "t* not bracketed inside the ln t range" if result.exit == "range_end"
            else "the pencil value disagrees with the argmin quotient"
        )
        sys.stderr.write(f"pencil minimization did not converge (exit {result.exit}): {why}\n")
        return EXIT_COMPUTE
    if result.target is not None:
        if abs(result.min_value - result.target) > band * result.target:
            sys.stderr.write(
                f"minimum {result.min_value:.6g} outside +-{band:.0%} "
                f"of target {result.target:.6g}\n"
            )
            return EXIT_VERIFY
    return EXIT_OK


def cmd_conjecture(args: argparse.Namespace) -> int:
    resolutions = tuple(_parse_list(args.ladder, int))
    report = explore_conjecture(args.n, k_max=args.k_max, resolutions=resolutions)
    _emit(
        args,
        {"report": report},
        ["k", "resolution", "min_value"],
        lambda: [[entry["degree"], entry["size"], entry["min_value"]] for entry in report.ladder],
    )
    return EXIT_OK


_DECOMPOSE_IDS = (
    FunctionalId.GRAD_ENERGY,
    FunctionalId.WEIGHTED_GRAD_ENERGY,
    FunctionalId.COULOMB_GRAD_ENERGY,
    FunctionalId.LAPLACIAN_ENERGY,
)


def _decompose_pairs(n: int, k: int, amplitude: float, beta: float) -> list[tuple]:
    """(check, lhs, rhs) of every decompose-check row."""
    radial = (
        AnalyticProfile("gaussian", amplitude, beta)
        if k == 0
        else AnalyticProfile("monomial_cutoff", amplitude, beta, power=float(k))
    )
    pairs = []
    if n == 2:
        pairs.append(("vector_field_energy_vs_scalar", *vector_equiv_check_2d(radial, degree=k)))
    # Raw versus reduced assembly of each mode functional, on independent
    # routes: the raw form by graded panels, the reduced form by the exact
    # closed form. The comparison profile vanishes two orders beyond the mode
    # degree so every raw-form term is individually finite in dimension 2 as
    # well.
    mode = make_mode(n, k)
    comparison = AnalyticProfile("monomial_cutoff", amplitude, beta, power=float(k + 2))
    reduced = shift_power(comparison, -k)
    for fid in _DECOMPOSE_IDS:
        raw = eval_mode_functional(fid, mode, comparison, Form.RAW, QuadratureRule.PANELS)
        red = eval_mode_functional(fid, mode, reduced, Form.REDUCED, QuadratureRule.CLOSED_FORM)
        pairs.append((f"{fid.value}_raw_vs_reduced", raw.value, red.value))
    return pairs


def cmd_decompose_check(args: argparse.Namespace) -> int:
    n, beta, k, amplitude = args.n, args.beta, args.mode_k, args.amplitude
    pairs = _decompose_pairs(n, k, amplitude, beta)
    # Each side is a positive normal double (seminorms raised otherwise),
    # except that every side of the zero profile is 0.0.
    if amplitude == 0.0:
        raise DegenerateProfileError("the zero profile has no relative errors")
    rows = [{"check": check, "lhs": lhs, "rhs": rhs, "rel_error": abs(lhs - rhs) / rhs}
            for check, lhs, rhs in pairs]

    failures = [row for row in rows if row["rel_error"] >= DECOMPOSE_GATE]
    _emit(
        args,
        {"rows": rows, "failures": len(failures)},
        ["check", "lhs", "rhs", "rel_error"],
        lambda: [[row["check"], row["lhs"], row["rhs"], row["rel_error"]] for row in rows],
    )
    return EXIT_VERIFY if failures else EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    no state in it."""
    parser = argparse.ArgumentParser(
        prog="upsharp",
        description=(
            "Verify sharp second-order uncertainty-principle constants: "
            "closed-form extremal quotients, exact per-mode scans, variational "
            "minimization, and the low-dimension conjecture explorer. "
            "Default quadrature: graded Gauss-Legendre panels "
            f"({PANEL_COUNT} panels x {PANEL_POINTS} points, rel_tol {PANEL_REL_TOL:g}); "
            "closed forms where available."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        # No prefix matching, so a config key must name its flag in full.
        p = sub.add_parser(name, help=help, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="JSON file of flag values; explicit flags win")
        p.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
        p.add_argument("--out", help="output file; unset writes to stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
        p.set_defaults(fn=fn)
        return p

    def ignored(p: argparse.ArgumentParser, *flags: str) -> None:
        # Options of the retired descent solver, still accepted by old scripts.
        for flag in flags:
            p.add_argument(flag, type=int, help="ignored by the pencil solver")

    p = command("verify", cmd_verify, "extremal quotients against predicted constants")
    p.add_argument("principle", choices=[x.value for x in PrincipleId])
    p.add_argument("--n", help="dimension range, e.g. 1..10; unset runs from the "
                   "principle's least dimension to 10")
    p.add_argument("--beta", default="0.25,1,4", help="comma-separated rates")
    p.add_argument("--mode", choices=("both", "closed_form", "quadrature"), default="both",
                   help="closed-form and/or quadrature quotients")

    p = command("scan", cmd_scan, "exact per-mode constant scans with tail certificates")
    p.add_argument("formula", choices=("hup2_mode", "hyup2_mode"))
    p.add_argument("--n", default="2..20", help="dimension range")
    p.add_argument("--k-max", type=int, default=64, help="highest mode degree scanned")

    p = command("minimize", cmd_minimize, "variational minimization of one quotient")
    p.add_argument("quotient", choices=[x.value for x in QuotientKind])
    p.add_argument("--n", type=int, default=3, help="dimension")
    p.add_argument("--k", type=int, default=0, help="mode degree")
    p.add_argument("--m", type=int, default=512, help="grid size")
    p.add_argument("--r-min", type=float, help="innermost node; unset takes the quotient's own")
    p.add_argument("--r-max", type=float, help="outermost node; unset takes the quotient's own")
    ignored(p, "--restarts", "--budget")
    p.add_argument("--band", type=float, default=0.02, help="relative tolerance band")

    p = command("conjecture", cmd_conjecture,
                "evidence explorer for dimensions 2..4 (5 calibrates)")
    p.add_argument("--n", type=int, choices=(2, 3, 4, 5), default=5,
                   help="dimension; 5 calibrates")
    p.add_argument("--k-max", type=int, default=4, help="highest mode degree")
    p.add_argument("--ladder", default="128,256,512", help="comma-separated grid sizes")
    ignored(p, "--restarts", "--budget", "--trials")

    p = command("decompose-check", cmd_decompose_check,
                "vector-field/scalar equivalence and raw-vs-reduced assembly checks")
    p.add_argument("--n", type=int, choices=(2, 3), default=2, help="dimension")
    p.add_argument("--beta", type=float, default=1.0, help="profile rate")
    p.add_argument("--mode-k", type=int, default=0, help="mode degree")
    p.add_argument("--amplitude", type=float, default=1.0, help="profile amplitude")
    return parser


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The flag tokens a JSON config file stands for: key ``k_max`` (or
    ``k-max``) with value v is ``--k-max=v``; a null value sets nothing."""
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(config, dict):
        parser.error("config file must hold a JSON object of flag values")
    return [f"--{key.replace('_', '-')}={value}"
            for key, value in config.items() if value is not None]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(argv[:1] + _config_flags(parser, args.config) + argv[1:])
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return exc.code
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except UpsharpError as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())

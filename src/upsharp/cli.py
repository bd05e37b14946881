"""Command-line entry point.

Commands: verify, scan, minimize, conjecture, decompose-check. All output is
machine-readable JSON (optionally CSV); a config file may supply any flag and
explicit flags override it. Exit codes: 0 success, 1 verification failure,
2 usage error, 3 computational failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .constants import PrincipleId, scan_infimum, sharp_constant
from .errors import UpsharpError, UsageError
from .extremals import extremal_quotient
from .minimize import QuotientKind, VariationalProblem, explore_conjecture, minimize_quotient
from .profiles import AnalyticProfile, make_mode, shift_power
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
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


#: Choices of the string options, shared by their flags and ``_READ``.
_FORMATS = ("json", "csv")
_VERIFY_MODES = ("both", "closed_form", "quadrature")


def _one_of(choices: tuple[str, ...]):
    def read(text: str) -> str:
        if text not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return text
    return read


#: How each typed option is read. A config-file value is read as its flag's
#: text would be, so a value of the wrong type or outside the flag's choices
#: is a usage error.
_READ = {"seed": int, "k": int, "m": int, "k_max": int, "mode_k": int,
         "r_min": float, "r_max": float, "band": float, "amplitude": float,
         "format": _one_of(_FORMATS), "mode": _one_of(_VERIFY_MODES)}


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flag > config-file value > hard default."""
    config = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object of flag values")
    merged = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        if value is not None and key in _READ:
            try:
                value = _READ[key](str(value))
            except ValueError as exc:
                raise UsageError(f"malformed {key} {value!r}: {exc}") from None
        merged[key] = value
    return merged


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args,
        {"n": "1..10", "beta": "0.25,1,4", "mode": "both", "seed": 0, "out": None,
         "format": "json"},
    )
    principle = PrincipleId(args.principle)
    dims = parse_int_range(str(opts["n"]))
    betas = parse_float_list(str(opts["beta"]))
    modes = ("closed_form", "quadrature") if opts["mode"] == "both" else (opts["mode"],)
    reports = [
        extremal_quotient(principle, n, beta, mode=mode)
        for n in dims
        for beta in betas
        for mode in modes
    ]

    failures = []
    for rep in reports:
        gate = CLOSED_GATE if rep.mode == "closed_form" else QUADRATURE_GATE
        if rep.rel_gap >= gate:
            failures.append(rep)
    manifest = RunManifest.create(
        "verify", {"principle": principle.value, "n": opts["n"], "beta": opts["beta"],
                   "mode": opts["mode"]}, opts["seed"],
    )
    if opts["format"] == "csv":
        text = render_csv(
            ["principle", "N", "beta", "quotient", "predicted", "rel_gap"],
            [rep.csv_row().split(",") for rep in reports],
        )
    else:
        text = render_json(
            {
                "manifest": manifest.to_json(),
                "reports": [rep.to_json() for rep in reports],
                "failures": len(failures),
            }
        )
    write_report(text, opts["out"])
    if failures:
        sys.stderr.write(
            f"verification failed: rel_gap {failures[0].rel_gap:.3e} for "
            f"{failures[0].principle.value} N={failures[0].dimension}\n"
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args, {"n": "2..20", "k_max": 64, "seed": 0, "out": None, "format": "json"}
    )
    formula = args.formula
    dims = parse_int_range(str(opts["n"]))
    results = [scan_infimum(formula, n, opts["k_max"]) for n in dims]

    mismatches = []
    annotated = []
    for res in results:
        n = res.dimension
        if formula == "hup2_mode":
            expected = sharp_constant(PrincipleId.HUP2, n).value
            ok = res.infimum == expected and res.argmin == 0
        else:
            expected = sharp_constant(PrincipleId.HYUP2, n).value
            in_proved_range = n >= 5
            ok = (res.infimum == expected and res.argmin == 0) if in_proved_range else True
            if not in_proved_range:
                annotated.append(
                    {"dimension": n, "note": "outside proved range; scan reports the computed infimum",
                     "argmin": res.argmin}
                )
        if not ok:
            mismatches.append(res)

    manifest = RunManifest.create(
        "scan", {"formula": formula, "n": opts["n"], "k_max": opts["k_max"]},
        opts["seed"],
    )
    if opts["format"] == "csv":
        rows = [
            [formula, res.dimension, k, v.numerator, v.denominator, float(v)]
            for res in results
            for k, v in enumerate(res.values)
        ]
        text = render_csv(["formula", "N", "k", "num", "den", "value"], rows)
    else:
        text = render_json(
            {
                "manifest": manifest.to_json(),
                "results": [res.to_json() for res in results],
                "annotations": annotated,
                "mismatches": len(mismatches),
            }
        )
    write_report(text, opts["out"])
    return EXIT_VERIFY if mismatches else EXIT_OK


def cmd_minimize(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args,
        {"n": "3", "k": 0, "m": 512, "r_min": None, "r_max": None, "seed": 0,
         "band": 0.02, "out": None, "format": "json"},
    )
    kind = QuotientKind(args.quotient)
    dims = parse_int_range(str(opts["n"]))
    if len(dims) != 1:
        raise UsageError("minimize takes a single dimension")
    band = opts["band"]
    if not 0 <= band < math.inf:
        raise UsageError("--band must be finite and >= 0")
    problem = VariationalProblem.for_mode(
        kind, dims[0], opts["k"], size=opts["m"],
        r_min=opts["r_min"], r_max=opts["r_max"],
    )
    result = minimize_quotient(problem)
    manifest = RunManifest.create(
        "minimize",
        {"quotient": kind.value, "n": dims[0], "k": opts["k"], "m": opts["m"]},
        opts["seed"],
    )
    payload = {
        "manifest": manifest.to_json(),
        "result": result.to_json(),
        "eigen_crosscheck": result.pencil_value,
        "tolerance_band": band,
    }
    if opts["format"] == "csv":
        text = render_csv(
            ["iteration", "value"], [[i, v] for i, v in enumerate(result.history)]
        )
    else:
        text = render_json(payload)
    write_report(text, opts["out"])
    if not result.converged:
        sys.stderr.write(
            "pencil minimization did not converge: t* not bracketed inside the ln t "
            "range, or the pencil value disagrees with the argmin quotient\n"
        )
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
    opts = _merge_config(
        args,
        {"n": "5", "k_max": 4, "ladder": "128,256,512", "seed": 0, "out": None,
         "format": "json"},
    )
    dims = parse_int_range(str(opts["n"]))
    if len(dims) != 1:
        raise UsageError("conjecture takes a single dimension")
    n = dims[0]
    if n not in (2, 3, 4, 5):
        raise UsageError("conjecture explorer covers dimensions 2..4 (5 as calibration)")
    resolutions = tuple(_parse_list(str(opts["ladder"]), int))
    report = explore_conjecture(n, k_max=opts["k_max"], resolutions=resolutions)
    manifest = RunManifest.create(
        "conjecture",
        {"n": n, "k_max": opts["k_max"], "ladder": list(resolutions)},
        opts["seed"],
    )
    if opts["format"] == "csv":
        text = render_csv(["k", "resolution", "min_value"], [list(r) for r in report.csv_rows()])
    else:
        text = render_json({"manifest": manifest.to_json(), "report": report.to_json()})
    write_report(text, opts["out"])
    return EXIT_OK


_DECOMPOSE_IDS = (
    FunctionalId.GRAD_ENERGY,
    FunctionalId.WEIGHTED_GRAD_ENERGY,
    FunctionalId.COULOMB_GRAD_ENERGY,
    FunctionalId.LAPLACIAN_ENERGY,
)


def cmd_decompose_check(args: argparse.Namespace) -> int:
    opts = _merge_config(
        args,
        {"n": "2", "beta": "1", "mode_k": 0, "amplitude": 1.0, "seed": 0, "out": None,
         "format": "json"},
    )
    dims = parse_int_range(str(opts["n"]))
    if len(dims) != 1 or dims[0] not in (2, 3):
        raise UsageError("decompose-check runs in dimension 2 or 3")
    n = dims[0]
    beta = parse_float_list(str(opts["beta"]))[0]
    k = opts["mode_k"]
    amplitude = opts["amplitude"]
    radial = (
        AnalyticProfile("gaussian", amplitude, beta)
        if k == 0
        else AnalyticProfile("monomial_cutoff", amplitude, beta, power=float(k))
    )

    rows = []
    if n == 2:
        lhs, rhs = vector_equiv_check_2d(radial, degree=k)
        denom = abs(rhs) if rhs != 0.0 else 1.0
        rows.append(
            {"check": "vector_field_energy_vs_scalar", "lhs": lhs, "rhs": rhs,
             "rel_error": abs(lhs - rhs) / denom}
        )
    # Raw versus reduced assembly of each mode functional, on independent
    # quadrature routes (graded panels vs adaptive). The comparison profile
    # vanishes two orders beyond the mode degree so every raw-form term is
    # individually finite in dimension 2 as well.
    adaptive = QuadratureConfig(rule="adaptive", abs_tol=1e-12, rel_tol=1e-10)
    mode = make_mode(n, k)
    comparison = AnalyticProfile("monomial_cutoff", amplitude, beta, power=float(k + 2))
    reduced = shift_power(comparison, -k)
    for fid in _DECOMPOSE_IDS:
        raw = eval_mode_functional(fid, mode, comparison, Form.RAW, DEFAULT_CONFIG).value
        red = eval_mode_functional(fid, mode, reduced, Form.REDUCED, adaptive).value
        denom = abs(red) if red != 0.0 else 1.0
        rows.append(
            {"check": f"{fid.value}_raw_vs_reduced", "lhs": raw, "rhs": red,
             "rel_error": abs(raw - red) / denom}
        )

    failures = [row for row in rows if row["rel_error"] >= DECOMPOSE_GATE]
    manifest = RunManifest.create(
        "decompose-check",
        {"n": n, "beta": beta, "mode_k": k, "amplitude": amplitude},
        opts["seed"],
    )
    if opts["format"] == "csv":
        text = render_csv(
            ["check", "lhs", "rhs", "rel_error"],
            [[row["check"], row["lhs"], row["rhs"], row["rel_error"]] for row in rows],
        )
    else:
        text = render_json(
            {"manifest": manifest.to_json(), "rows": rows, "failures": len(failures)}
        )
    write_report(text, opts["out"])
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upsharp",
        description=(
            "Verify sharp second-order uncertainty-principle constants: "
            "closed-form extremal quotients, exact per-mode scans, variational "
            "minimization, and the low-dimension conjecture explorer. "
            "Default quadrature: graded Gauss-Legendre panels "
            f"({DEFAULT_CONFIG.panels} panels x {DEFAULT_CONFIG.points_per_panel} "
            f"points, abs_tol {DEFAULT_CONFIG.abs_tol:g}, rel_tol "
            f"{DEFAULT_CONFIG.rel_tol:g}); closed forms where available."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file supplying flag defaults")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=_FORMATS, default=None)

    def ignored(p: argparse.ArgumentParser, *flags: str) -> None:
        # Options of the retired descent solver, still accepted by old scripts.
        for flag in flags:
            p.add_argument(flag, type=int, default=None, help="ignored by the pencil solver")

    p = sub.add_parser("verify", help="extremal quotients against predicted constants")
    p.add_argument("principle", choices=[x.value for x in PrincipleId])
    p.add_argument("--n", default=None, help="dimension range, e.g. 1..10")
    p.add_argument("--beta", default=None, help="comma-separated rates")
    p.add_argument("--mode", choices=_VERIFY_MODES, default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="exact per-mode constant scans with tail certificates")
    p.add_argument("formula", choices=("hup2_mode", "hyup2_mode"))
    p.add_argument("--n", default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("minimize", help="variational minimization of one quotient")
    p.add_argument("quotient", choices=[x.value for x in QuotientKind])
    p.add_argument("--n", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="grid size")
    p.add_argument("--r-min", dest="r_min", type=float, default=None)
    p.add_argument("--r-max", dest="r_max", type=float, default=None)
    ignored(p, "--restarts", "--budget")
    p.add_argument("--band", type=float, default=None, help="relative tolerance band")
    common(p)
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("conjecture", help="evidence explorer for dimensions 2..4 (5 calibrates)")
    p.add_argument("--n", default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--ladder", default=None, help="comma-separated grid sizes")
    ignored(p, "--restarts", "--budget", "--trials")
    common(p)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser(
        "decompose-check",
        help="vector-field/scalar equivalence and raw-vs-reduced assembly checks",
    )
    p.add_argument("--n", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--mode-k", dest="mode_k", type=int, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_decompose_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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

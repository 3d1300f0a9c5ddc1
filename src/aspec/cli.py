"""Command-line front door: JSON in, JSON out, nonzero exit on error.

Matrices are read from files in the wire format of the linalg module; every
subcommand prints exactly one JSON object to stdout and diagnostics to
stderr.

Importing this module loads no numerical code and not numpy: each subcommand
imports what it runs when it runs.  ``seminorm`` and ``adjoint`` load linalg,
psd and seminorm; ``invert`` adds invert; ``spectrum``, ``radius`` and
``numrange`` add spectrum; ``omega`` loads omega alone, with no numpy; and
``proptest`` loads the whole package through the property suite.
"""

from __future__ import annotations

import argparse
import json
import sys


def _tolerance(value: float | None):
    from .linalg import DEFAULT_TOL, ToleranceConfig

    if value is None:
        return DEFAULT_TOL
    # one knob scales the whole default policy (atol 1e-10 reproduces the defaults)
    return ToleranceConfig(atol=value, rtol=100 * value, rank_rtol=value)


def _load(path: str):
    from .linalg import read_matrix

    with open(path, "rb") as fh:
        return read_matrix(fh)


def _points(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def _emit(obj: dict) -> int:
    # one dumps call: json.dump writes through the pure-Python encoder, dumps through the C one
    sys.stdout.write(json.dumps(obj) + "\n")
    return 0


def _cmd_seminorm(d, x, tol, args) -> int:
    from .seminorm import a_seminorm

    value = a_seminorm(d, x, tol)
    return _emit({"member": value.finite, "value": value.value if value.finite else None})


def _cmd_adjoint(d, x, tol, args) -> int:
    from .linalg import matrix_to_obj
    from .seminorm import a_adjoint

    return _emit({"adjoint": matrix_to_obj(a_adjoint(d, x, tol))})


def _cmd_invert(d, x, tol, args) -> int:
    from .invert import a_invertible
    from .linalg import matrix_to_obj

    res = a_invertible(d, x, tol)
    inverse = None
    if res.invertible:
        inverse = matrix_to_obj(res.invertible_form if args.invertible_form else res.canonical)
    return _emit({"invertible": res.invertible, "inverse": inverse})


def _cmd_spectrum(d, x, tol, args) -> int:
    from .spectrum import a_spectrum

    spec = a_spectrum(d, x, tol)
    return _emit({"points": _points(spec.points), "radius": spec.radius, "contains_zero": spec.contains_zero})


def _cmd_radius(d, x, tol, args) -> int:
    from .spectrum import a_spectrum, gelfand_sequence

    out = {"radius": a_spectrum(d, x, tol).radius}
    if args.gelfand is not None:
        out["gelfand"] = [float(t) for t in gelfand_sequence(d, x, args.gelfand, tol)]
    return _emit(out)


def _cmd_numrange(d, x, tol, args) -> int:
    from .spectrum import a_numerical_range

    return _emit({"vertices": _points(a_numerical_range(d, x, args.directions, tol).vertices)})


def _classification_obj(result) -> dict:
    """An omega.InverseClassification as a JSON object."""
    out: dict = {"verdict": result.verdict.value}
    if result.witness is not None:
        v0 = result.witness.value_at_zero
        out["witness"] = {
            "odd": str(result.witness.odd_branch),
            "even": str(result.witness.even_branch),
            "value_at_zero": str(v0) if v0 is not None else None,
        }
    if result.obstruction is not None:
        tag, expr = result.obstruction
        out["obstruction"] = str(expr)
        out["obstruction_branch"] = tag
    return out


def _cmd_omega_classify(args) -> int:
    from .omega import a_inverse_classify, parse_element

    result = a_inverse_classify(parse_element(args.a), parse_element(args.x))
    return _emit(_classification_obj(result))


def _cmd_omega_demo(_args) -> int:
    from .omega import a_inverse_classify, demo_function, demo_weight, element_to_literal, is_well_supported

    a, x = demo_weight(), demo_function()
    out = _classification_obj(a_inverse_classify(a, x))
    out["a"] = element_to_literal(a)
    out["x"] = element_to_literal(x)
    out["a_well_supported"] = is_well_supported(a)
    return _emit(out)


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in text.split(",") if p.strip())


def _cmd_proptest(args) -> int:
    from dataclasses import asdict

    from .harness import run_property_suite

    reports = run_property_suite(trials=args.trials, dims=_parse_dims(args.dims), tol=_tolerance(args.tol), seed=args.seed)
    total_failures = sum(len(r.failures) for r in reports)
    _emit(
        {
            "reports": [asdict(r) for r in reports],
            "trials": args.trials,
            "seed": args.seed,
            "failures_total": total_failures,
            "passed": total_failures == 0,
        }
    )
    return 0 if total_failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aspec", description="Weighted operator calculus on complex matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_cmd(name: str, handler, help_text: str):
        """A subcommand on (--a, --x): the tolerance, the weight and then X are loaded once, in that order."""

        def run(args) -> int:
            from .psd import psd_decompose

            tol = _tolerance(args.tol)
            d = psd_decompose(_load(args.a), tol)
            return handler(d, _load(args.x), tol, args)

        p = sub.add_parser(name, help=help_text)
        p.add_argument("--a", required=True, help="weight matrix JSON file")
        p.add_argument("--x", required=True, help="matrix JSON file")
        p.add_argument("--tol", type=float, default=None, help="rank cutoff T, relative defect bound 100*T, accuracy target atol T (default 1e-10)")
        p.set_defaults(handler=run)
        return p

    matrix_cmd("seminorm", _cmd_seminorm, "membership and weighted seminorm")
    matrix_cmd("adjoint", _cmd_adjoint, "canonical weighted adjoint")
    p_inv = matrix_cmd("invert", _cmd_invert, "weighted invertibility and inverse")
    p_inv.add_argument("--invertible-form", action="store_true", help="return the full-rank inverse completion")
    matrix_cmd("spectrum", _cmd_spectrum, "weighted spectrum")
    p_rad = matrix_cmd("radius", _cmd_radius, "weighted spectral radius")
    p_rad.add_argument("--gelfand", type=int, default=None, metavar="N_MAX", help="also print the root-norm sequence up to N_MAX")
    p_nr = matrix_cmd("numrange", _cmd_numrange, "weighted numerical range polygon")
    p_nr.add_argument("--directions", type=int, required=True, help="number of support directions (>= 3)")

    p_omega = sub.add_parser("omega", help="exact symbolic sequence-space algebra")
    omega_sub = p_omega.add_subparsers(dest="omega_command", required=True)
    p_cls = omega_sub.add_parser("classify", help="classify the pointwise inverse forced by a = a*x*y")
    p_cls.add_argument("--a", required=True, help="element literal odd=<expr>;even=<expr>")
    p_cls.add_argument("--x", required=True, help="element literal odd=<expr>;even=<expr>")
    p_cls.set_defaults(handler=_cmd_omega_classify)
    p_demo = omega_sub.add_parser("demo-e009", help="canonical unbounded-inverse demonstration")
    p_demo.set_defaults(handler=_cmd_omega_demo)

    p_prop = sub.add_parser("proptest", help="run the randomized property suite")
    p_prop.add_argument("--trials", type=int, default=25)
    p_prop.add_argument("--dims", default="1..8", help="dimensions, e.g. 1..8 or 2,4,6")
    p_prop.add_argument("--seed", type=int, default=0, help="base seed")
    p_prop.add_argument("--tol", type=float, default=None)
    p_prop.set_defaults(handler=_cmd_proptest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - uniform CLI error contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: height, green, pairing, prep-intersect, ordinary-check, survey,
robin, constants.  All results are schema-versioned JSON on stdout; surveys
can additionally write per-pair CSV rows with --out.  Exit codes: 0 success,
1 usage error, 2 computation failure, 3 internal check failure (a bound the
computation must satisfy did not hold).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .heights import canonical_height, global_pairing, pairing_bounds
from .archimedean import green_arch
from .polynomials import MonicPoly, SliceSpec, height, is_ordinary
from .preperiodic import prep_intersect
from .survey import (
    SurveyConfig,
    build_upper_adelic_set,
    constants,
    search_adelic_c,
    survey_average_prep,
    survey_ordinary,
    write_survey_csv,
)

USAGE_ERROR = 1
COMPUTE_ERROR = 2
INTERNAL_ERROR = 3


def _emit(obj: dict) -> None:
    obj.setdefault("schema", 1)
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_slice(text: str) -> SliceSpec:
    """The --slice type, 'i=v,...': argparse turns a malformed one into a usage error."""
    fixed = {}
    try:
        for part in filter(None, text.split(",")):
            k, v = part.split("=")
            fixed[int(k)] = Fraction(v)
        return SliceSpec(fixed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed slice {text!r}: {exc}") from exc


# Prep-survey options, given to SurveyConfig only when set; they and --out
# are refused with --kind ordinary.
_PREP_CONFIG = ("slice", "m_cap", "n_cap")
_PREP_ONLY = _PREP_CONFIG + ("out",)


def _given(args, names) -> dict:
    """The options among `names` with a value: those left unset are None."""
    return {o: getattr(args, o) for o in names if getattr(args, o) is not None}


def _poly_arg(text: str) -> MonicPoly:
    """Accept either polynomial text or the canonical JSON form."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return MonicPoly.from_json_dict(json.loads(text))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
    return MonicPoly.from_text(text)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="arithdyn", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("height", help="height of a polynomial, or canonical height of a point")
    p.add_argument("poly")
    p.add_argument("--point", help="rational point x for the canonical height h-hat_f(x)")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("green", help="archimedean escape-rate Green's function")
    p.add_argument("poly")
    p.add_argument("z", help="complex point 're' or 're,im'")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("pairing", help="global energy pairing report")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument(
        "--samples", type=int, default=4000,
        help="minimum number of preimage-tree nodes per side of the archimedean term",
    )
    p.add_argument("--bounds-only", action="store_true", help="sampling-free interval enclosure")

    p = sub.add_parser("prep-intersect", help="exact common preperiodic points")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--m-cap", type=int)
    p.add_argument("--n-cap", type=int)

    p = sub.add_parser("ordinary-check", help="epsilon-ordinary test for a pair")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--eps", type=str, required=True)

    p = sub.add_parser(
        "survey", help="statistical surveys over height boxes",
        description="prep: the mean shared preperiodic count with a 95% interval;"
        " ordinary: the proportion of epsilon-ordinary pairs with its exact"
        " (Clopper-Pearson) 95% interval.",
    )
    p.add_argument("--kind", choices=("prep", "ordinary"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--eps", type=str, help=f"default {SurveyConfig.eps}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-cap", type=int, help=f"prep survey; default {SurveyConfig.m_cap}")
    p.add_argument("--n-cap", type=int, help=f"prep survey; default {SurveyConfig.n_cap}")
    p.add_argument("--slice", type=_parse_slice, help="prep survey; fixed a_i, e.g. '2=0,1=1/2'")
    p.add_argument("--out", type=str, help="CSV output path (prep survey)")

    p = sub.add_parser("robin", help="Robin constant of the upper-bound adelic set")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--eps", type=str, required=True)
    p.add_argument("--c", type=float, default=None, help="threshold shift; grid-searched if omitted")

    sub.add_parser("constants", help="the sandwich endpoint constants ln 2 and C")
    return ap


def _run(args) -> int:
    if args.cmd == "height":
        f = _poly_arg(args.poly)
        if args.point is None:
            _emit({"poly": f.to_text(), "h": height(f).to_json()})
        else:
            ch = canonical_height(f, Fraction(args.point), args.tol)
            _emit(
                {
                    "poly": f.to_text(),
                    "point": args.point,
                    "canonical_height": ch.value,
                    "finite_exact": ch.finite.to_json(),
                    "arch": ch.arch,
                    "tol": ch.tol,
                }
            )
    elif args.cmd == "green":
        f = _poly_arg(args.poly)
        parts = args.z.split(",")
        if len(parts) > 2:
            raise ValueError(f"malformed point {args.z!r}: expected 're' or 're,im'")
        z = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
        _emit({"poly": f.to_text(), "z": [z.real, z.imag], "green": green_arch(f, z, args.tol)})
    elif args.cmd == "pairing":
        f = _poly_arg(args.f)
        g = _poly_arg(args.g)
        if args.bounds_only:
            rep = pairing_bounds(f, g)
        else:
            rep = global_pairing(f, g, args.samples)
        _emit(rep.to_json())
    elif args.cmd == "prep-intersect":
        f = _poly_arg(args.f)
        g = _poly_arg(args.g)
        cert = prep_intersect(f, g, **_given(args, ("m_cap", "n_cap")))
        _emit(cert.to_json())
    elif args.cmd == "ordinary-check":
        f = _poly_arg(args.f)
        g = _poly_arg(args.g)
        ok, witness = is_ordinary(f, g, args.X, Fraction(args.eps))
        _emit({"ordinary": ok, "witness": witness, "X": args.X, "eps": args.eps})
    elif args.cmd == "survey":
        if args.kind == "prep":
            given = _given(args, ("d", "X", "samples", "eps", "seed") + _PREP_CONFIG)
            result = survey_average_prep(SurveyConfig(**given))
            if args.out:
                write_survey_csv(result, args.out)
            _emit(result.to_json())
        else:
            eps = SurveyConfig.eps if args.eps is None else Fraction(args.eps)
            res = survey_ordinary(args.d, args.X, eps, args.samples, args.seed)
            _emit(res.to_json())
    elif args.cmd == "robin":
        f = _poly_arg(args.f)
        g = _poly_arg(args.g)
        eps = Fraction(args.eps)
        if args.c is None:
            c, aset = search_adelic_c(f, g, args.X, eps)
        else:
            c, aset = args.c, build_upper_adelic_set(f, g, args.c, args.X, eps)
        out = aset.to_json()
        out["c"] = c
        _emit(out)
    elif args.cmd == "constants":
        _emit(constants())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "survey" and args.kind == "ordinary":
            given = [f"--{o.replace('_', '-')}" for o in _given(args, _PREP_ONLY)]
            if given:
                parser.error(f"{', '.join(given)}: not used by --kind ordinary")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        return _run(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

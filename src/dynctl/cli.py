"""dynctl command line: experiment orchestration and report emission.

The parsed argparse namespace is the run configuration: subcommand, S primes,
height bounds, truncation caps, worker count, output format and path, and the
seed for sampled checks. A fixed seed and config give byte-identical reports
at any worker count.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import DynctlError, ParseError, SizeBudgetExceededError
from .points import (DEFAULT_FF_HEIGHT_BUDGET, DEFAULT_HEIGHT_BUDGET_BITS, DEFAULT_N_CAP,
                     HEIGHT_BUDGET_BITS_LIMIT, SIntSpec, check_n_cap, format_point, parse_int,
                     parse_point)
from .reports import as_dict, emit_csv, emit_json, error_json, report_rows

# Each cmd_* imports the layers it runs when it runs, so a start pays for one
# subcommand's modules only: ffavg never loads the Q side, avg3 never loads
# parsing. Where a command parses a map, it parses before importing orbits or
# canonical; importing orbits first raised the peak RSS of `nmax --b 1` by 1 MB.


def verification_checks() -> tuple:
    """The checks `verify` runs, in this order."""
    from .canonical import transition_constants_check
    from .families import (cube_sum_bound_check, pell_checks, phi_t_identities,
                           preimage_height_bound_check, resultant_specialization_grid_check,
                           three_param_slice_bounds_check)
    from .funcfield import ff_family_verification
    from .maps import cofactor_certificates_check

    return (cofactor_certificates_check, transition_constants_check, phi_t_identities,
            cube_sum_bound_check, preimage_height_bound_check, pell_checks,
            three_param_slice_bounds_check, resultant_specialization_grid_check,
            ff_family_verification)


def _parse_ints(text: str) -> list[int]:
    """Comma-separated points.parse_int literals."""
    out = []
    position = 0
    for chunk in text.split(","):
        out.append(parse_int(chunk, position))
        position += len(chunk) + 1
    return out


def _int_flag(text: str) -> int:
    """The argparse type of every integer flag: points.parse_int, whose
    refusal argparse reports as a UsageError."""
    try:
        return parse_int(text, 0)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# An ASCII float literal: float() would also take underscores and non-ASCII digits.
_FLOAT_RE = re.compile(r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                       r"|inf|infinity|nan)\s*", re.ASCII | re.IGNORECASE)


def _float_flag(text: str) -> float:
    """The argparse type of --tol: float() on a _FLOAT_RE literal, refused
    otherwise, which argparse reports as a UsageError."""
    if _FLOAT_RE.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"bad float literal {text!r}")
    return float(text)


def _parse_s(text: str) -> SIntSpec:
    if not text.strip():
        return SIntSpec()
    return SIntSpec(_parse_ints(text))


def _map_from_args(args):
    """The RationalMapQ of --map."""
    from .parsing import parse_map, resolve_map_text

    return parse_map(resolve_map_text(args.map)).to_rational_map()


# Each cmd_* returns (payload, rows): the JSON dict, and the CSV rows under the
# schema named after the subcommand (None where it writes JSON only). A sweep's
# JSON is the run's context, then the report's fields in declaration order,
# then derived values; its CSV has one row per height bound.

def cmd_orbit(args) -> tuple[dict, list | None]:
    m = _map_from_args(args)
    from .orbits import count_s_integral, scan_orbit

    point = parse_point(args.point)
    s = _parse_s(args.s)
    rec = scan_orbit(m, point, s, n_cap=args.ncap, height_budget_bits=args.height_budget_bits)
    count, exact = count_s_integral(rec)
    integral = set(rec.integral_indices)
    rows = [(n, format_point(p), int(n in integral)) for n, p in enumerate(rec.points)]
    return {"map": args.map, "point": format_point(point), "s": list(s),
            "points": [format_point(p) for p in rec.points],
            "integral_indices": list(rec.integral_indices),
            "cycle_entry": list(rec.cycle_entry) if rec.cycle_entry else None,
            "truncation": rec.truncation.value, "count": count, "exact": exact}, rows


def cmd_canheight(args) -> tuple[dict, list | None]:
    m = _map_from_args(args)
    from .canonical import canonical_height

    point = parse_point(args.point)
    est = canonical_height(m, point, args.tol)
    return {"map": args.map, "point": format_point(point), "value": est.value,
            "radius": est.radius, "iterations": est.iterations_used}, None


def cmd_preper(args) -> tuple[dict, list | None]:
    m = _map_from_args(args)
    from .canonical import is_preperiodic

    point = parse_point(args.point)
    return {"map": args.map, "point": format_point(point),
            "preperiodic": is_preperiodic(m, point)}, None


def cmd_nmax(args) -> tuple[dict, list | None]:
    m = _map_from_args(args)
    from .orbits import empirical_max_iterate

    s = _parse_s(args.s)
    n_emp, witness = empirical_max_iterate(m, s, args.b, n_cap=args.ncap,
                                           height_budget_bits=args.height_budget_bits,
                                           workers=args.workers)
    return {"map": args.map, "s": list(s), "b": args.b, "n_emp": n_emp,
            "witness": format_point(witness) if witness else None}, None


def cmd_density(args) -> tuple[dict, list | None]:
    m = _map_from_args(args)
    from .orbits import density_of_integral_preimages

    s = _parse_s(args.s)
    report = density_of_integral_preimages(m, s, _parse_ints(args.b),
                                           workers=args.workers)
    return ({"map": args.map, "s": list(s), **as_dict(report),
             "loglog_slope": report.loglog_slope()}, report_rows("density", report))


def cmd_avg(args) -> tuple[dict, list | None]:
    from .families import avg_experiment
    from .parsing import parse_map, resolve_map_text

    expr = parse_map(resolve_map_text(args.map))
    beta = parse_map(args.beta).to_basepoint()
    target = expr.to_rational_map() if expr.is_constant_map() else expr.to_family()
    s = _parse_s(args.s)
    report = avg_experiment(target, beta, s, _parse_ints(args.b), n_cap=args.ncap,
                            height_budget_bits=args.height_budget_bits, workers=args.workers)
    return ({"map": args.map, "beta": args.beta, "s": list(s), **as_dict(report)},
            report_rows("avg", report))


def cmd_avg3(args) -> tuple[dict, list | None]:
    from .families import three_param_avg

    report = three_param_avg(args.n1, args.n2, args.n3, _parse_ints(args.b),
                             n_cap=args.ncap, height_budget_bits=args.height_budget_bits,
                             workers=args.workers)
    return as_dict(report), report_rows("avg3", report)


def cmd_ffavg(args) -> tuple[dict, list | None]:
    from .funcfield import ff_orbit_avg, parse_ffpoly

    s_polys = []
    if args.s.strip():
        s_polys = [parse_ffpoly(args.p, chunk) for chunk in args.s.split(",")]
    beta = _parse_ints(args.beta_coeffs)
    report = ff_orbit_avg(args.p, args.d, beta, s_polys, _parse_ints(args.b),
                          n_cap=args.ncap)
    return ({"p": args.p, "d": args.d, "beta_coeffs": beta, **as_dict(report)},
            report_rows("ffavg", report))


def cmd_verify(args) -> tuple[dict, list | None]:
    import inspect

    results = []
    for fn in verification_checks():
        kwargs = {"seed": args.seed} if "seed" in inspect.signature(fn).parameters else {}
        results.extend(fn(**kwargs).checks)
    return ({"ok": all(c.ok for c in results), "checks": [as_dict(c) for c in results]},
            [(c.name, int(c.ok), c.detail) for c in results])


class UsageError(DynctlError):
    """Command-line input rejected before any work: a flag or config key."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as UsageError, so main emits them as JSON."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="dynctl",
        description="Exact-arithmetic experiments on S-integral points in orbits of rational self-maps of P^1.",
    )
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    # Each subcommand registers only the flags it reads.
    def add(name, fn, formats=("csv", "json"), ncap=False, budget=False, workers=False,
            **kwargs):
        p = sub.add_parser(name, **kwargs)
        subparsers[name] = p
        p.set_defaults(fn=fn)
        # SUPPRESS keeps a --config given before the subcommand.
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="key=value file supplying flag defaults")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default="", help="output path (default stdout)")
        if ncap:
            p.add_argument("--ncap", type=_int_flag, default=DEFAULT_N_CAP)
        if budget:
            p.add_argument("--height-budget-bits", type=_int_flag,
                           default=DEFAULT_HEIGHT_BUDGET_BITS, dest="height_budget_bits")
        if workers:
            p.add_argument("--workers", type=_int_flag, default=1)
        return p

    p = add("orbit", cmd_orbit, ncap=True, budget=True,
            help="scan one orbit and count S-integral points")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--s", default="")

    p = add("canheight", cmd_canheight, formats=("json",),
            help="certified canonical height of a point")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--tol", type=_float_flag, default=1e-6)

    p = add("preper", cmd_preper, formats=("json",),
            help="certified preperiodicity decision")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)

    p = add("nmax", cmd_nmax, formats=("json",), ncap=True, budget=True, workers=True,
            help="empirical largest iterate producing an S-integral point")
    p.add_argument("--map", required=True)
    p.add_argument("--s", default="")
    p.add_argument("--b", type=_int_flag, required=True)

    p = add("density", cmd_density, workers=True,
            help="density of S-integral preimages by height")
    p.add_argument("--map", required=True)
    p.add_argument("--s", default="")
    p.add_argument("--b", required=True, help="comma-separated height bounds")

    p = add("avg", cmd_avg, ncap=True, budget=True, workers=True,
            help="average integral orbit count over a parameter sweep")
    p.add_argument("--map", required=True)
    p.add_argument("--beta", required=True, help="basepoint family, a rational function of t")
    p.add_argument("--s", default="")
    p.add_argument("--b", required=True)

    p = add("avg3", cmd_avg3, ncap=True, budget=True, workers=True,
            help="boxed average for the three-parameter family")
    p.add_argument("--n1", type=_int_flag, default=6)
    p.add_argument("--n2", type=_int_flag, default=6)
    p.add_argument("--n3", type=_int_flag, default=6)
    p.add_argument("--b", required=True)

    p = add("ffavg", cmd_ffavg, ncap=True,
            help="function-field average over non-constant f",
            description="Function-field average over non-constant f. Orbit heights over "
                        "F_p(t) are degrees, bounded by a fixed budget of "
                        f"{DEFAULT_FF_HEIGHT_BUDGET}, so there is no "
                        "--height-budget-bits. The sweep runs serially.")
    p.add_argument("--p", type=_int_flag, required=True)
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--beta-coeffs", required=True, dest="beta_coeffs",
                   help="coefficients of beta as a polynomial in f, ascending")
    p.add_argument("--s", default="", help="comma-separated monic irreducible polynomials in t")
    p.add_argument("--b", required=True)

    p = add("verify", cmd_verify, help="run every identity check")
    p.add_argument("--seed", type=_int_flag, default=0)

    return parser, subparsers


def _flag_actions(p: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {a.dest: a for a in p._actions if a.dest not in ("help", "config")}


def _apply_config(path: str, chosen: argparse.ArgumentParser,
                  parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Make key=value file entries defaults of the chosen subcommand's flags.

    Values stay strings, so argparse converts them with the flag's type when
    it parses again, and explicit flags still win. A key that belongs to
    another subcommand is ignored; a key that no subcommand has is an error.
    """
    defaults = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            defaults[key.strip().replace("-", "_")] = value.strip()
    known = {dest for p in parsers.values() for dest in _flag_actions(p)}
    for key in defaults:
        if key not in known:
            raise UsageError(f"unknown --config key {key!r}")
    own = _flag_actions(chosen)
    defaults = {k: v for k, v in defaults.items() if k in own}
    for key, value in defaults.items():
        choices = own[key].choices
        if choices is not None and value not in choices:
            raise UsageError(f"--config key {key!r}: {value!r} is not one of "
                             f"{', '.join(choices)}")
    chosen.set_defaults(**defaults)


# Lowest accepted value per numeric flag, checked after parsing so that
# values supplied by --config are held to the same rule.
_FLAG_MINIMUMS = (("ncap", "--ncap", 0),
                  ("height_budget_bits", "--height-budget-bits", 1),
                  ("workers", "--workers", 1))


def _validate_numeric_flags(args) -> None:
    """The minimums, N_CAP_LIMIT and HEIGHT_BUDGET_BITS_LIMIT, before any work."""
    for attr, flag, low in _FLAG_MINIMUMS:
        value = getattr(args, attr, None)
        if value is not None and value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    if getattr(args, "ncap", None) is not None:
        check_n_cap(args.ncap)
    budget = getattr(args, "height_budget_bits", None)
    if budget is not None and budget > HEIGHT_BUDGET_BITS_LIMIT:
        raise SizeBudgetExceededError(f"a height budget of {budget} bits is over the limit "
                                      f"of {HEIGHT_BUDGET_BITS_LIMIT}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Parse again with the config entries as defaults of this subcommand.
            _apply_config(args.config, subparsers[args.subcommand], subparsers)
            args = parser.parse_args(argv)
        _validate_numeric_flags(args)
        payload, rows = args.fn(args)
        text = emit_csv(args.subcommand, rows) if args.format == "csv" else emit_json(payload)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if payload.get("ok", True) else 1
    except Exception as exc:
        # Every failure, expected or not, ends as one JSON object on stderr;
        # usage errors keep argparse's exit status 2.
        sys.stderr.write(error_json(exc))
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())

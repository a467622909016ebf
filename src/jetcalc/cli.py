"""Batch command-line front end: derivation, verification, and chi reports.

Exit codes: 0 success, 2 budget exhausted, 64 usage error, 70 integrity
failure.  Reports are deterministic for identical configurations: the JSON
body carries no clocks; timings go to the stderr log stream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .degpoly import DegreePolynomial
from .groebner import Budget
from .jets import JetContext
from .invgen import run_generation, verify_syzygies
from .polyring import DegRevLex, Lex

EX_OK = 0
EX_BUDGET = 2
EX_USAGE = 64
EX_INTEGRITY = 70


def _log(msg: str):
    print(msg, file=sys.stderr)


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(doc) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_text(doc: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
                lines.append(pad + "  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line.strip())


def _budget(args) -> Budget:
    b = Budget(args.budget_steps)
    if args.budget_seconds:
        b.deadline = time.monotonic() + args.budget_seconds
    return b


def _poly_report(p: DegreePolynomial, denominator: Optional[int] = None) -> dict:
    out = {"text": str(p)}
    if denominator is not None:
        from .euler import scaled_numerator

        out["denominator"] = str(denominator)
        out["numerator_coefficients"] = [str(c) for c in scaled_numerator(p, denominator)]
    else:
        out["coefficients"] = [str(c) for c in p.coeffs]
    return out


def _load_catalog_anywhere(catalog_id: str):
    """Embedded catalogs, overridable by JETCALC_CATALOG_DIR JSON documents."""
    from . import catalog as cat

    override = os.environ.get("JETCALC_CATALOG_DIR")
    if override:
        path = os.path.join(override, f"{catalog_id}.json")
        if os.path.exists(path):
            with open(path) as fh:
                return cat.catalog_from_json(json.load(fh))
    return cat.load_catalog(catalog_id)


def cmd_derive(args) -> int:
    if args.n < 1 or args.kappa < 1:
        _log("derive: --n and --kappa must be positive")
        return EX_USAGE
    order = Lex() if args.order == "lex" else DegRevLex()
    budget = _budget(args)
    t0 = time.monotonic()
    from .catalog import normalizer_for

    ctx = JetContext(args.n, args.kappa)
    state = run_generation(ctx, args.mode, tag_order=order, budget=budget,
                           normalizer=normalizer_for(ctx, args.mode))
    _log(f"derive: {time.monotonic() - t0:.2f}s, budget used {budget.used}")
    doc = state.to_json()
    doc["version"] = __version__
    doc["config"] = {"n": args.n, "kappa": args.kappa, "mode": args.mode,
                     "order": args.order, "budget_steps": args.budget_steps}
    _emit(doc, args)
    if state.budget_exceeded or not state.terminated:
        return EX_BUDGET
    return EX_OK


def cmd_verify(args) -> int:
    from . import catalog as cat

    try:
        data = _load_catalog_anywhere(args.catalog)
    except (KeyError, ValueError, OSError) as exc:
        _log(f"verify: cannot load catalog {args.catalog}: {exc}")
        return EX_USAGE
    t0 = time.monotonic()
    issues = cat.integrity_check(data)
    gens = data.generator_map()
    f1_name = "f1" if "f1" in gens else "f1'"
    sets = {}
    failures = []
    for key in sorted(data.syzygy_sets):
        checks = verify_syzygies(data.syzygy_sets[key], gens, f1_name)
        sets[key] = {
            "total": len(checks),
            "passed": sum(1 for c in checks if c.ok),
            "max_intermediate_terms": max((c.max_terms for c in checks), default=0),
            "failing": [c.syzygy_id for c in checks if not c.ok],
        }
        failures.extend(c.syzygy_id for c in checks if not c.ok)
    _log(f"verify: {time.monotonic() - t0:.2f}s")
    doc = {
        "version": __version__,
        "catalog": data.id,
        "checksum": cat.catalog_checksum(cat.catalog_to_json(data)),
        "entries": len(data.entries),
        "integrity_issues": [f"{i.entry}: {i.problem}" for i in issues],
        "syzygy_sets": sets,
    }
    _emit(doc, args)
    if issues or failures:
        return EX_INTEGRITY
    return EX_OK


def cmd_chi(args) -> int:
    from . import euler
    from .schur import enumerate_families

    t0 = time.monotonic()
    doc = {"version": __version__, "target": args.target}
    if args.target == "E44":
        contribs = euler.family_contributions(enumerate_families(), 4)
        coeffs = euler.slot_totals(contribs)
        chi = euler.assemble_chi(coeffs, 4)
        den = 1313317832303894333210335641600000000000000
        doc["families"] = {
            c.family: {"multiplicity": c.multiplicity,
                       "slots": {k: str(v) for k, v in c.slots.items()}}
            for c in contribs
        }
        doc["coefficient_slots"] = {k: str(v) for k, v in sorted(coeffs.items())}
        doc["chi_m16_coefficient"] = _poly_report(chi, den)
        doc["positivity_threshold"] = euler.positivity_threshold(chi)
        doc["approximate_roots"] = [round(r, 8) for r in euler.real_roots_approx(chi)]
    elif args.target == "E43":
        totals = euler.e43_slot_totals()
        chi = euler.chi_e43_leading(totals)
        den = 206133591045620367360000000
        doc["chi_m11_coefficient"] = _poly_report(chi, den)
        doc["positivity_threshold"] = euler.positivity_threshold(chi)
        doc["approximate_roots"] = [round(r, 8) for r in euler.real_roots_approx(chi)]
        if args.with_h2:
            h2c = euler.h2_majorant_coefficient(totals)
            h0 = euler.h0_minorant(chi, h2c)
            doc["h2_majorant_coefficient"] = str(h2c)
            doc["h0_minorant"] = _poly_report(h0, den)
            doc["h0_positivity_threshold"] = euler.positivity_threshold(h0)
    elif args.target == "rousseau-E33":
        chi = euler.chi_rousseau_e33()
        doc["chi_m9_coefficient"] = _poly_report(chi, 81648000000)
        doc["positivity_threshold"] = euler.positivity_threshold(chi)
    elif args.target == "schur":
        ell = args.ell
        if not ell:
            _log("chi: --target schur needs --ell L1,L2,...")
            return EX_USAGE
        if list(ell) != sorted(ell, reverse=True) or any(x < 0 for x in ell):
            _log("chi: --ell must be weakly decreasing and nonnegative")
            return EX_USAGE
        lead = euler.chi_schur_leading(ell, dual=not args.tangent)
        doc["ell"] = list(ell)
        doc["dual"] = not args.tangent
        doc["leading_coefficient"] = _poly_report(lead)
    else:
        _log(f"chi: unknown target {args.target}")
        return EX_USAGE
    _log(f"chi: {time.monotonic() - t0:.2f}s")
    _emit(doc, args)
    return EX_OK


class _Parser(argparse.ArgumentParser):
    """Exits EX_USAGE on a bad command line; argparse's 2 is the budget code."""

    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: {message}\n")


def _positive(kind):
    """An argparse type: a number of the given kind above zero."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{text!r} is not a positive {kind.__name__}")
        return value
    return parse


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetcalc",
        description="Exact computer algebra for reparametrization-invariant "
                    "jet polynomials and Euler-characteristic asymptotics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", metavar="PATH", default=None)
    common.add_argument("--jobs", type=_positive(int), default=1,
                        help="accepted for compatibility; changes nothing "
                             "(every command runs on one core)")
    common.add_argument("--budget-steps", type=_positive(int), default=10_000_000)
    common.add_argument("--budget-seconds", type=_positive(float), default=None)

    derive = sub.add_parser("derive", parents=[common],
                            help="run the generation algorithm")
    derive.add_argument("--n", type=int, required=True)
    derive.add_argument("--kappa", type=int, required=True)
    derive.add_argument("--mode", choices=("full", "bi"), default="full")
    derive.add_argument("--order", choices=("lex", "degrevlex"), default="degrevlex")
    derive.set_defaults(func=cmd_derive)

    verify = sub.add_parser("verify", parents=[common],
                            help="catalog integrity and syzygy verification")
    verify.add_argument("--catalog", required=True)
    verify.set_defaults(func=cmd_verify)

    chi = sub.add_parser("chi", parents=[common],
                         help="Euler-characteristic computations")
    chi.add_argument("--target", required=True,
                     choices=("E44", "E43", "rousseau-E33", "schur"))
    chi.add_argument("--with-h2", action="store_true")
    chi.add_argument("--ell", type=_int_list, default=None,
                     help="comma-separated Schur indices for --target schur")
    chi.add_argument("--tangent", action="store_true",
                     help="tangent bundle instead of the cotangent twist")
    chi.set_defaults(func=cmd_chi)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EX_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        return EX_OK


if __name__ == "__main__":
    sys.exit(main())

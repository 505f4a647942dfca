"""Command line front end.

Subcommands classify, ramify, equiv, orbits, verify and canon, each
over a field named by --field p^n (or a plain prime power).  Output is
a plain-text report by default and JSON with --json; both are
deterministic byte for byte.  Exit status: 0 for success or a passing
verification, 1 for usage and domain errors, 2 for a verification
mismatch or an inequivalent pair, 3 for an internal error (a failed
invariant check inside the library, reported on one line of stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import (CASES, ClassLabel, _classify, are_equivalent,
                       canonical_rep, label_json)
from .ffield import (_prime_factors, check_desk_scale, check_power_scale,
                     field_create)
from .orbits import STATEMENTS, all_classes, verify_statement
from .parse import ParseError, parse_expression
from .ramify import _hurwitz, _profile, ramification_profile


class _ArgParser(argparse.ArgumentParser):
    # usage problems exit 1; 2 is reserved for verification mismatches
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def parse_field(text):
    """A field designator: p^n, or a plain prime power like 8.  The
    field must lie within the desk-scale bound; the extensions that
    classify and ramify build over it may exceed the bound."""
    if "^" in text:
        base, _, exp = text.partition("^")
        try:
            p, n = int(base), int(exp)
        except ValueError:
            raise ValueError("field designator %r is not p^n" % text)
        check_power_scale(p, n, "elements of F_%d^%d" % (p, n))
        return field_create(p, n)
    try:
        q = int(text)
    except ValueError:
        raise ValueError("field designator %r is not p^n" % text)
    if q < 2:
        raise ValueError("field size must be at least 2")
    check_desk_scale(q, "elements of F_%d" % q)
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError("%d is not a prime power" % q)
    p = primes[0]
    n = 0
    while q > 1:
        q //= p
        n += 1
    return field_create(p, n)


def _param_str(v):
    if isinstance(v, tuple):
        return "(%s)" % ",".join(str(d) for d in v)
    return str(v)


def label_text(label):
    parts = [label.case]
    for name, value in label.params:
        parts.append("%s=%s" % (name, _param_str(value)))
    return " ".join(parts)


def _emit(args, data):
    print(json.dumps(data, sort_keys=True, indent=2))


def _print_profile(prof):
    if not prof.separable:
        print("inseparable: ramified everywhere")
        return
    for rec in prof.to_records():
        print("ramified point %s  degree %d  index %d  branch %s"
              % (rec["point"], rec["field_degree"], rec["index"],
                 rec["branch_point"]))


def cmd_classify(args, ctx):
    R = parse_expression(args.expression, ctx, require_map=True)
    label, witness, factors, prof = _classify(R)
    if prof is None:  # a FourPoint label, read off the factors alone
        prof = _profile(R, factors)
    if args.json:
        data = {"field": ctx.name, "expression": str(R),
                "label": label_json(label, ctx, witness),
                "ramification": {"separable": prof.separable,
                                 "points": prof.to_records()}}
        if witness is not None:
            data["representative"] = str(canonical_rep(label, ctx))
        _emit(args, data)
        return 0
    print("field %s" % ctx.name)
    print("expression %s" % R)
    print("class %s" % label_text(label))
    if witness is not None:
        print("witness B %s" % witness.B)
        print("witness A %s" % witness.A)
        print("representative %s" % canonical_rep(label, ctx))
    _print_profile(prof)
    return 0


def cmd_ramify(args, ctx):
    R = parse_expression(args.expression, ctx, require_map=True)
    prof = ramification_profile(R)
    hurwitz = _hurwitz(R, prof) if prof.separable else None
    if args.json:
        _emit(args, {"field": ctx.name, "expression": str(R),
                     "separable": prof.separable,
                     "points": prof.to_records(),
                     "hurwitz": hurwitz})
        return 0
    print("field %s" % ctx.name)
    print("expression %s" % R)
    _print_profile(prof)
    if hurwitz is not None:
        print("hurwitz %s" % hurwitz)
    return 0


def cmd_equiv(args, ctx):
    R1 = parse_expression(args.expression, ctx, require_map=True)
    R2 = parse_expression(args.expression2, ctx, require_map=True)
    pair = are_equivalent(R1, R2)
    if args.json:
        data = {"field": ctx.name, "first": str(R1), "second": str(R2),
                "equivalent": pair is not None}
        if pair is not None:
            data["B"] = str(pair.B)
            data["A"] = str(pair.A)
        _emit(args, data)
    elif pair is None:
        print("inequivalent")
    else:
        print("equivalent")
        print("B %s" % pair.B)
        print("A %s" % pair.A)
    return 0 if pair is not None else 2


def cmd_orbits(args, ctx):
    report = all_classes(ctx, args.degree)
    if args.json:
        _emit(args, report.to_json(ctx))
        return 0
    print("%d classes among %d expressions of degree %d over %s"
          % (report.class_count, report.total, report.degree, ctx.name))
    rows = [(label_text(c["label"]), c["size"], c["stabilizer_order"],
             str(c["representative"])) for c in report.classes]
    width = max(len(r[0]) for r in rows)
    print("%-*s  %8s  %4s  %s" % (width, "label", "size", "stab",
                                  "representative"))
    for text, size, stab, rep in rows:
        print("%-*s  %8d  %4d  %s" % (width, text, size, stab, rep))
    return 0


def cmd_verify(args, ctx):
    ok, details = verify_statement(ctx, args.statement)
    if args.json:
        data = dict(details)
        data["ok"] = ok
        _emit(args, data)
        return 0 if ok else 2
    print("%s %s over %s" % ("PASS" if ok else "FAIL",
                             args.statement, ctx.name))
    for key in sorted(details):
        if key in ("statement", "q"):
            continue
        print("  %s: %s" % (key, json.dumps(details[key],
                                            sort_keys=True)))
    return 0 if ok else 2


def _parse_element(text, ctx):
    R = parse_expression(text, ctx)
    if R.degree != 0:
        raise ValueError("parameter %r is not a field constant" % text)
    return R.num.coeff(0)


def cmd_canon(args, ctx):
    params = {}
    for item in args.param or ():
        name, eq, value = item.partition("=")
        if not eq:
            raise ValueError("parameter %r is not NAME=VALUE" % item)
        if name == "k":
            params[name] = int(value)
        else:
            params[name] = _parse_element(value, ctx)
    label = ClassLabel(args.case, params)
    rep = canonical_rep(label, ctx)
    if args.json:
        data = label_json(label, ctx)
        data["field"] = ctx.name
        data["representative"] = str(rep)
        _emit(args, data)
        return 0
    print("class %s" % label_text(label))
    print("representative %s" % rep)
    return 0


def build_parser():
    common = _ArgParser(add_help=False)
    common.add_argument("--field", required=True,
                        help="field designator p^n, e.g. 5 or 2^2")
    common.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    parser = _ArgParser(
        prog="ratclass",
        description="classify rational expressions over finite fields "
                    "up to composition with Moebius transformations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify one expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ramify", parents=[common],
                       help="ramification profile of one expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_ramify)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide equivalence of two expressions")
    p.add_argument("expression")
    p.add_argument("expression2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("orbits", parents=[common],
                       help="full class partition at one degree")
    p.add_argument("--degree", type=int, required=True, choices=(2, 3))
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", parents=[common],
                       help="check a closed-form count by enumeration")
    p.add_argument("--statement", required=True, choices=STATEMENTS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("canon", parents=[common],
                       help="canonical representative of a named class")
    p.add_argument("--case", required=True,
                   choices=[c for c in CASES if c != "FourPoint"])
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="class parameter, e.g. k=1 or c=t+1")
    p.set_defaults(func=cmd_canon)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        ctx = parse_field(args.field)
        return args.func(args, ctx)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except AssertionError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Exit codes: 0 success, 2 usage error, 3 domain error (invalid inputs),
4 oracle mismatch.
"""

import argparse
import json
import sys

from .cable import (DetectionMode, bezout, cable_detected_set, ray_union,
                    torus_knot_detected)
from .exact import (_INTEGER, ExtRational, SlopeSet, _Record,
                    parse_slope_set)
from .intervals import cable_interval, relative_interval
from .jn import decide
from .oracle import grid_scan_interval


class CommandResult(_Record):
    """One command's answer, as JSON or as text; its dicts have no hash."""

    __slots__ = _fields = ("command", "inputs", "result", "refs", "text",
                           "exit_code")

    def __init__(self, command, inputs, result, refs, text, exit_code=0):
        self._fill(command, inputs, result, refs, text, exit_code)

    def to_json(self):
        return json.dumps({
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "refs": self.refs,
        }, indent=2)


def integer(text):
    """Read ``[+-]?[0-9]+`` after stripping, as a rational's parts are."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError("cannot parse integer: %r" % (text,))
    return int(text)


def _rat_list(text):
    text = text.strip()
    return tuple(map(ExtRational.parse, text.split(","))) if text else ()


def _j_set(text):
    text = text.strip()
    return frozenset(map(integer, text.split(","))) if text else frozenset()


def _one_tau(args):
    taus = _rat_list(args.tau)
    if len(taus) != 1:
        raise ValueError("%s takes exactly one --tau" % args.command)
    return taus[0]


def cmd_jn(args):
    res = decide(args.J, args.b, _rat_list(args.gamma), _rat_list(args.tau))
    text = "true" if res.realizable else "false"
    payload = {"realizable": res.realizable, "rule": res.rule}
    if res.witness is not None:
        w = res.witness
        values = ",".join(str(v) for v in w.assignment)
        text += " (witness N=%d A=%d: %s)" % (w.N, w.A, values)
        payload["witness"] = {
            "N": w.N, "A": w.A,
            "assignment": [str(v) for v in w.assignment],
        }
    return payload, text, [res.rule]


def cmd_interval(args):
    if args.p is not None or args.q is not None:
        if args.p is None or args.q is None:
            raise ValueError("--p and --q must be given together")
        if args.gamma.strip():
            raise ValueError("--gamma cannot be given with --p and --q")
        res = cable_interval(bezout(args.p, args.q), args.J, _one_tau(args))
        refs = ["cable-interval"]
    else:
        res = relative_interval(_rat_list(args.gamma), _rat_list(args.tau),
                                args.J)
        refs = ["relative-interval"]
    return ({"set": res.t.parts(), "strict_set": res.t_strict.parts()},
            "%s (T), %s (T~)" % (res.t, res.t_strict), refs)


def cmd_ray_union(args):
    out = ray_union(bezout(args.p, args.q), args.direction, _one_tau(args))
    return {"set": out.parts()}, str(out), ["ray-union"]


def cmd_cable(args):
    out, tag = cable_detected_set(bezout(args.p, args.q),
                                  parse_slope_set(args.input),
                                  DetectionMode(args.mode))
    return ({"set": out.parts(), "exactness": tag}, "%s (%s)" % (out, tag),
            ["cable-pipeline", "ray-union"])


def cmd_torus(args):
    regular, strong = torus_knot_detected(args.p, args.q)
    return ({"set": regular.parts(), "strong_set": strong.parts()},
            "%s regular; %s strong" % (regular, strong),
            ["torus-closed-form"])


def cmd_oracle(args):
    params, tau = bezout(args.p, args.q), _one_tau(args)
    # tau' has index 2, and its slot is strict when 2 is in J
    res = cable_interval(params, args.J - {2}, tau)
    report = grid_scan_interval(params, args.J, tau, args.max_denominator,
                                res.t_strict if 2 in args.J else res.t)
    hull = (SlopeSet.empty() if report.hull_low is None
            else SlopeSet.interval(report.hull_low, report.hull_high))
    text = "hull %s tested %d mismatches %d" % (
        hull, report.tested_points, len(report.mismatches))
    payload = {
        "hull": hull.parts(),
        "tested_points": report.tested_points,
        "mismatches": [[str(p), got, exp]
                       for p, got, exp in report.mismatches],
    }
    return (payload, text, ["grid-scan", "cable-interval"],
            4 if report.mismatches else 0)


def cmd_bezout(args):
    params = bezout(args.p, args.q)
    payload = {"p": params.p, "q": params.q, "r": params.r, "s": params.s,
               "gamma": str(params.gamma)}
    text = "p=%d q=%d r=%d s=%d gamma=%s" % (
        params.p, params.q, params.r, params.s, params.gamma)
    return payload, text, ["bezout-normalization"]


def _add_common(sub, *names, pq_required=True):
    if "p" in names:
        sub.add_argument("--p", type=integer, required=pq_required)
    if "q" in names:
        sub.add_argument("--q", type=integer, required=pq_required)
    if "J" in names:
        sub.add_argument("--J", default="")
    if "b" in names:
        sub.add_argument("--b", type=integer, default=0)
    if "gamma" in names:
        sub.add_argument("--gamma", default="")
    if "tau" in names:
        sub.add_argument("--tau", default="")
    sub.add_argument("--format", choices=("text", "json"), default="text")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line on stderr, exit code 2, as for every other failure
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="cableslopes",
        description="Detected slope intervals on cable spaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("jn", help="decide realisability of one tuple")
    _add_common(p, "b", "J", "gamma", "tau")
    p.set_defaults(func=cmd_jn)

    p = subs.add_parser("interval", help="relative interval of a tuple")
    _add_common(p, "p", "q", "J", "gamma", "tau", pq_required=False)
    p.set_defaults(func=cmd_interval)

    p = subs.add_parser("ray-union", help="union of intervals over a ray")
    _add_common(p, "p", "q", "tau")
    p.add_argument("--direction", choices=("geq", "leq"), required=True)
    p.set_defaults(func=cmd_ray_union)

    p = subs.add_parser("cable", help="detected set of a cable")
    _add_common(p, "p", "q")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("weak", "regular", "strong"),
                   default="weak")
    p.set_defaults(func=cmd_cable)

    p = subs.add_parser("torus", help="detected set of a torus knot")
    _add_common(p, "p", "q")
    p.set_defaults(func=cmd_torus)

    p = subs.add_parser("oracle", help="grid scan cross-check")
    _add_common(p, "p", "q", "J", "tau")
    p.add_argument("--max-denominator", type=integer, default=24)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("bezout", help="normalized Bezout pair")
    _add_common(p, "p", "q")
    p.set_defaults(func=cmd_bezout)
    return parser


def main(argv=None):
    """Run one command.  Each ``cmd_*`` reads the parsed flags, --J as a
    set, and returns (result, text, refs), the oracle also its exit
    code; main builds the one CommandResult from them."""
    args = build_parser().parse_args(argv)
    try:
        if "J" in args:
            args.J = _j_set(args.J)
        payload, text, refs, *code = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    # every flag of the command as parsed, in declaration order
    inputs = {k: sorted(v) if k == "J" else v for k, v in vars(args).items()
              if k not in ("command", "format", "func")}
    result = CommandResult(args.command, inputs, payload, refs, text, *code)
    print(result.to_json() if args.format == "json" else result.text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

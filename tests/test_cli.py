import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cableslopes import cli
from cableslopes.cable import (DetectionMode, bezout, cable_detected_set,
                               ray_union, torus_knot_detected)
from cableslopes.cli import main
from cableslopes.exact import SlopeSet, parse_slope_set
from cableslopes.intervals import cable_interval, relative_interval
from cableslopes.oracle import grid_scan_interval
from test_readme import EXAMPLES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestGoldenOutputs:
    def test_interval(self, capsys):
        code, out, _ = run(capsys, "interval", "--p", "2", "--q", "3",
                           "--tau", "1/2")
        assert code == 0
        assert out == "[-3/2,-1] (T), (-3/2,-1) (T~)"

    def test_torus(self, capsys):
        code, out, _ = run(capsys, "torus", "--p", "3", "--q", "5")
        assert code == 0
        assert out == "[-inf,7] regular; (-inf,7) strong"

    def test_cable(self, capsys):
        code, out, _ = run(capsys, "cable", "--p", "5", "--q", "2",
                           "--input", "[-inf,1]", "--mode", "regular")
        assert code == 0
        assert out == "[-inf,7] (equals)"

    def test_jn_true_with_witness(self, capsys):
        code, out, _ = run(capsys, "jn", "--J", "", "--b", "0",
                           "--gamma", "2/3", "--tau", "1/2,-3/2")
        assert code == 0
        assert out.startswith("true")
        assert "N=2" in out and "A=1" in out

    def test_jn_false(self, capsys):
        code, out, _ = run(capsys, "jn", "--J", "2", "--b", "0",
                           "--gamma", "2/3", "--tau", "1/2,-3/2")
        assert code == 0
        assert out == "false"

    def test_jn_b_out_of_window(self, capsys):
        code, out, _ = run(capsys, "jn", "--J", "", "--b", "5",
                           "--gamma", "1/2", "--tau", "1/2,1/2")
        assert code == 0
        assert out == "false"

    def test_bezout(self, capsys):
        code, out, _ = run(capsys, "bezout", "--p", "5", "--q", "2")
        assert code == 0
        assert out == "p=5 q=2 r=3 s=-1 gamma=1/2"

    def test_interval_without_gamma(self, capsys):
        # fractions summing to 1, both taus strict: both windows stay closed
        code, out, _ = run(capsys, "interval", "--gamma", "", "--tau",
                           "9/7,5/7", "--J", "1,2")
        assert code == 0
        assert out == "{-2} (T), {-2} (T~)"

    def test_interval_with_no_slot(self, capsys):
        # the strict integral tau is dropped: t is empty, and t_strict is
        # the point b0 = -2
        code, out, _ = run(capsys, "interval", "--tau", "2", "--J", "1")
        assert code == 0
        assert out == "{} (T), {-2} (T~)"

    def test_ray_union(self, capsys):
        code, out, _ = run(capsys, "ray-union", "--p", "2", "--q", "3",
                           "--tau", "1/2", "--direction", "geq")
        assert code == 0
        assert out == "(-inf,-1]"


class TestJsonFormat:
    def test_schema_keys(self, capsys):
        code, out, _ = run(capsys, "interval", "--p", "2", "--q", "3",
                           "--tau", "1/2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "inputs", "result", "refs"}
        assert doc["command"] == "interval"
        assert doc["result"]["set"] == ["[-3/2,-1]"]

    @pytest.mark.parametrize("argv, pieces", [
        (("--tau", "9/7,5/7", "--J", "1,2"), ["{-2}"]),
        (("--tau", "2", "--J", "1"), []),
    ])
    def test_interval_set_is_parts(self, capsys, argv, pieces):
        # the "set" lists t's pieces, as every other command's does
        code, out, _ = run(capsys, "interval", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["set"] == pieces

    @pytest.mark.parametrize("argv, refs", [
        (("--p", "2", "--q", "3", "--tau", "1/2"), ["cable-interval"]),
        (("--gamma", "2/3", "--tau", "1/2"), ["relative-interval"]),
    ])
    def test_interval_refs(self, capsys, argv, refs):
        # each names the function that computed the interval
        code, out, _ = run(capsys, "interval", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["refs"] == refs

    @pytest.mark.parametrize("argv, inputs", [
        (("interval", "--p", "2", "--q", "3", "--tau", "1/2", "--J", "1"),
         {"p": 2, "q": 3, "J": [1], "gamma": "", "tau": "1/2"}),
        (("interval", "--gamma", "1/2", "--tau", "1/3,1/4", "--J", "2,1"),
         {"p": None, "q": None, "J": [1, 2], "gamma": "1/2",
          "tau": "1/3,1/4"}),
        (("jn", "--gamma", "1/2", "--tau", "1/3,1/4", "--b", "+1"),
         {"J": [], "b": 1, "gamma": "1/2", "tau": "1/3,1/4"}),
        (("ray-union", "--direction", "leq", "--p", "2", "--q", "3",
          "--tau", "1/2"),
         {"p": 2, "q": 3, "tau": "1/2", "direction": "leq"}),
    ])
    def test_inputs_echo_parsed_flags(self, capsys, argv, inputs):
        # every flag of the command, in declaration order, J sorted
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert list(json.loads(out)["inputs"].items()) == list(
            inputs.items())

    def test_cable_json_has_exactness(self, capsys):
        code, out, _ = run(capsys, "cable", "--p", "5", "--q", "2",
                           "--input", "[-inf,1]", "--mode", "regular",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["result"]["exactness"] == "equals"
        assert doc["result"]["set"] == ["[-inf,7]"]

    def test_jn_json_witness(self, capsys):
        code, out, _ = run(capsys, "jn", "--b", "0", "--gamma", "2/3",
                           "--tau", "1/2,-3/2", "--format", "json")
        doc = json.loads(out)
        assert doc["result"]["realizable"] is True
        assert doc["result"]["witness"]["N"] == 2

    @pytest.mark.parametrize("argv", [
        ("cable", "--p", "2", "--q", "3", "--input", "{inf}"),
        ("cable", "--p", "2", "--q", "3", "--input", "[0,1] U {inf}"),
        ("cable", "--p", "5", "--q", "2", "--input", "[-inf,1]"),
        ("ray-union", "--p", "2", "--q", "3", "--tau", "1/2",
         "--direction", "leq"),
    ])
    def test_set_matches_text(self, capsys, argv):
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        pieces = json.loads(out)["result"]["set"]
        text_set = text.rsplit(" (", 1)[0] if argv[0] == "cable" else text
        assert (parse_slope_set(" U ".join(pieces))
                == parse_slope_set(text_set))


def one_line(err):
    return len(err.splitlines()) == 1 and "Traceback" not in err


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interval", "--p", "2", "--q", "3", "--frobnicate"])
        assert exc.value.code == 2
        assert one_line(capsys.readouterr().err)

    def test_domain_error(self, capsys):
        code, out, err = run(capsys, "bezout", "--p", "2", "--q", "4")
        assert code == 3
        assert "coprime" in err
        code, out, err = run(capsys, "cable", "--p", "3", "--q", "2",
                             "--input", "(1,1)")
        assert code == 3
        assert out == ""
        assert err == "error: degenerate open arc"

    def test_signed_infinite_arc_end(self, capsys):
        # arc ends are read as points are, so +inf is an end too
        def cable(text):
            return run(capsys, "cable", "--p", "3", "--q", "2", "--input",
                       text)

        assert cable("{+inf}")[0] == 0
        assert cable("[0,+inf]") == cable("[0,inf]")
        assert cable("(-inf,0]") == cable("(+inf,0]")
        assert cable("[0,+inf]")[0] == 0

    def test_j_names_no_tau(self, capsys):
        code, out, err = run(capsys, "interval", "--gamma", "1/2",
                             "--tau", "1/3", "--J", "3")
        assert code == 3
        assert out == ""
        assert err == "error: J must contain 1-based tau indices"

    def test_gamma_with_p_and_q(self, capsys):
        # a cable's gamma comes from p and q
        code, out, err = run(capsys, "interval", "--p", "2", "--q", "3",
                             "--gamma", "1/5", "--tau", "1/2")
        assert code == 3
        assert out == ""
        assert err == "error: --gamma cannot be given with --p and --q"

    def test_infinite_ray_tau(self, capsys):
        for direction in ("geq", "leq"):
            code, out, err = run(capsys, "ray-union", "--p", "2", "--q", "3",
                                 "--tau", "inf", "--direction", direction)
            assert code == 3
            assert out == ""
            assert err == "error: fractional part of infinity"

    def test_jn_infinite_tau(self, capsys):
        code, out, err = run(capsys, "jn", "--gamma", "1/2", "--tau",
                             "1/3,inf")
        assert code == 3
        assert out == ""
        assert err == "error: fractional part of infinity"

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "interval", "--p", "2", "--q", "3",
                           "--tau", "0.5")
        assert code == 3

    @pytest.mark.parametrize("tau", ["1_0", "-1_0", "1/1_0", "\u0663/4",
                                     "\uff11"])
    def test_rational_grammar(self, capsys, tau):
        # each part of a rational is [+-]?[0-9]+: no "_" and no
        # non-ASCII digits, which int() alone would accept
        code, out, err = run(capsys, "ray-union", "--p", "3", "--q", "2",
                             "--tau=" + tau, "--direction", "geq")
        assert code == 3 and out == ""
        assert err == "error: cannot parse rational: %r" % (tau,)

    @pytest.mark.parametrize("argv", [
        ("bezout", "--p", "1_1", "--q", "2"),
        ("bezout", "--p", "\u0665", "--q", "2"),
        ("jn", "--b", "1_0", "--gamma", "1/2", "--tau", "1/2,1/3"),
        ("oracle", "--p", "2", "--q", "3", "--tau", "1/2",
         "--max-denominator", "\uff12"),
    ])
    def test_integer_option_grammar(self, capsys, argv):
        # an integer option is [+-]?[0-9]+, as each part of a rational
        # is: int() alone would read these as 11, 5, 10 and 2
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert one_line(err) and "invalid integer value" in err

    def test_integer_option_forms(self, capsys):
        # a sign and spaces around the digits still read
        assert run(capsys, "bezout", "--p", " +5", "--q", "2 ") == run(
            capsys, "bezout", "--p", "5", "--q", "2")

    @pytest.mark.parametrize("J, part", [("\u0661", "\u0661"),
                                         ("1_0", "1_0"),
                                         ("1,\u0662", "\u0662")])
    def test_j_part_grammar(self, capsys, J, part):
        code, out, err = run(capsys, "jn", "--J", J, "--gamma", "1/2",
                             "--tau", "1/2,1/3")
        assert code == 3 and out == ""
        assert err == "error: cannot parse integer: %r" % (part,)

    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "2", "--q", "3",
                           "--tau", "1/2", "--max-denominator", "10")
        assert code == 0
        assert "mismatches 0" in out

    @pytest.mark.parametrize("J, hull", [("2", "[-16/11,-13/12]"),
                                         ("1,2", "[-13/11,-13/12]")])
    def test_oracle_checks_t_strict(self, capsys, J, hull):
        # tau' has index 2: with 2 in J its slot is strict, and the scan
        # is checked against the T~ that interval prints
        code, out, _ = run(capsys, "oracle", "--p", "2", "--q", "3",
                           "--tau", "1/2", "--J", J, "--max-denominator",
                           "12")
        assert code == 0
        assert out == "hull %s tested 183 mismatches 0" % hull

    def test_oracle_j_names_no_tau(self, capsys):
        code, out, err = run(capsys, "oracle", "--p", "2", "--q", "3",
                             "--tau", "1/2", "--J", "3")
        assert code == 3 and out == ""
        assert err == "error: J must contain 1-based tau indices"

    @pytest.mark.parametrize("D, hull", [("2", "{}"), ("3", "{-5/3}")])
    def test_oracle_hull_is_a_set(self, capsys, D, hull):
        # with J = {1} and integral tau, t is the one point -5/3: a grid
        # of denominators up to 2 misses it
        code, out, _ = run(capsys, "oracle", "--p", "2", "--q", "3",
                           "--tau", "1", "--J", "1", "--max-denominator", D)
        assert code == 0
        assert out.startswith("hull %s tested " % hull)

    @pytest.mark.parametrize("argv", [
        ("torus", "--p", "3"),
        ("cable", "--q", "3", "--input", "[0,1]"),
    ])
    def test_missing_p_or_q(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert one_line(capsys.readouterr().err)

    def test_zero_over_zero(self, capsys):
        code, _, err = run(capsys, "jn", "--gamma", "0/0", "--tau", "1/2,1/3")
        assert code == 3
        assert one_line(err)

    def test_ray_union_takes_one_tau(self, capsys):
        code, _, err = run(capsys, "ray-union", "--p", "2", "--q", "3",
                           "--tau", "1/2,1/3", "--direction", "geq")
        assert code == 3
        assert err == "error: ray-union takes exactly one --tau"

    @pytest.mark.parametrize("command", ["interval", "oracle"])
    def test_takes_one_tau(self, capsys, command):
        code, _, err = run(capsys, command, "--p", "2", "--q", "3",
                           "--tau", "1/2,1/3")
        assert code == 3
        assert err == "error: %s takes exactly one --tau" % command

    def test_bad_j_part_comes_first(self, capsys):
        # --J is read before the command runs, so before its p and q
        code, _, err = run(capsys, "oracle", "--p", "2", "--q", "4",
                           "--tau", "1/2", "--J", "x")
        assert code == 3
        assert err == "error: cannot parse integer: 'x'"

    def test_oracle_needs_a_denominator(self, capsys):
        code, _, err = run(capsys, "oracle", "--p", "2", "--q", "3",
                           "--tau", "1/2", "--max-denominator", "0")
        assert code == 3
        assert one_line(err)


FRACTIONS = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 7))
FINITE = st.one_of(FRACTIONS, st.integers(-9, 9).map(str))
RATIONALS = st.one_of(
    FINITE, st.sampled_from(["inf", "0/0", "1/0", "x", "1.5", "", "2/-3"]))
# a gamma weight lies strictly between 0 and 1
WEIGHTS = st.integers(2, 7).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda n: "%d/%d" % (n, d)))
COPRIME = st.sampled_from([(str(p), str(q)) for p in range(1, 10)
                           for q in range(2, 10) if math.gcd(p, q) == 1])
SMALL_INTS = st.sampled_from("2 3 5 7 4 9 1 6 8 0 -1 x".split())
ARCS = st.builds("{}{},{}{}".format, st.sampled_from("[("), RATIONALS,
                 RATIONALS, st.sampled_from("])"))
OPTIONS = {
    "--p": SMALL_INTS,
    "--q": SMALL_INTS,
    "--b": st.integers(-3, 3).map(str),
    "--J": st.sampled_from(["", "1", "", "1", "", "1", "2", "1,2", "3",
                            "x"]),
    "--gamma": st.lists(st.one_of(WEIGHTS, RATIONALS),
                        max_size=3).map(",".join),
    "--tau": st.one_of(RATIONALS,
                       st.lists(RATIONALS, max_size=3).map(",".join)),
    "--input": st.one_of(
        st.lists(st.one_of(ARCS, RATIONALS.map("{{{}}}".format)),
                 max_size=3).map(" U ".join),
        st.sampled_from(["{}", "junk", "[1,2", "[-inf,inf]"])),
    "--mode": st.sampled_from(["weak", "regular", "strong", "bogus"]),
    "--direction": st.sampled_from(["geq", "leq", "up"]),
    "--max-denominator": st.integers(0, 6).map(str),
    "--format": st.sampled_from(["text", "json"]),
}
# each command's forms, by their flags: interval takes --p and --q, or
# --gamma, and a form with --p and --tau takes exactly one --tau
COMMAND_FORMS = {
    "jn": (("--b", "--J", "--gamma", "--tau"),),
    "interval": (("--p", "--q", "--J", "--tau"), ("--J", "--gamma", "--tau")),
    "ray-union": (("--p", "--q", "--tau", "--direction"),),
    "cable": (("--p", "--q", "--input", "--mode"),),
    "torus": (("--p", "--q"),),
    "oracle": (("--p", "--q", "--J", "--tau", "--max-denominator"),),
    "bezout": (("--p", "--q"),),
}
MOSTLY = st.sampled_from((True,) * 19 + (False,))


@st.composite
def argvs(draw):
    """Mostly one form's own flags, with one rational for a one-tau form;
    sometimes one flag missing or one stray."""
    command = draw(st.sampled_from(sorted(COMMAND_FORMS)))
    form = draw(st.sampled_from(COMMAND_FORMS[command]))
    flags = [f for f in form + ("--format",) if draw(MOSTLY)]
    if not draw(MOSTLY):
        flags.append(draw(st.sampled_from(sorted(OPTIONS))))
    fixed = dict(zip(("--p", "--q"), draw(COPRIME))) if draw(MOSTLY) else {}
    if {"--p", "--tau"} <= set(form) and draw(MOSTLY):
        fixed["--tau"] = draw(FINITE)
    argv = [command]
    for flag in flags:
        value = fixed[flag] if flag in fixed else draw(OPTIONS[flag])
        # "--tau -1/2" is an argparse usage error; "--tau=-1/2" is not
        argv += ["%s=%s" % (flag, value)] if draw(MOSTLY) else [flag, value]
    return argv


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argvs())
    @example(["interval", "--gamma", "", "--tau", "9/7,5/7", "--J", "1,2"])
    def test_exit_code_and_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4)
        assert len(err.getvalue().splitlines()) <= 1


# each command's sets in its text output, by result key
TEXT_SETS = {
    "interval": (r"(.*) \(T\), (.*) \(T~\)", ("set", "strict_set")),
    "torus": (r"(.*) regular; (.*) strong", ("set", "strong_set")),
    "cable": (r"(.*) \((?:equals|contains)\)", ("set",)),
    "ray-union": (r"(.*)", ("set",)),
    "oracle": (r"hull (.*) tested \d+ mismatches \d+", ("hull",)),
}


def _api_sets(args):
    """The sets the API returns for parsed arguments, by result key."""
    if args.command == "interval":
        J, taus = cli._j_set(args.J), cli._rat_list(args.tau)
        res = (relative_interval(cli._rat_list(args.gamma), taus, J)
               if args.p is None else
               cable_interval(bezout(args.p, args.q), J, taus[0]))
        return {"set": res.t, "strict_set": res.t_strict}
    if args.command == "torus":
        regular, strong = torus_knot_detected(args.p, args.q)
        return {"set": regular, "strong_set": strong}
    params = bezout(args.p, args.q)
    if args.command == "oracle":
        r = grid_scan_interval(params, cli._j_set(args.J),
                               cli._rat_list(args.tau)[0],
                               args.max_denominator)
        return {"hull": SlopeSet.empty() if r.hull_low is None
                else SlopeSet.interval(r.hull_low, r.hull_high)}
    if args.command == "cable":
        return {"set": cable_detected_set(params, parse_slope_set(args.input),
                                          DetectionMode(args.mode))[0]}
    return {"set": ray_union(params, args.direction,
                             cli._rat_list(args.tau)[0])}


def _outputs(argv):
    """(exit code, text output, JSON document) of argv in both formats."""
    argv = [a for i, a in enumerate(argv) if not a.startswith("--format")
            and (i == 0 or argv[i - 1] != "--format")]
    outs = []
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--format", fmt])
            except SystemExit as exc:
                code = exc.code
        outs.append(out.getvalue().strip())
    return code, outs[0], json.loads(outs[1]) if code == 0 else None


def _check_sets(argv):
    """Check argv's JSON sets when it exits 0; return its exit code."""
    code, text, doc = _outputs(argv)
    if code != 0 or doc["command"] not in TEXT_SETS:
        return code
    pattern, keys = TEXT_SETS[doc["command"]]
    api = _api_sets(cli.build_parser().parse_args(argv))
    assert set(api) == set(keys)
    for key, shown in zip(keys, re.fullmatch(pattern, text).groups()):
        parts = doc["result"][key]
        assert isinstance(parts, list), key
        got = parse_slope_set("∪".join(parts))
        assert got == parse_slope_set(shown) == api[key], (key, argv)
    return code


class TestJsonSetContract:
    """Every JSON set is a parts() list that reads back as the set in the
    text output and the set the API returns."""

    @pytest.mark.parametrize("argv", [a for a, _ in EXAMPLES],
                             ids=[" ".join(a) for a, _ in EXAMPLES])
    def test_readme_examples(self, argv):
        assert _check_sets(argv) == 0

    @settings(max_examples=300, deadline=None)
    @given(argvs())
    @example(["interval", "--gamma", "", "--tau", "9/7,5/7", "--J", "1,2"])
    @example(["interval", "--tau", "2", "--J", "1"])
    @example(["oracle", "--p", "2", "--q", "3", "--tau", "1/2", "--J", "2",
              "--max-denominator", "12"])
    @example(["oracle", "--p", "2", "--q", "3", "--tau", "1", "--J", "1",
              "--max-denominator", "2"])
    def test_argv_fuzz(self, argv):
        _check_sets(argv)

import json

import pytest

from cableslopes.cli import main
from cableslopes.exact import parse_slope_set


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

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "interval", "--p", "2", "--q", "3",
                           "--tau", "0.5")
        assert code == 3

    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "2", "--q", "3",
                           "--tau", "1/2", "--max-denominator", "10")
        assert code == 0
        assert "mismatches 0" in out

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

    def test_oracle_needs_a_denominator(self, capsys):
        code, _, err = run(capsys, "oracle", "--p", "2", "--q", "3",
                           "--tau", "1/2", "--max-denominator", "0")
        assert code == 3
        assert one_line(err)

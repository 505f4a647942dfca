import importlib
import json
import time

import pytest

import ratclass.cli as cli
import ratclass.ffield as ff
import ratclass.orbits as ob
import ratclass.poly as pl
import ratclass.ramify as rm
from ratclass.cli import label_text, main, parse_field

cl = importlib.import_module("ratclass.classify")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_field():
    assert parse_field("5") is ff.field_create(5)
    assert parse_field("2^2") is ff.field_create(2, 2)
    assert parse_field("8") is ff.field_create(2, 3)
    assert parse_field("27") is ff.field_create(3, 3)
    assert parse_field("13") is ff.field_create(13)
    assert parse_field("1024") is ff.field_create(2, 10)
    for bad in ("6", "1", "0", "x", "2^", "^3", "12", "4^2"):
        with pytest.raises(ValueError):
            parse_field(bad)
    for bad, msg in (("1", "field size must be at least 2"),
                     ("12", "12 is not a prime power")):
        with pytest.raises(ValueError, match=msg):
            parse_field(bad)
    # a designated field stays within the bound, though field_create
    # builds these as extensions of degree 4 over fields within it
    for big in ("101^4", "2^96", "33554432"):
        with pytest.raises(ff.ScaleLimitError,
                           match="exceed the limit 16777216"):
            parse_field(big)


def test_huge_field_designator_refused_promptly(capsys):
    # 2^99999999999 would be a 12.5 GB integer; a designator with
    # |p| >= 2 and n > 24 is refused before the power is computed
    t0 = time.perf_counter()
    code, out, err = run(capsys, "classify", "--field", "2^99999999999",
                         "x^2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert "2^99999999999 elements of F_2^99999999999 exceed the limit " \
        "16777216, the desk-scale bound" in err
    with pytest.raises(ff.ScaleLimitError, match="3\\^25 elements"):
        parse_field("3^25")
    code, out, err = run(capsys, "classify", "--field", "2305843009213693951",
                         "x^2")
    assert code == 1 and "exceed the limit 16777216" in err


def test_label_text():
    assert label_text(cl.ClassLabel("Quad_X2")) == "Quad_X2"
    assert label_text(cl.ClassLabel("Cubic2_iv", {"k": 2})) \
        == "Cubic2_iv k=2"


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "--field", "2", "(x^3+1)/x")
    assert code == 0 and err == ""
    assert out == ("field F_2\n"
                   "expression (x^3+1)/x\n"
                   "class Cubic2_iv k=0\n"
                   "witness B x\n"
                   "witness A x\n"
                   "representative (x^3+1)/x\n"
                   "ramified point inf  degree 1  index 2  branch inf\n")
    code, out, err = run(capsys, "classify", "--field", "2", "x^2")
    assert code == 0 and err == ""
    assert out == ("field F_2\n"
                   "expression x^2\n"
                   "class Quad_X2_Insep\n"
                   "witness B x\n"
                   "witness A x\n"
                   "representative x^2\n"
                   "inseparable: ramified everywhere\n")


def test_classify_json(capsys):
    code, out, err = run(capsys, "classify", "--field", "2^2", "--json",
                         "(x^3+t)/x")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "F_4"
    assert data["label"]["case"] == "Cubic2_iv"
    assert data["label"]["params"] == {"k": 1}
    assert data["label"]["witness"] == {"A": "x", "B": "x"}
    assert data["representative"] == "(x^3+t)/x"
    assert data["ramification"]["separable"] is True
    assert data["ramification"]["points"] == [
        {"point": "inf", "field_degree": 1, "index": 2,
         "branch_point": "inf"}]


def test_classify_four_point_json(capsys):
    code, out, err = run(capsys, "classify", "--field", "3", "--json",
                         "x^2/(x^3+2x+1)")
    assert code == 0
    data = json.loads(out)
    assert data["label"]["case"] == "FourPoint"
    assert data["label"]["params"] == {}
    assert data["label"]["invariants"] == {
        "lambda": "t", "mu": "t", "mu_alt": "2t", "pattern": [1, 1, 2]}
    assert "witness" not in data["label"]
    assert "representative" not in data
    assert len(data["ramification"]["points"]) == 4
    code, out, err = run(capsys, "classify", "--field", "3",
                         "x^2/(x^3+2x+1)")
    assert code == 0 and err == ""
    assert out.splitlines()[2] == \
        "class FourPoint lambda=t mu=t mu_alt=2t pattern=(1,1,2)"


def test_classify_and_ramify_beyond_the_old_field_bound(capsys):
    # W is irreducible of degree 4 over F_101, so the ramification
    # points live in F_{101^4}, which has more than 2^24 elements;
    # classify reads the label off the resolvent in F_{101^2}
    text = "(x^3+2*x+1)/(x^2+3)"
    code, out, err = run(capsys, "classify", "--field", "101", "--json",
                         text)
    assert code == 0 and err == ""
    label = json.loads(out)["label"]
    assert label["case"] == "FourPoint"
    assert label["invariants"] == {"lambda": "19t^2+18", "mu": "4t^2+27",
                                   "mu_alt": "20t^2+99", "pattern": [4]}
    code, out, err = run(capsys, "ramify", "--field", "101", "--json", text)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert [(pt["field_degree"], pt["index"]) for pt in data["points"]] \
        == [(4, 2)] * 4
    assert data["hurwitz"] == "holds_with_equality"
    # F_{101^4} serves as an extension, not as a field to work over
    code, out, err = run(capsys, "classify", "--field", "101^4", text)
    assert code == 1 and out == ""
    assert "104060401 elements of F_101^4 exceed the limit 16777216" in err


def test_classify_rejects_constants(capsys):
    code, out, err = run(capsys, "classify", "--field", "3", "x/x")
    assert code == 1
    assert "constant expression" in err


def test_ramify(capsys):
    code, out, err = run(capsys, "ramify", "--field", "7", "x^3-3*x")
    assert code == 0
    assert out == ("field F_7\n"
                   "expression x^3+4x\n"
                   "ramified point inf  degree 1  index 3  branch inf\n"
                   "ramified point 1  degree 1  index 2  branch 5\n"
                   "ramified point 6  degree 1  index 2  branch 2\n"
                   "hurwitz holds_with_equality\n")
    code, out, err = run(capsys, "ramify", "--field", "2", "--json", "x^2")
    assert code == 0
    data = json.loads(out)
    assert data == {"field": "F_2", "expression": "x^2",
                    "separable": False, "points": [], "hurwitz": None}
    code, out, err = run(capsys, "ramify", "--field", "2", "x^2")
    assert code == 0 and err == ""
    assert out == ("field F_2\n"
                   "expression x^2\n"
                   "inseparable: ramified everywhere\n")


def test_ramify_factors_the_wronskian_once(capsys, monkeypatch):
    # the Hurwitz check reuses the profile that the report prints
    calls = []
    factor = rm.irreducible_factors

    def counted(W):
        calls.append(W)
        return factor(W)

    monkeypatch.setattr(rm, "irreducible_factors", counted)
    code, out, err = run(capsys, "ramify", "--field", "7", "x^3 - 3x")
    assert code == 0 and "hurwitz holds_with_equality" in out
    assert len(calls) == 1


@pytest.mark.parametrize("text, calls", [
    ("x^3 - 3x", 1),
    # FourPoint, the Wronskian of degree 4
    ("(x^3+x)/(x^2+3)", 1),
    # FourPoint with a ramification point at infinity, which the label
    # moves away and factors the Wronskian again for
    ("(x^3+3x^2+x)/(x+2)", 2),
])
def test_classify_factors_the_wronskian_once(capsys, monkeypatch, text,
                                             calls):
    # the report prints the profile that classify built, or builds it
    # from classify's factors
    counted = []
    factor = pl.irreducible_factors

    def counting(W):
        counted.append(W)
        return factor(W)

    code, want, err = run(capsys, "classify", "--field", "7", text)
    assert code == 0 and err == ""
    for module in (cl, rm):
        monkeypatch.setattr(module, "irreducible_factors", counting)
    code, out, err = run(capsys, "classify", "--field", "7", text)
    assert code == 0 and out == want
    assert len(counted) == calls


def test_parse_work_refused_promptly(capsys):
    # (x+1)^6000 takes about 6000^2 field operations to build
    t0 = time.perf_counter()
    code, out, err = run(capsys, "classify", "--field", "7",
                         "(x+1)^6000/(x+2)^5999")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert "36000000 field operations (degree squared) in a power exceed " \
        "the limit 16777216, the desk-scale bound" in err


def test_equiv(capsys):
    code, out, err = run(capsys, "equiv", "--field", "5",
                         "x^3-3*x", "x^3-3*2*x")
    assert code == 2
    assert out == "inequivalent\n"
    code, out, err = run(capsys, "equiv", "--field", "5", "--json",
                         "x^3-3*x", "2(x^3-3x)+1")
    assert code == 0
    data = json.loads(out)
    assert data == {"field": "F_5", "first": "x^3+2x",
                    "second": "2x^3+4x+1", "equivalent": True,
                    "B": "2x+1", "A": "x"}


def test_orbits_command(capsys):
    code, out, err = run(capsys, "orbits", "--field", "2", "--degree", "2")
    assert code == 0
    assert out == (
        "2 classes among 24 expressions of degree 2 over F_2\n"
        "label              size  stab  representative\n"
        "Quad_X2_Insep         6     6  x^2\n"
        "Quad_SepChar2        18     2  (x^2+1)/x\n")
    code, out, err = run(capsys, "orbits", "--field", "2", "--degree", "2",
                         "--json")
    assert code == 0
    assert json.loads(out) \
        == ob.all_classes(ff.field_create(2), 2).to_json(ff.field_create(2))


def test_verify_command(capsys):
    code, out, err = run(capsys, "verify", "--field", "2",
                         "--statement", "quad-counts")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS quad-counts over F_2"
    assert "  expected: [6, 18]" in lines
    assert "  observed: [6, 18]" in lines
    code, out, err = run(capsys, "verify", "--field", "3", "--json",
                         "--statement", "expr-count")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["degrees"]["3"]["enumerated"] == 1944


def test_orbits_scale_guard(capsys):
    # 16^5 * 255 cubics over F_16 exceed the desk-scale bound, which no
    # option overrides
    code, out, err = run(capsys, "orbits", "--field", "16", "--degree", "3")
    assert code == 1 and out == ""
    assert "exceed the limit 16777216" in err
    code, out, err = run(capsys, "orbits", "--help")
    assert code == 0 and "--limit" not in out


def test_canon_command(capsys):
    code, out, err = run(capsys, "canon", "--field", "2^2",
                         "--case", "Cubic2_iv", "--param", "k=1")
    assert code == 0
    assert out == "class Cubic2_iv k=1\nrepresentative (x^3+t)/x\n"
    code, out, err = run(capsys, "canon", "--field", "5",
                         "--case", "Quad_X2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["representative"] == "x^2"
    assert data["case"] == "Quad_X2"
    # a missing parameter is a usage problem
    code, out, err = run(capsys, "canon", "--field", "2^2",
                         "--case", "Cubic2_v")
    assert code == 1
    # a parameter the case does not take is refused, not ignored
    code, out, err = run(capsys, "canon", "--field", "5",
                         "--case", "Quad_X2", "--param", "k=1")
    assert code == 1 and out == ""
    assert "Quad_X2 takes parameters (), not (k)" in err
    code, out, err = run(capsys, "canon", "--field", "2^2", "--case",
                         "Cubic2_v", "--param", "c=t", "--param", "k=2")
    assert code == 1 and out == ""
    # parameters must be field constants
    code, out, err = run(capsys, "canon", "--field", "2^2",
                         "--case", "Cubic2_v", "--param", "c=x")
    assert code == 1
    assert "not a field constant" in err


def test_usage_errors(capsys):
    code, out, err = run(capsys, "classify", "--field", "6", "x^2")
    assert code == 1 and "not a prime power" in err
    code, out, err = run(capsys, "frobnicate")
    assert code == 1
    code, out, err = run(capsys, "classify", "x^2")
    assert code == 1
    code, out, err = run(capsys, "verify", "--field", "2",
                         "--statement", "no-such-statement")
    assert code == 1
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "classify" in out


def test_degree_one_is_rejected(capsys):
    code, out, err = run(capsys, "classify", "--field", "3", "x+1")
    assert code == 1
    assert "quadratic and cubic" in err


def test_seed_flag_never_changes_results(capsys, monkeypatch):
    # the equal-degree splitting walk must return the same roots no
    # matter how it branches
    big = ff.field_create(5, 6)
    x = pl.poly_x(big)
    f = (x - big.from_key(3)) * (x - big.from_key(9)) \
        * (x - big.from_key(2026))
    base = pl.roots(f)
    monkeypatch.setattr(pl, "SPLIT_SEED", 1234)
    assert pl.roots(f) == base
    outs = []
    for seed in (1, 99):
        monkeypatch.setattr(pl, "SPLIT_SEED", seed)
        code, out, err = run(capsys, "classify", "--field", "7",
                             "x^3+x^2+1")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_internal_error_is_one_line(capsys, monkeypatch):
    def broken(R):
        raise AssertionError("alignment failed for %s" % R)

    monkeypatch.setattr(cli, "_classify", broken)
    code, out, err = run(capsys, "classify", "--field", "5", "x^2+1")
    assert code == 3
    assert out == ""
    assert err == "internal error: alignment failed for x^2+1\n"


def test_non_ascii_digits_get_the_caret(capsys):
    for text, pos, ch in (("x²", 1, "²"), ("x^٣+1", 2, "٣")):
        code, out, err = run(capsys, "classify", "--field", "5", text)
        assert code == 1 and out == ""
        assert err == ("parse error at position %d: stray character %r\n"
                       "    %s\n    %s^\n" % (pos, ch, text, " " * pos))

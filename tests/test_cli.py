"""Command-line surface: dispatch, output streams, exit codes, stability."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from whittaker import symfunc
from whittaker.cli import main
from whittaker.repdata import UnramifiedLanglandsRep, parse_rep
from whittaker.ringcore import Scalar, u_power
from whittaker.rseng import verify_essential
from whittaker.symfunc import schur
from whittaker.whitfun import _delta_half_exponent

SRC = Path(__file__).resolve().parent.parent / "src"

STEINBERG = {"q": "3", "segments": [
    {"kind": "unramified", "satake": "1/2", "length": 2}]}
ALL_RAMIFIED = {"q": "3", "segments": [
    {"kind": "ramified", "id": "rho1", "degree": 3, "length": 1}]}
RANK2 = {"q": "3", "segments": [
    {"kind": "unramified", "satake": "2", "length": 2},
    {"kind": "unramified", "satake": "5", "length": 1}]}
SYMBOLIC = {"q": "symbolic", "segments": [
    {"kind": "unramified", "satake": "a1", "length": 2},
    {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1}]}
UNRAMIFIED2 = {"q": "3", "segments": [
    {"kind": "unramified", "satake": "2", "length": 1},
    {"kind": "unramified", "satake": "5", "length": 1}]}
LINKED = {"q": "3", "segments": [
    {"kind": "unramified", "satake": "1", "length": 1},
    {"kind": "unramified", "satake": "3", "length": 1}]}


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_cauchy_small_exit_zero(capsys):
    assert main(["cauchy", "--n", "1", "--m", "1", "--degree", "5"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out


def test_verify_steinberg_exit_zero(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", STEINBERG)
    assert main(["verify", "--rep", rep, "--satake-prime", "w1", "--degree", "8"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert "r=1" in out


def test_essential_fully_ramified_prints_zero(tmp_path, capsys):
    rep = _write(tmp_path, "r0.json", ALL_RAMIFIED)
    assert main(["essential", "--rep", rep, "--weight", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_verify_mismatch_exit_one(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", RANK2)
    code = main(["verify", "--rep", rep, "--satake-prime", "7,1/11",
                 "--degree", "6", "--drop-integrality-indicator"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL first_mismatch=t^0" in out


def test_hook_at_full_rank_exit_one(tmp_path, capsys):
    # m = r = n: an unramified GL(2) rep against a rank-2 pi'; the hook's
    # negative weights are internal, so this is a mismatch, not bad input
    rep = _write(tmp_path, "unram.json", UNRAMIFIED2)
    code = main(["verify", "--rep", rep, "--satake-prime", "5,7",
                 "--drop-integrality-indicator"])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert "FAIL first_mismatch=t^0" in captured.out


def test_invalid_config_exit_two(tmp_path, capsys):
    unramified = {"kind": "unramified", "satake": "2", "length": 1}
    for document, message in ((LINKED, "linked"),
                              ({"q": "1", "segments": [unramified]}, "q must exceed 1"),
                              ({"q": "3", "segments": []}, "nonempty list of segments"),
                              ({"q": "3", "segments": [dict(unramified, kind="other")]},
                               "unknown segment kind"),
                              ({"q": "3", "segments": [{"kind": "unramified", "length": 1}]},
                               "missing key 'satake'")):
        rep = _write(tmp_path, "rep.json", document)
        assert main(["verify", "--rep", rep, "--satake-prime", "w1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and message in captured.err


ONE_SEGMENT = {"q": "3", "segments": [{"kind": "unramified", "satake": "2", "length": 1}]}


@pytest.mark.parametrize("key,value", [
    ("length", "x"), ("length", None), ("length", []), ("length", 2.7), ("length", True),
    ("n", "x"), ("n", None), ("n", 1.9), ("degree", None),
])
def test_non_integer_config_values_exit_two(tmp_path, capsys, key, value):
    # a traceback would exit 1 (the mismatch code), and int() would
    # silently truncate 2.7, 1.9 and True into representations that verify
    document = json.loads(json.dumps(ONE_SEGMENT))
    if key == "n":
        document["n"] = value
    elif key == "length":
        document["segments"][0]["length"] = value
    else:
        document["segments"].append({"kind": "ramified", "id": "rho1", "degree": value,
                                     "length": 1})
    rep = _write(tmp_path, "rep.json", document)
    assert main(["verify", "--rep", rep, "--satake-prime", "5", "--degree", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_digit_string_length_still_verifies(tmp_path, capsys):
    document = {"q": "3", "segments": [{"kind": "unramified", "satake": "2", "length": "2"}]}
    rep = _write(tmp_path, "rep.json", document)
    assert main(["verify", "--rep", rep, "--satake-prime", "5", "--degree", "3"]) == 0
    assert "result: pass" in capsys.readouterr().out


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["essential", "--rep", str(tmp_path / "nope.json"),
                 "--weight", "0"]) == 2


def test_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    # json.load raises a plain ValueError, not JSONDecodeError, for an
    # integer literal longer than Python's int-string conversion limit
    path = tmp_path / "huge.json"
    path.write_text('{"q": "3", "segments": [{"kind": "unramified", "satake": "2", '
                    '"length": ' + "1" * 5000 + '}]}')
    assert main(["essential", "--rep", str(path), "--weight", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _digits_value(text: str) -> Fraction:
    # the rational that "p" or "p/q" names, each part read in chunks below
    # Python's int-string limit (int() refuses a longer string)
    def whole(digits):
        sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        return sign * value

    numerator, _, denominator = text.partition("/")
    return Fraction(whole(numerator), whole(denominator) if denominator else 1)


def test_spherical_value_past_the_digit_limit_prints_exactly(capsys):
    # 2^20000 has 6,021 digits, past Python's int-to-str limit of 4,300
    assert main(["spherical", "--satake", "2", "--weight", "20000"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 6022 and _digits_value(out.strip()) == 2 ** 20000
    # printing leaves the process-wide limit in force, which input parsing relies on
    with pytest.raises(ValueError):
        str(2 ** 20000)


def test_verify_coefficients_past_the_digit_limit_print_exactly(tmp_path, capsys):
    big = "9" * 50
    rep = _write(tmp_path, "readme.json", {"q": "3", "segments": [
        {"kind": "unramified", "satake": "1/2", "length": 2},
        {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1},
        {"kind": "unramified", "satake": "3", "length": 1}]})
    assert main(["verify", "--rep", rep, "--satake-prime", f"{big},3", "--degree", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "result: pass (exact through t^100)"
    # the rhs line repeats the lhs; its t^100 coefficient is h_100 of the roots
    expected = verify_essential(parse_rep(json.loads(Path(rep).read_text())),
                                UnramifiedLanglandsRep((Scalar.of(int(big)), Scalar.of(3))),
                                100).rhs_series.coeffs[100].as_fraction()
    top = lines[-2].split(" + ")[-2]
    assert top.endswith("*t^100") and len(top) > 4300
    assert _digits_value(top[:-len("*t^100")]) == expected


def test_rational_past_the_digit_limit_exits_two(capsys):
    assert main(["spherical", "--satake", "7" * 5000, "--weight", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


_TEN_RAMIFIED = {"q": "3", "segments": [
    {"kind": "ramified", "id": f"rho{i}", "degree": 1, "length": 3} for i in range(10)]}
_ELEVEN_RAMIFIED = {"q": "3", "segments": [
    {"kind": "ramified", "id": f"rho{i}", "degree": 1, "length": 3} for i in range(11)]}
_LONG_RAMIFIED = {"q": "3", "segments": [
    {"kind": "ramified", "id": "rho1", "degree": 1, "length": 10 ** 8}]}
_LONG_UNRAMIFIED = {"q": "3", "segments": [
    {"kind": "unramified", "satake": "2", "length": "1" * 30}]}
_NEAR_ONE_Q = {"q": "1000001/1000000", "segments": [
    {"kind": "unramified", "satake": "2", "length": 1},
    {"kind": "unramified", "satake": "1", "length": 1}]}


@pytest.mark.parametrize("document,argv,head", [
    # 2 is q^e for e near 700,000 only approximately, so linkage must not
    # search for e by powers of q
    (_NEAR_ONE_Q, ["essential", "--weight", "1"], "3*u^-1"),
    # the derivative check must not list the subquotients of every order
    (_TEN_RAMIFIED, ["derivatives", "--order", "1"], "order 1: 10 subquotients"),
    # one product among 4^11 step tuples: the walk must follow only those
    # that can still reach the order
    (_ELEVEN_RAMIFIED, ["derivatives", "--order", "33"], "order 33: 1 subquotients"),
    # the derivative check and walk must not step through a segment's length
    (_LONG_RAMIFIED, ["derivatives", "--order", "1"], "order 1: 1 subquotients"),
    (_LONG_UNRAMIFIED, ["derivatives", "--order", "2"], "order 2: 1 subquotients"),
], ids=["near-one-q", "ten-segments-order-1", "eleven-segments-order-33",
        "length-ten-to-the-eight-order-1", "thirty-digit-length-order-2"])
def test_value_driven_inputs_finish_quickly(tmp_path, document, argv, head):
    # each run takes milliseconds; the timeout turns a regression into a
    # failure rather than a hang
    rep = _write(tmp_path, "rep.json", document)
    done = subprocess.run([sys.executable, "-m", "whittaker.cli", argv[0], "--rep", rep,
                           *argv[1:]], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=3)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == head


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["essential", "--rep", str(path), "--weight", "0"]) == 2


def test_unknown_subcommand_exit_two(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_flag_value_exit_two(capsys, monkeypatch):
    monkeypatch.delenv("WHITTAKER_DEGREE", raising=False)
    for argv, env in ((["cauchy", "--n", "0", "--m", "1"], None),
                      (["schur", "--partition", "1,2", "--vars", "2"], None),
                      (["schur", "--partition", "1", "--vars", "-1"], None),
                      (["cauchy", "--n", "1", "--m", "1", "--degree", "0"], None),
                      (["cauchy", "--n", "1", "--m", "1"], "0")):
        if env is not None:
            monkeypatch.setenv("WHITTAKER_DEGREE", env)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,env", [
    (["spherical", "--satake", "2", "--weight", "١"], None),
    (["spherical", "--satake", "2", "--weight", "1_0"], None),
    (["essential", "--rep", "{rep}", "--weight", "0,1_0"], None),
    (["schur", "--partition", "2,١", "--vars", "3"], None),
    (["schur", "--partition", "2,1", "--vars", "٣"], None),
    (["cauchy", "--n", "1", "--m", "1", "--degree", "٢"], None),
    (["cauchy", "--n", "1", "--m", "1"], "٣"),
    (["cauchy", "--n", "1", "--m", "1"], "1_0"),
    (["cauchy", "--n", "1_0", "--m", "1"], None),
    (["cauchy", "--n", "1", "--m", "١"], None),
    (["cauchy", "--n", "1", "--m", "1", "--seed", "1_0"], None),
    (["verify", "--rep", "{rep}", "--satake-prime", "w1", "--seed", "٤"], None),
    (["verify", "--rep", "{rep}", "--satake-prime", "w1", "--degree", "9" * 5000], None),
    (["derivatives", "--rep", "{rep}", "--order", "1_0"], None),
])
def test_command_line_integers_are_ascii_digits(tmp_path, capsys, monkeypatch, argv, env):
    # int() alone also reads other scripts' digits and underscores between
    # digits; a rep document's length reads neither, and no integer on the
    # command line does
    rep = _write(tmp_path, "rep.json", STEINBERG)
    if env is None:
        monkeypatch.delenv("WHITTAKER_DEGREE", raising=False)
    else:
        monkeypatch.setenv("WHITTAKER_DEGREE", env)
    assert main([a.replace("{rep}", rep) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_command_line_integers_take_a_sign_and_surrounding_whitespace(capsys, monkeypatch):
    monkeypatch.setenv("WHITTAKER_DEGREE", " 3 ")
    assert main(["cauchy", "--n", " +1", "--m", "1 ", "--seed", "-4"]) == 0
    assert "O(t^4)" in capsys.readouterr().out
    assert main(["spherical", "--satake", "2", "--weight", " +3 "]) == 0
    assert capsys.readouterr().out == "8\n"


def test_zero_denominator_exit_two(tmp_path, capsys):
    rep = _write(tmp_path, "zero.json", {"q": "3", "segments": [
        {"kind": "unramified", "satake": "1/0", "length": 1}]})
    steinberg = _write(tmp_path, "rep.json", STEINBERG)
    for argv in (["spherical", "--satake", "1/0", "--weight", "1"],
                 ["verify", "--rep", steinberg, "--satake-prime", "1/0"],
                 ["verify", "--rep", rep, "--satake-prime", "w1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "zero denominator" in captured.err
        assert captured.out == ""


def test_schur_output(capsys):
    assert main(["schur", "--partition", "2,1", "--vars", "2"]) == 0
    assert capsys.readouterr().out.strip() == "x1^2*x2 + x1*x2^2"


def test_schur_in_many_variables(capsys):
    assert main(["schur", "--partition", "1,1", "--vars", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count(" + ") == 60 * 59 // 2 - 1 and "x59*x60" in out
    # one-variable terms in a wide alphabet, each read and re-keyed by the
    # fields it uses, not by the alphabet; names print in name order
    assert main(["schur", "--partition", "1", "--vars", "1500"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out[:-1].split(" + ") == sorted(f"x{i}" for i in range(1, 1501))


def test_schur_vanishing_note_on_stderr(capsys):
    assert main(["schur", "--partition", "1,1,1", "--vars", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "0"
    assert "vanishes" in captured.err


def test_schur_algorithm_flag(capsys):
    assert main(["schur", "--partition", "2,1", "--vars", "3",
                 "--algorithm", "bialternant"]) == 0
    bialt = capsys.readouterr().out
    assert main(["schur", "--partition", "2,1", "--vars", "3"]) == 0
    assert capsys.readouterr().out == bialt
    # the empty alphabet: s_() is 1 whichever algorithm makes it
    for algorithm in symfunc.ALGORITHMS:
        assert main(["schur", "--partition", "0", "--vars", "0", "--algorithm", algorithm]) == 0
        assert capsys.readouterr().out == "1\n"


def test_schur_defaults_to_the_branching_table(capsys, monkeypatch):
    def jacobi_trudi(*args):
        raise AssertionError("the default schur command ran Jacobi-Trudi")

    monkeypatch.setattr(symfunc, "_schur_jacobi_trudi", jacobi_trudi)
    assert main(["schur", "--partition", "2,1", "--vars", "3"]) == 0
    assert capsys.readouterr().out == \
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 2*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2\n"


def test_spherical_output(capsys):
    assert main(["spherical", "--satake", "z1,z2", "--weight", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "u^-1*z1 + u^-1*z2"


def test_every_command_refuses_a_zero_satake_value(tmp_path, capsys):
    steinberg = _write(tmp_path, "rep.json", STEINBERG)
    for argv in (["spherical", "--satake", "0", "--weight", "1"],
                 ["spherical", "--satake", "0,1", "--weight", "1,0"],
                 ["spherical", "--satake", "z1,0", "--weight", "1,0"],
                 ["verify", "--rep", steinberg, "--satake-prime", "0"],
                 ["lfactor", "--rep", steinberg, "--satake-prime", "2,0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Satake values must be nonzero\n"


def test_spherical_on_600_rational_values(capsys):
    # the Schur table has no recursion, so a wide tuple is no harder than a
    # long one; the values start with "-", hence the --satake= form, and
    # none is 0, as a Satake value must be nonzero
    values = [Scalar.rational(i % 13 - 6 or 7, i % 7 + 1) for i in range(600)]
    weight = (2, 1) + (0,) * 598
    satake = ",".join(map(str, values))
    assert main(["spherical", f"--satake={satake}", "--weight", ",".join(map(str, weight))]) == 0
    expected = u_power(_delta_half_exponent(weight, 600)) * schur((2, 1), values, "jacobi-trudi")
    assert capsys.readouterr().out == f"{expected}\n"


def test_lfactor_output(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", STEINBERG)
    assert main(["lfactor", "--rep", rep, "--satake-prime", "w1,w2",
                 "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "roots: [1/2*w1, 1/2*w2]"
    assert out.splitlines()[1].startswith("series: 1 + (1/2*w1 + 1/2*w2)*t")


def test_derivatives_output(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", STEINBERG)
    assert main(["derivatives", "--rep", rep, "--order", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "order 1: 1 subquotients"
    assert out[1] == "- seg(1/2; 1)"


def test_degree_environment_override(tmp_path, capsys, monkeypatch):
    rep = _write(tmp_path, "rep.json", STEINBERG)
    monkeypatch.setenv("WHITTAKER_DEGREE", "3")
    assert main(["lfactor", "--rep", rep, "--satake-prime", "w1"]) == 0
    out = capsys.readouterr().out
    assert "O(t^4)" in out
    monkeypatch.setenv("WHITTAKER_DEGREE", "zero")
    assert main(["lfactor", "--rep", rep, "--satake-prime", "w1"]) == 2


def test_output_byte_stability(tmp_path, capsys):
    rep = _write(tmp_path, "rep.json", RANK2)
    argv = ["verify", "--rep", rep, "--satake-prime", "w1,w2", "--degree", "5",
            "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_exit_one_iff_report_fails(tmp_path):
    rep = _write(tmp_path, "rep.json", RANK2)
    ok = main(["verify", "--rep", rep, "--satake-prime", "7,1/11", "--degree", "5"])
    bad = main(["verify", "--rep", rep, "--satake-prime", "7,1/11", "--degree", "5",
                "--drop-integrality-indicator"])
    assert (ok, bad) == (0, 1)


def test_internal_invariant_violation_exit_three(tmp_path, capsys, monkeypatch):
    # a derivative that derives an unramified segment's kept top away; a
    # report's verdict is read off its series, so it cannot contradict them
    from whittaker import repdata

    derived = repdata._derived_segment
    monkeypatch.setattr(repdata, "_derived_segment",
                        lambda seg, steps: derived(seg, min(steps + 1, seg.length)))
    rep = _write(tmp_path, "rep.json", RANK2)
    assert main(["derivatives", "--rep", rep, "--order", "1"]) == 3
    captured = capsys.readouterr()
    assert ("internal invariant violation: spherical subquotient does not match pi_u"
            in captured.err)
    assert captured.out == ""


def test_spot_check_catches_a_fault_shared_by_both_series(tmp_path, capsys, monkeypatch):
    # one coefficient corrupted alike in both series, as a fault in the
    # shared Scalar arithmetic would: the report still passes, and only a
    # recomputation by other arithmetic can tell
    import whittaker.cli as cli
    from whittaker.ringcore import TruncatedSeries
    from whittaker.rseng import VerificationReport

    def corrupted(report):
        coeffs = list(report.lhs_series.coeffs)
        coeffs[2] = coeffs[2] + 1
        series = TruncatedSeries(report.lhs_series.order, coeffs)
        return VerificationReport(series, series, report.metadata)

    verify, cauchy = cli.verify_essential, cli.cauchy_check
    rep = _write(tmp_path, "rep.json", SYMBOLIC)
    argvs = (["verify", "--rep", rep, "--satake-prime", "b1,b2", "--degree", "4"],
             ["cauchy", "--n", "2", "--m", "2", "--degree", "4"])
    for argv in argvs:
        assert main(argv) == 0
        assert "numeric spot-check (seed 0): pass" in capsys.readouterr().out
    reports = []

    def kept(report):
        reports.append(corrupted(report))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_essential", lambda *a, **k: kept(verify(*a, **k)))
    monkeypatch.setattr(cli, "cauchy_check", lambda *a: kept(cauchy(*a)))
    for argv in argvs:
        assert main(argv) == 3
        captured = capsys.readouterr()
        # the whole report is on stdout before the spot-check fails, with
        # no note after it
        assert captured.out == "\n".join(reports[-1].summary_lines()) + "\n"
        assert "result: pass" in captured.out
        assert "invariant" in captured.err


def test_spot_check_catches_one_term_changed_inside_a_cut_coefficient(tmp_path, capsys,
                                                                       monkeypatch):
    # with blocks of 3 terms the top coefficient is cut into several; one
    # term in its middle, changed alike in both series, must still fail the
    # spot-check's evaluation, after the whole report
    import whittaker.cli as cli
    from whittaker import packing
    from whittaker.ringcore import TruncatedSeries
    from whittaker.rseng import VerificationReport

    monkeypatch.setattr(packing, "_BLOCK", 3)

    def corrupted(report):
        coeffs = list(report.lhs_series.coeffs)
        top = coeffs[-1]
        assert len(top.terms) > 2 * packing._BLOCK
        mono, _ = list(top.iter_terms())[len(top.terms) // 2]
        coeffs[-1] = top + Scalar.monomial(dict(mono), 1)
        series = TruncatedSeries(report.lhs_series.order, coeffs)
        return VerificationReport(series, series, report.metadata)

    verify, cauchy = cli.verify_essential, cli.cauchy_check
    rep = _write(tmp_path, "rep.json", SYMBOLIC)
    argvs = (["verify", "--rep", rep, "--satake-prime", "b1,b2", "--degree", "6"],
             ["cauchy", "--n", "2", "--m", "2", "--degree", "4"])
    for argv in argvs:
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("numeric spot-check (seed 0): pass\n")
    reports = []

    def kept(report):
        reports.append(corrupted(report))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_essential", lambda *a, **k: kept(verify(*a, **k)))
    monkeypatch.setattr(cli, "cauchy_check", lambda *a: kept(cauchy(*a)))
    for argv in argvs:
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "\n".join(reports[-1].summary_lines()) + "\n"
        assert "result: pass" in captured.out
        assert "internal invariant violation" in captured.err


def test_an_error_in_the_spot_check_exits_two_after_the_report(tmp_path, capsys, monkeypatch):
    import whittaker.cli as cli
    from whittaker.errors import PoleAtPoint

    def pole(*args):
        raise PoleAtPoint("spot-check point is a pole")

    rep = _write(tmp_path, "rep.json", SYMBOLIC)
    argv = ["verify", "--rep", rep, "--satake-prime", "b1,b2", "--degree", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "numeric spot-check (seed 0): pass"
    monkeypatch.setattr(cli, "_spot_check", pole)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines[:-1]
    assert captured.err == "error: spot-check point is a pole\n"


def test_spot_check_compares_both_recomputations(tmp_path, capsys, monkeypatch):
    # the lattice recomputation is right and the Euler one, an h table in
    # the ints of one scale, is off at t^2; only the spot-check fills such a
    # table here, so the symbolic report still passes
    h_values, ints = symfunc._h_values, []

    def corrupted(points, order, ring):
        table = h_values(points, order, ring)
        if ring[1] is None:
            ints.append(order)
            table[2] += 1
        return table

    monkeypatch.setattr(symfunc, "_h_values", corrupted)
    rep = _write(tmp_path, "rep.json", SYMBOLIC)
    assert main(["verify", "--rep", rep, "--satake-prime", "b1,b2", "--degree", "4"]) == 3
    captured = capsys.readouterr()
    assert "result: pass" in captured.out and "invariant" in captured.err
    assert ints == [4]


def test_the_spot_check_runs_the_reports_own_decision(tmp_path, capsys, monkeypatch):
    # one core decides each report, on its atoms, and then its spot-check,
    # on the bound rationals, through the same order; cli holds neither the
    # lattice, the Euler side's table nor the evaluation kernel
    import whittaker.cli as cli

    decision, calls = symfunc._cauchy_decision, []

    def spied(xs, ys, order):
        calls.append((sorted({type(v).__name__ for v in (*xs, *ys)}), order))
        return decision(xs, ys, order)

    monkeypatch.setattr(symfunc, "_cauchy_decision", spied)
    rep = _write(tmp_path, "rep.json", SYMBOLIC)
    for argv in (["verify", "--rep", rep, "--satake-prime", "b1,1/2", "--degree", "4"],
                 ["cauchy", "--n", "3", "--m", "2", "--degree", "4"]):
        calls.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("numeric spot-check (seed 0): pass\n")
        assert calls[0] == (["Scalar"], 4)
        assert len(calls) == 2 and calls[1][1] == 4 and "Scalar" not in calls[1][0]
    assert not any(hasattr(cli, name) for name in ("_lattice", "_h_values", "_evaluate"))


def test_cli_and_rseng_leave_the_ring_to_symfunc():
    # neither module imports from packing, nor the parts of symfunc that
    # know the ring: the lattice, the tables, the ring chooser and reader,
    # and the raw decision
    import ast

    inner = {"_lattice", "_h_values", "_read", "_ring", "_filled", "_cauchy_decision"}
    for module in ("cli", "rseng"):
        tree = ast.parse((SRC / "whittaker" / f"{module}.py").read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "whittaker" if node.level else ""
                base = ".".join(filter(None, (base, node.module)))
                imported += [f"{base}.{alias.name}" for alias in node.names]
        assert imported
        for name in imported:
            assert not name.startswith("whittaker.packing"), (module, name)
            assert name not in {f"whittaker.symfunc.{x}" for x in inner}, (module, name)


def _orbit_matrix_changed(form):
    form.ms[3][1][0] += 1
    return form


def _orbit_index_changed(form):
    # the x composition (3, 0, 0) read in the orbit of (2, 1, 0)
    x, y = form.shapes
    alphas, orbits = x[3]
    x = (*x[:3], (alphas, (1, *orbits[1:])), *x[4:])
    return form._replace(shapes=(x, y))


def test_spot_check_catches_a_term_changed_in_the_orbit_expansion(capsys, monkeypatch):
    # distinct atoms are decided on their orbit matrices, which hold; one
    # matrix entry or one orbit index of the form that the lhs is printed
    # from is then changed, and only the spot-check, which evaluates that
    # form, can see it
    route = symfunc._orbit_lattice
    argv = ["cauchy", "--n", "3", "--m", "2", "--degree", "4"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    for change in (_orbit_matrix_changed, _orbit_index_changed):
        def changed(*args):
            ring, form, roots, holds = route(*args)
            assert holds
            return ring, change(form), roots, holds

        monkeypatch.setattr(symfunc, "_orbit_lattice", changed)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "result: pass" in captured.out and captured.out != printed
        assert "numeric recomputation disagrees" in captured.err


def test_a_routed_report_is_spot_checked_without_its_expansion(tmp_path, capsys, monkeypatch):
    # a passing check of distinct atoms, every x name before every y name,
    # keeps its lhs by orbits: neither printing it nor its spot-check
    # expands it, reads a Scalar of it or calls the evaluation kernel, and a
    # whole run reads out only the roots
    import whittaker.cli as cli
    from whittaker import orbits, packing

    xs = [Scalar.variable(f"x{i}") for i in (1, 2, 3)]
    ys = [Scalar.variable(f"y{i}") for i in (1, 2)]
    report = cli.cauchy_check(3, 2, xs, ys, 6)
    assert report.passed and report.lhs_series.form is not None
    calls = []
    for owner, name in ((packing, "_evaluate"), (symfunc, "_evaluate"), (symfunc, "_read"),
                        (orbits, "expanded")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    report.write_summary(lambda text: None)
    assert cli._spot_check(report, 0, xs, ys) == "numeric spot-check (seed 0): pass"
    assert calls == []
    twotops = {"q": "symbolic", "segments": [
        {"kind": "unramified", "satake": "a1", "length": 1},
        {"kind": "unramified", "satake": "a2", "length": 1},
        {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1}]}
    rep = _write(tmp_path, "rep.json", twotops)
    for argv in (["cauchy", "--n", "3", "--m", "2", "--degree", "6"],
                 ["verify", "--rep", rep, "--satake-prime", "b1,b2,b3", "--degree", "6"]):
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("numeric spot-check (seed 0): pass\n")
        assert calls == ["_read"]
        calls.clear()


def test_a_list_that_starts_negative_is_read_in_the_equals_form(tmp_path, capsys):
    # argparse takes "-2" for a value but "-2,3" or "-1/2" for an option
    # name; "--option=-2,3", the form the help strings give, reads any value
    from whittaker.whitfun import essential_value, spherical_value

    rep = _write(tmp_path, "rep.json", RANK2)
    half = UnramifiedLanglandsRep((Scalar.rational(-1, 2),))
    cases = [
        (["spherical", "--weight", "1,0"], "--satake", "-2,3",
         [str(spherical_value((Scalar.of(-2), Scalar.of(3)), (1, 0)))]),
        (["spherical", "--satake", "2,3"], "--weight", "-1,0",
         [str(spherical_value((Scalar.of(2), Scalar.of(3)), (-1, 0)))]),
        (["essential", "--rep", rep], "--weight", "-1,0",
         [str(essential_value(parse_rep(RANK2), (-1, 0)))]),
        (["verify", "--rep", rep, "--degree", "3"], "--satake-prime", "-1/2",
         verify_essential(parse_rep(RANK2), half, 3).summary_lines()),
    ]
    for argv, option, value, lines in cases:
        assert main([*argv, f"{option}={value}"]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        # a version of argparse that reads the value as a number gives the
        # same lines; this one stops with its usage error
        code = main([*argv, option, value])
        captured = capsys.readouterr()
        if code:
            assert (code, captured.out) == (2, "")
            assert f"argument {option}: expected one argument" in captured.err
        else:
            assert captured.out.splitlines() == lines
    assert main(["spherical", "--satake", "-2", "--weight", "1"]) == 0
    assert capsys.readouterr().out == "-2\n"


def test_one_parser_serves_every_call_like_a_fresh_process(tmp_path, capsys, monkeypatch):
    # an invalid argv, then a valid one, then another subcommand, in this
    # process against one fresh process each
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rep = _write(tmp_path, "rep.json", STEINBERG)
    for argv in (["verify", "--rep", rep, "--degree", "three"],
                 ["verify", "--rep", rep, "--satake-prime", "w1", "--degree", "3"],
                 ["schur", "--partition", "2,1", "--vars", "2"]):
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "whittaker.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout,
                                                      fresh.stderr)


def test_an_unexpected_exception_exits_three_not_one(capsys, monkeypatch):
    # exit 1 means a printed mismatch; a crash in a handler must not read so
    import whittaker.cli as cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "schur", crash)
    assert main(["schur", "--partition", "2,1", "--vars", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "internal error: RuntimeError: boom"


@pytest.mark.parametrize("imports_fail", [False, True])
def test_running_out_of_memory_exits_2_with_one_line(monkeypatch, imports_fail):
    # an oversized request that exhausts memory is a request error, not a
    # crash (3) and never a mismatch (1).  The frames, with what they hold,
    # are gone before the message is written, and nothing is imported on
    # the way, since after a MemoryError an import can raise another one.
    # No test here exhausts real memory.
    import builtins
    import weakref

    import whittaker.cli as cli

    class Held:
        pass

    refs, written = [], []

    class Stderr:
        def write(self, text):
            written.append((text, refs[0]() is None))

        def flush(self):
            pass

    real_import = builtins.__import__

    def refuse(*args, **kwargs):
        raise MemoryError

    def exhaust(args):
        held = Held()
        refs.append(weakref.ref(held))
        if imports_fail:
            builtins.__import__ = refuse
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "spherical", exhaust)
    monkeypatch.setattr(sys, "stderr", Stderr())
    try:
        code = main(["spherical", "--satake", "2", "--weight", "3"])
    finally:
        builtins.__import__ = real_import
    assert code == 2
    assert "".join(text for text, _ in written).splitlines() == [
        "error: spherical: the request is too large for memory"]
    assert all(dropped for _, dropped in written)

"""Command-line surface: dispatch, output streams, exit codes, stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

from whittaker.cli import main

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
    rep = _write(tmp_path, "linked.json", LINKED)
    assert main(["verify", "--rep", rep, "--satake-prime", "w1"]) == 2
    err = capsys.readouterr().err
    assert "linked" in err


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["essential", "--rep", str(tmp_path / "nope.json"),
                 "--weight", "0"]) == 2


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["essential", "--rep", str(path), "--weight", "0"]) == 2


def test_unknown_subcommand_exit_two(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_flag_value_exit_two(capsys):
    assert main(["cauchy", "--n", "0", "--m", "1"]) == 2
    assert main(["schur", "--partition", "1,2", "--vars", "2"]) == 2


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


def test_spherical_output(capsys):
    assert main(["spherical", "--satake", "z1,z2", "--weight", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "u^-1*z1 + u^-1*z2"


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
    import whittaker.rseng as rseng
    from whittaker.ringcore import EulerFactor, Scalar

    rep = _write(tmp_path, "rep.json", STEINBERG)
    monkeypatch.setattr(rseng, "theorem_product",
                        lambda *_: EulerFactor([Scalar.of(99)]))
    assert main(["verify", "--rep", rep, "--satake-prime", "w1"]) == 3
    assert "invariant" in capsys.readouterr().err


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
        return VerificationReport(True, report.degree_checked, None, series, series,
                                  report.metadata)

    verify, cauchy = cli.verify_essential, cli.cauchy_check
    rep = _write(tmp_path, "rep.json", SYMBOLIC)
    argvs = (["verify", "--rep", rep, "--satake-prime", "b1,b2", "--degree", "4"],
             ["cauchy", "--n", "2", "--m", "2", "--degree", "4"])
    for argv in argvs:
        assert main(argv) == 0
        assert "numeric spot-check (seed 0): pass" in capsys.readouterr().out
    monkeypatch.setattr(cli, "verify_essential", lambda *a, **k: corrupted(verify(*a, **k)))
    monkeypatch.setattr(cli, "cauchy_check", lambda *a: corrupted(cauchy(*a)))
    for argv in argvs:
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "result: pass" in captured.out
        assert "spot-check" not in captured.out
        assert "invariant" in captured.err


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

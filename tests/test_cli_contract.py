"""The exit-code contract of the command line, under drawn arguments.

Hypothesis draws argv for every subcommand, and representation JSON
documents, and runs each through cli.main in-process.  The contract:

- the exit code is 0, 1 or 2, so no draw reaches the exit-3 handlers;
- exit 1 comes only with a `result: FAIL` line on stdout;
- exit 2 comes only with an `error:` line on stderr (argparse writes
  `whittaker <cmd>: error: ...`, the library `error: ...`);
- the same argv prints the same bytes twice.

Nothing caps the size of a request yet: a large degree, --vars, weight,
--n, --m or derivative order starts a computation that runs for a long
time instead of exiting 2.  Until request budgets land, the strategies
clamp those numbers to small values, so the fuzzer never starts a large
computation.  Segment lengths and cuspidal degrees are not clamped: the
derivative walk and its check cost time set by the order, and no other
command depends on a length beyond the degree n it adds up to.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from whittaker.cli import DEGREE_ENV, main
from whittaker.symfunc import ALGORITHMS

# --- argument values ------------------------------------------------------------

def _rarely():
    # True about once in 32 draws: an invocation makes many draws, and most
    # invocations should get past the parsers to the computations.  The top
    # value marks it, because Hypothesis draws the least one far more often.
    return st.integers(0, 31).map(lambda i: i == 31)


def _mostly(valid, junk):
    return _rarely().flatmap(lambda rare: junk if rare else valid)


def _small_int(lo, hi):
    return st.integers(lo, hi).map(str)


_JUNK = st.sampled_from(["", " ", "x", "1.5", "-", ",", "1,,2", "é", "١", "0x10", "nan",
                         "1e3", "--degree", "9" * 4301, "0", "-1"])
_ATOM = _mostly(
    st.one_of(st.integers(-9, 9).filter(bool).map(str),
              st.fractions(-9, 9, max_denominator=9).filter(bool).map(str),
              st.sampled_from(["a", "b", "x1", "w1", "bp1"])),
    st.sampled_from(["0", "1/0", "0/5", "+3", " 2 ", "3/-4", "u", "t", "q", "A", "é", "a b",
                     "_a", "9" * 4299, "1" + "0" * 4299, "9" * 4301]))
# the sizes of these lists and numbers are clamped: see the module docstring
_ATOM_LIST = _mostly(st.lists(_ATOM, min_size=1, max_size=4).map(",".join), _JUNK)
_WEIGHT = _mostly(st.lists(st.integers(-1, 4).map(str), min_size=1, max_size=4).map(",".join),
                  _JUNK)
_DEGREE = _mostly(_small_int(1, 4), _JUNK)
_SEED = _mostly(st.integers(-10 ** 30, 10 ** 30).map(str), _JUNK)


# --- representation documents ----------------------------------------------------

_JSON_JUNK = st.sampled_from([None, True, 2.5, -1, "", "x", [], {}, [[1]], {"a": [None]}])
_LENGTH = _mostly(st.integers(1, 3), st.sampled_from(
    [0, -1, 10 ** 8, "2", "1" * 30, "٢", "2.0", 2.7, True, None, [1]]))


@st.composite
def _segment(draw):
    if draw(_rarely()):
        return draw(_JSON_JUNK)
    kind = draw(_mostly(st.sampled_from(["unramified", "ramified"]),
                        st.sampled_from(["other", None, []])))
    entry = {"kind": kind}
    if kind == "unramified" or draw(_rarely()):
        entry["satake"] = draw(_mostly(_ATOM, _JSON_JUNK | st.integers(-5, 5)))
    if kind == "ramified" or draw(_rarely()):
        entry["id"] = draw(_mostly(st.sampled_from(["rho1", "rho2"]),
                                   st.sampled_from(["Rho", "rho\n", "", "r-1"]) | _JSON_JUNK))
        entry["degree"] = draw(_mostly(st.integers(1, 2), st.sampled_from(
            [0, -1, 10 ** 8, "2", True]) | _JSON_JUNK))
    entry["length"] = draw(_LENGTH)
    if draw(_rarely()):
        entry.pop(draw(st.sampled_from(["kind", "satake", "id", "degree", "length"])), None)
    return entry


@st.composite
def _document(draw):
    doc = {"q": draw(_mostly(st.sampled_from(["symbolic", "3", "5/2", "1000001/1000000", 3]),
                             st.sampled_from(["1", "0", "-3", "1/0", "abc", "1e5000", "2.5"])
                             | _JSON_JUNK)),
           "segments": draw(_mostly(st.lists(_segment(), min_size=1, max_size=3), _JSON_JUNK))}
    if draw(_rarely()):
        del doc[draw(st.sampled_from(["q", "segments"]))]
    if draw(_rarely()):
        doc["n"] = draw(st.integers(0, 8) | _JSON_JUNK)
    return json.dumps(doc)


_REP_TEXT = _mostly(_document(), st.sampled_from([
    "", "{not json", "null", "[]", '"x"', "NaN", '{"q": Infinity}', "[" * 5000,
    '{"q": "3", "segments": [{"kind": "unramified", "satake": "2", "length": 1'
    + "0" * 5000 + "}]}"]))


# --- argv --------------------------------------------------------------------------

# --rep takes a path (see _invocation); a switch takes no value
_FLAGS = {
    "schur": {"--partition": _WEIGHT, "--vars": _mostly(_small_int(0, 4), _JUNK),
              "--algorithm": _mostly(st.sampled_from(ALGORITHMS), st.just("bogus"))},
    "spherical": {"--satake": _ATOM_LIST, "--weight": _WEIGHT},
    "essential": {"--rep": "path", "--weight": _WEIGHT},
    "lfactor": {"--rep": "path", "--satake-prime": _ATOM_LIST, "--degree": _DEGREE},
    "verify": {"--rep": "path", "--satake-prime": _ATOM_LIST, "--degree": _DEGREE,
               "--seed": _SEED, "--drop-integrality-indicator": "switch"},
    "cauchy": {"--n": _mostly(_small_int(1, 3), _JUNK),
               "--m": _mostly(_small_int(1, 3), _JUNK), "--degree": _DEGREE,
               "--seed": _SEED},
    "derivatives": {"--rep": "path", "--order": _mostly(_small_int(0, 6), _JUNK)},
}

# what --rep names, resolved in the test's own directory
_REP_FILE, _MISSING, _DIRECTORY = "<rep>", "<missing>", "<directory>"


@st.composite
def _invocation(draw):
    """(argv, text of the file _REP_FILE, value of WHITTAKER_DEGREE or None).

    A subcommand and its flags, each rarely left out, in drawn order; a
    stray argument is rarely appended.  --rep names a file holding a drawn
    document, a missing file or a directory.
    """
    command = draw(_mostly(st.sampled_from(sorted(_FLAGS)),
                           st.sampled_from(["", "bogus", "-h"])))
    argv = [command]
    flags = _FLAGS.get(command, {})
    for flag in draw(st.permutations(sorted(flags))):
        if draw(_rarely()):
            continue
        value = flags[flag]
        if value == "switch":
            argv.append(flag)
        elif value == "path":
            argv += [flag, draw(_mostly(st.just(_REP_FILE),
                                        st.sampled_from([_MISSING, _DIRECTORY])))]
        else:
            argv += [flag, draw(value)]
    if draw(_rarely()):
        argv.append(draw(st.sampled_from(["--unknown", "extra", "--degree"])))
    environment = draw(_DEGREE) if draw(_rarely()) else None
    return argv, draw(_REP_TEXT), environment


def _run(argv, environment):
    saved = os.environ.pop(DEGREE_ENV, None)
    if environment is not None:
        os.environ[DEGREE_ENV] = environment
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop(DEGREE_ENV, None)
        if saved is not None:
            os.environ[DEGREE_ENV] = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_invocation())
@example((["derivatives", "--rep", _REP_FILE, "--order", "1"], "[" * 5000, None))
# the empty alphabet, for every algorithm
@example((["schur", "--partition", "0", "--vars", "0", "--algorithm", "branching"], "", None))
@example((["schur", "--partition", "0", "--vars", "0", "--algorithm", "jacobi-trudi"], "", None))
@example((["schur", "--partition", "0", "--vars", "0", "--algorithm", "bialternant"], "", None))
def test_every_exit_keeps_the_contract(invocation):
    argv, text, environment = invocation
    with tempfile.TemporaryDirectory() as workdir:
        paths = {_REP_FILE: str(Path(workdir, "rep.json")),
                 _MISSING: str(Path(workdir, "missing.json")), _DIRECTORY: workdir}
        Path(paths[_REP_FILE]).write_text(text, encoding="utf-8")
        argv = [paths.get(arg, arg) for arg in argv]
        code, out, err = _run(argv, environment)
        assert code in (0, 1, 2), (argv, code, err[-2000:])
        if code == 1:
            assert any(line.startswith("result: FAIL") for line in out.splitlines()), (argv, out)
        if code == 2:
            assert any(line.startswith("error: ") or ": error: " in line
                       for line in err.splitlines()), (argv, err)
        assert _run(argv, environment) == (code, out, err), argv

"""Command-line surface.

Subcommands: schur, spherical, essential, lfactor, verify, cauchy,
derivatives.  Results go to stdout, diagnostics to stderr.  Exit codes:
0 success / verified, 1 verification mismatch, 2 invalid input or
configuration, or a request too large for the memory available, 3 internal
invariant violation or any other internal error, so a crash never reads as
a mismatch.  Output is byte-stable for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from .errors import ConfigError, InvariantViolation, WhittakerError
from .repdata import (GenericRep, UnramifiedLanglandsRep, compute_piu, derivative_subquotients,
                      parse_rep, parse_scalar_atom)
from .ringcore import Scalar, euler_expand
from .rseng import VerificationReport, cauchy_check, l_factor, verify_essential
from .symfunc import ALGORITHMS, Partition, _agrees_at, schur
from .whitfun import essential_value, spherical_value

DEFAULT_DEGREE = 8
DEGREE_ENV = "WHITTAKER_DEGREE"


def _parse_int(text: str, what: str) -> int:
    """The int that text names: an optional sign and ASCII digits, whitespace around.

    The one reader of command-line integers: like a numerator in
    parse_scalar_atom, and unlike int(), it takes no other digits and no "_".
    """
    digits = text.strip()
    unsigned = digits[1:] if digits[:1] in ("+", "-") else digits
    if unsigned.isascii() and unsigned.isdigit():
        try:
            return int(digits)
        except ValueError:  # more digits than Python's int-string limit
            raise ConfigError(f"{what} has too many digits ({len(unsigned)})") from None
    raise ConfigError(f"{what} must be an integer, got {text!r}")


def _parse_int_list(text: str, what: str) -> Tuple[int, ...]:
    return tuple(_parse_int(x, f"{what} entry") for x in text.split(","))


def _parse_atom_list(text: str) -> Tuple[Scalar, ...]:
    return tuple(parse_scalar_atom(x) for x in text.split(","))


def _load_rep(path: str) -> GenericRep:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested past the interpreter's depth
        raise ConfigError(f"{path} nests JSON arrays or objects too deeply to read") from None
    return parse_rep(document)


def _resolve_degree(flag_value: Optional[str]) -> int:
    if flag_value is not None:
        degree = _parse_int(flag_value, "--degree")
    else:
        raw = os.environ.get(DEGREE_ENV)
        if raw is None:
            return DEFAULT_DEGREE
        degree = _parse_int(raw, DEGREE_ENV)
    if degree < 1:
        raise ConfigError("degree must be a positive integer")
    return degree


# the numerators of a spot-check point's coordinates
_NUMERATORS = tuple(x for x in range(-9, 10) if x)


def _spot_check(report: VerificationReport, seed: int, params: Sequence[Scalar],
                satake_prime: Sequence[Scalar]) -> Optional[str]:
    """Recompute a passing symbolic report at a seeded rational point.

    The report came from the unramified parameters params of a
    representation and the Satake values of pi', atoms each: a rational
    or a single indeterminate.  A report whose lhs holds no indeterminate
    is not checked.  Otherwise every indeterminate of the atoms is bound
    to a seeded random nonzero rational; u needs no value, as it is
    reserved in every input and cancels from the lattice sum.
    symfunc._agrees_at then runs the reports' own Cauchy decision on the
    bound values, in ints, and evaluates the symbolic lhs at the point,
    from its orbit form when it has one, so no coefficient of it is read:
    the decision must hold there, and the lhs must take the values of its
    sums.  Those ints share no Scalar products with the symbolic series;
    so a fault that corrupts both symbolic series alike shows up as a
    disagreement, an internal bug.  Every coefficient is a Laurent
    polynomial, which has poles only where a variable is 0, so one sample
    of nonzero values always evaluates.
    """
    lhs = report.lhs_series
    # an lhs in orbit form holds every atom from t^1 on
    symbolic = lhs.order > 0 if lhs.form is not None else any(c.names for c in lhs.coeffs)
    if not report.passed or not symbolic:
        return None
    variables = {v for atom in (*params, *satake_prime) for v in atom.variables()}
    rng = random.Random(seed)
    bindings = {}
    for v in sorted(variables):
        num = rng.choice(_NUMERATORS)
        bindings[v] = Fraction(num, rng.randint(1, 9))
    if not _agrees_at(lhs, params, satake_prime, bindings):
        raise InvariantViolation("numeric recomputation disagrees with the symbolic series")
    return f"numeric spot-check (seed {seed}): pass"


def _print_report(report: VerificationReport, seed: int, params: Sequence[Scalar],
                  satake_prime: Sequence[Scalar]) -> int:
    report.write_summary(sys.stdout.write)
    note = _spot_check(report, seed, params, satake_prime)
    if note:
        print(note)
    return 0 if report.passed else 1


def _cmd_schur(args: argparse.Namespace) -> int:
    partition = Partition(_parse_int_list(args.partition, "--partition"))
    nvars = _parse_int(args.vars, "--vars")
    if nvars < 0:
        raise ConfigError("--vars must be nonnegative")
    variables = [Scalar.variable(f"x{i + 1}") for i in range(nvars)]
    if partition.length > nvars:
        print("note: partition is longer than the variable count; "
              "the Schur polynomial vanishes", file=sys.stderr)
    print(schur(partition, variables, args.algorithm))
    return 0


def _cmd_spherical(args: argparse.Namespace) -> int:
    # a zero Satake value is refused here as in every other command
    satake = UnramifiedLanglandsRep(_parse_atom_list(args.satake)).satake
    print(spherical_value(satake, _parse_int_list(args.weight, "--weight")))
    return 0


def _cmd_essential(args: argparse.Namespace) -> int:
    rep = _load_rep(args.rep)
    print(essential_value(rep, _parse_int_list(args.weight, "--weight")))
    return 0


def _cmd_lfactor(args: argparse.Namespace) -> int:
    degree = _resolve_degree(args.degree)
    rep = _load_rep(args.rep)
    factor = l_factor(rep, UnramifiedLanglandsRep(_parse_atom_list(args.satake_prime)))
    roots = ", ".join(factor.root_texts())
    print(f"roots: [{roots}]")
    print(f"series: {euler_expand(factor, degree)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    degree, seed = _resolve_degree(args.degree), _parse_int(args.seed, "--seed")
    rep = _load_rep(args.rep)
    pi_prime = UnramifiedLanglandsRep(_parse_atom_list(args.satake_prime))
    report = verify_essential(rep, pi_prime, degree, drop_integrality=args.drop_integrality)
    return _print_report(report, seed, compute_piu(rep)[1], pi_prime.satake)


def _cmd_cauchy(args: argparse.Namespace) -> int:
    degree, seed = _resolve_degree(args.degree), _parse_int(args.seed, "--seed")
    n, m = _parse_int(args.n, "--n"), _parse_int(args.m, "--m")
    if n < 1 or m < 1:
        raise ConfigError("--n and --m must be positive")
    xs = [Scalar.variable(f"x{i + 1}") for i in range(n)]
    ys = [Scalar.variable(f"y{j + 1}") for j in range(m)]
    report = cauchy_check(n, m, xs, ys, degree)
    return _print_report(report, seed, xs, ys)


def _cmd_derivatives(args: argparse.Namespace) -> int:
    order = _parse_int(args.order, "--order")
    products = derivative_subquotients(_load_rep(args.rep), order)
    print(f"order {order}: {len(products)} subquotients")
    for product in products:
        print("- " + (" x ".join(str(s) for s in product) if product else "1"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whittaker",
        description="Exact spherical/essential Whittaker values and "
                    "Rankin-Selberg series verification for GL(n).")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse reads a token that starts with "-" and is not a plain number
    # as an option name, so a list whose first entry is negative needs "="
    weight_help = ("comma-separated torus exponents; write a list that starts with a "
                   "negative one as --weight=-1,0")
    satake_prime_help = ("comma-separated Satake values of pi'; write a list that starts "
                         "with a negative one as --satake-prime=-1/2,3")

    def add_common(p, degree=False, seed=False):
        if degree:
            p.add_argument("--degree", default=None,
                           help=f"truncation order (default {DEFAULT_DEGREE}; "
                                f"env {DEGREE_ENV} overrides)")
        if seed:
            p.add_argument("--seed", default="0",
                           help="seed for randomized numeric spot-checks")

    p = sub.add_parser("schur", help="print a Schur polynomial in x1..xk")
    p.add_argument("--partition", required=True, help="comma-separated parts, e.g. 2,1")
    p.add_argument("--vars", required=True, help="number of variables")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="branching")

    p = sub.add_parser("spherical", help="spherical Whittaker value on the torus")
    p.add_argument("--satake", required=True,
                   help="comma-separated Satake values; write a list that starts "
                        "with a negative one as --satake=-2,3")
    p.add_argument("--weight", required=True, help=weight_help)

    p = sub.add_parser("essential", help="essential Whittaker value on the torus")
    p.add_argument("--rep", required=True, help="path to a representation JSON file")
    p.add_argument("--weight", required=True, help=weight_help)

    p = sub.add_parser("lfactor", help="Euler roots and expansion of L(pi, pi', s)")
    p.add_argument("--rep", required=True)
    p.add_argument("--satake-prime", required=True, dest="satake_prime", help=satake_prime_help)
    add_common(p, degree=True)

    p = sub.add_parser("verify", help="check I(W_ess, W'_0, s) = L(pi, pi', s) exactly")
    p.add_argument("--rep", required=True)
    p.add_argument("--satake-prime", required=True, dest="satake_prime", help=satake_prime_help)
    p.add_argument("--drop-integrality-indicator", action="store_true",
                   dest="drop_integrality",
                   help="diagnostic hook: remove the lattice indicator from the "
                        "essential function; the comparison then fails whenever "
                        "the indicator carries weight (m equal to the unramified "
                        "rank r >= 2)")
    add_common(p, degree=True, seed=True)

    p = sub.add_parser("cauchy", help="unramified pairing identity with symbolic parameters")
    p.add_argument("--n", required=True)
    p.add_argument("--m", required=True)
    add_common(p, degree=True, seed=True)

    p = sub.add_parser("derivatives", help="derivative subquotients of a representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--order", required=True)

    return parser


_HANDLERS = {
    "schur": _cmd_schur,
    "spherical": _cmd_spherical,
    "essential": _cmd_essential,
    "lfactor": _cmd_lfactor,
    "verify": _cmd_verify,
    "cauchy": _cmd_cauchy,
    "derivatives": _cmd_derivatives,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so every call can share one
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except WhittakerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # drop the frames and what they hold; import nothing, it could fail too
        exc.__traceback__ = None
        print(f"error: {args.command}: the request is too large for memory", file=sys.stderr)
        return 2
    except Exception as exc:
        # last resort: exit 1 would read as "the identity failed"
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Representation-theoretic data model.

Generic representations are products of pairwise unlinked segments.  A
segment either carries an unramified character top (with an exact value,
rational or a named indeterminate) or an opaque ramified cuspidal tag.
Ramified cuspidal data stays opaque on purpose: every L-factor in scope
takes the factor 1 from those segments, so their Whittaker data is never
needed.  A representation computes its unramified part once, when it is
built, and keeps it; the module holds no state across calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (
    BadDegree,
    BadOrder,
    ConfigError,
    InvalidCharacter,
    InvariantViolation,
    NotGeneric,
)
from .ringcore import Scalar

# matched with fullmatch: $ would also match before a trailing newline
_IDENT_RE = re.compile(r"[a-z][a-z0-9]*")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_RESERVED = {"u", "t", "q"}

def parse_scalar_atom(text: str) -> Scalar:
    """Parse a rational string 'p/q' or a bare indeterminate identifier."""
    text = text.strip()
    if _RATIONAL_RE.fullmatch(text):
        numerator, _, denominator = text.partition("/")
        try:
            if denominator and not int(denominator):
                raise ConfigError(f"cannot parse {text!r}: zero denominator")
            value = Fraction(text)
        except ValueError as exc:  # more digits than Python's int-string limit
            raise ConfigError(f"cannot parse a rational of {len(text)} characters: {exc}") from None
        return Scalar.of(value)
    if _IDENT_RE.fullmatch(text):
        if text in _RESERVED:
            raise ConfigError(f"'{text}' is reserved and cannot name an indeterminate")
        return Scalar.variable(text)
    raise ConfigError(f"cannot parse {text!r} as a rational or indeterminate")


@dataclass(frozen=True)
class UnramifiedCharacter:
    """Unramified character of GL(1), stored through its value at the uniformizer."""

    value: Scalar

    def __post_init__(self):
        v = Scalar.of(self.value)
        object.__setattr__(self, "value", v)
        if v.is_zero():
            raise InvalidCharacter("character value at the uniformizer must be nonzero")
        if not (v.is_rational() or v.is_variable()):
            raise InvalidCharacter(
                f"character value must be a rational or a single indeterminate, got {v}")

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Segment:
    """Zelevinsky segment: a ladder of twists of a cuspidal, known by its top."""

    kind: str                              # "unramified" | "ramified"
    top: Optional[UnramifiedCharacter]
    cuspidal_id: Optional[str]
    cuspidal_degree: int
    length: int

    def __post_init__(self):
        if self.kind not in ("unramified", "ramified"):
            raise ConfigError(f"unknown segment kind {self.kind!r}")
        if self.length < 1:
            raise ConfigError("segment length must be at least 1")
        if self.cuspidal_degree < 1:
            raise ConfigError("cuspidal degree must be at least 1")
        if self.kind == "unramified" and (self.top is None or self.cuspidal_degree != 1):
            raise ConfigError("unramified segments need a top character and cuspidal degree 1")
        if self.kind == "ramified" and not self.cuspidal_id:
            raise ConfigError("ramified segments need a cuspidal id")

    @staticmethod
    def unramified(top_value, length: int) -> "Segment":
        top = top_value if isinstance(top_value, UnramifiedCharacter) \
            else UnramifiedCharacter(top_value)
        return Segment("unramified", top, None, 1, length)

    @staticmethod
    def ramified(cuspidal_id: str, cuspidal_degree: int, length: int) -> "Segment":
        return Segment("ramified", None, cuspidal_id, cuspidal_degree, length)

    @property
    def degree(self) -> int:
        return self.cuspidal_degree * self.length

    def __str__(self):
        if self.kind == "unramified":
            return f"seg({self.top}; {self.length})"
        return f"cusp({self.cuspidal_id}; {self.cuspidal_degree}; {self.length})"


@dataclass(frozen=True)
class Linkage:
    linked: bool
    reason: str


def _q_power_exponent(ratio: Fraction, q: Fraction) -> Optional[int]:
    # with q = a/b in lowest terms, q^e = a^e/b^e is in lowest terms too, so
    # the only candidate e is the number of times a divides the numerator
    # of max(ratio, 1/ratio); one comparison confirms it
    if ratio == 1:
        return 0
    if ratio <= 0 or q <= 1:
        return None
    big = max(ratio, 1 / ratio)
    numerator, e = big.numerator, 0
    while numerator % q.numerator == 0:  # q > 1 makes q.numerator >= 2
        numerator //= q.numerator
        e += 1
    if q ** e != big:
        return None
    return e if ratio > 1 else -e


def _intervals_linked(lo1: int, hi1: int, lo2: int, hi2: int) -> bool:
    nested = (lo1 <= lo2 and hi2 <= hi1) or (lo2 <= lo1 and hi1 <= hi2)
    union_is_interval = lo2 <= hi1 + 1 and lo1 <= hi2 + 1
    return union_is_interval and not nested


def validate_unlinked(a: Segment, b: Segment, q_value: Optional[Fraction] = None) -> Linkage:
    """Decide whether two segments are linked in Zelevinsky's sense.

    Two segments are linked exactly when they sit on a common twist line
    (same ramified cuspidal id, or unramified tops whose ratio is an integral
    power of q) and, as integer exponent intervals on that line, neither
    contains the other while their union is a longer interval.  Symbolic
    tops, or a symbolic q, leave the q-power membership undecidable and the
    segments count as unlinked in generic position.
    """
    if a.kind != b.kind:
        return Linkage(False, "unlinked: different cuspidal support")
    if a.kind == "ramified":
        if a.cuspidal_id != b.cuspidal_id:
            return Linkage(False, "unlinked: distinct cuspidal lines")
        offset = 0
    else:
        va, vb = a.top.value, b.top.value
        if not (va.is_rational() and vb.is_rational()):
            return Linkage(False, "unlinked: generic position")
        ratio = vb.as_fraction() / va.as_fraction()
        if ratio == 1:
            exponent = 0
        elif q_value is None:
            return Linkage(False, "unlinked: generic position")
        else:
            exponent = _q_power_exponent(ratio, Fraction(q_value))
            if exponent is None:
                return Linkage(False, "unlinked: tops not on a common twist line")
        # vb = q^(-e) * va puts b's top at position e on a's twist line
        offset = -exponent
    lo_a, hi_a = -(a.length - 1), 0
    lo_b, hi_b = offset - (b.length - 1), offset
    if _intervals_linked(lo_a, hi_a, lo_b, hi_b):
        return Linkage(True, "linked: intervals merge into a longer one")
    return Linkage(False, "unlinked: nested or disjoint intervals")


@dataclass(frozen=True)
class GenericRep:
    """Product of pairwise unlinked segments; validated at construction.

    Construction also stores the unramified part (see compute_piu) in _piu,
    which takes no part in init, repr, equality or hashing.
    """

    segments: Tuple[Segment, ...]
    q: Optional[Fraction] = None
    _piu: Tuple[int, Tuple[Scalar, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if self.q is not None:
            object.__setattr__(self, "q", Fraction(self.q))
            if self.q <= 1:
                raise ConfigError("numeric q must exceed 1")
        if not segments:
            raise ConfigError("a generic representation needs at least one segment")
        for i in range(len(segments)):
            for j in range(i + 1, len(segments)):
                if validate_unlinked(segments[i], segments[j], self.q).linked:
                    raise NotGeneric(i, j)
        tops = tuple(s.top.value for s in segments if s.kind == "unramified")
        object.__setattr__(self, "_piu", (len(tops), langlands_order(tops)))

    @property
    def n(self) -> int:
        return sum(s.degree for s in self.segments)

    def __str__(self):
        qs = "symbolic" if self.q is None else str(self.q)
        return " x ".join(str(s) for s in self.segments) + f"  (q={qs})"


@dataclass(frozen=True)
class UnramifiedLanglandsRep:
    """Unramified principal series datum: the multiset of Satake values."""

    satake: Tuple[Scalar, ...]

    def __post_init__(self):
        satake = tuple(Scalar.of(v) for v in self.satake)
        object.__setattr__(self, "satake", satake)
        if not satake:
            raise InvalidCharacter("need at least one Satake value")
        for v in satake:
            if v.is_zero():
                raise InvalidCharacter("Satake values must be nonzero")

    @property
    def rank(self) -> int:
        return len(self.satake)


def langlands_order(values: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Order character values by weakly decreasing real part.

    The real part of an unramified character with value v at the uniformizer
    satisfies |v| = q^(-Re), so numeric values sort by ascending archimedean
    absolute value.  Symbolic values keep their input order (ordering only
    affects labels: every downstream use is symmetric), as do ties.
    """
    values = tuple(Scalar.of(v) for v in values)
    if all(v.is_rational() for v in values):
        return tuple(sorted(values, key=lambda v: abs(v.as_fraction())))
    return values


def compute_piu(rep: GenericRep):
    """Rank r and ordered parameters of the unramified part of the representation.

    r counts the segments whose top is an unramified character of GL(1); the
    parameters are those top values in Langlands order.  r = 0 yields the
    empty parameter list.  The value is computed once, when rep is built.
    """
    return rep._piu


def _derived_segment(seg: Segment, steps: int) -> Optional[Segment]:
    # derivative of order steps*cuspidal_degree keeps the top (length - steps)
    # elements; fully derived segments drop out of the product
    if steps == seg.length:
        return None
    return replace(seg, length=seg.length - steps)


def _subquotients_raw(rep: GenericRep, order: int):
    # reach[i]: the orders up to order that segments i, i+1, ... can add up
    # to; the walk enters a branch only if the order it still needs is
    # reachable, so neither depends on a segment's length beyond order
    reach = [{0}]
    for seg in reversed(rep.segments):
        d = seg.cuspidal_degree
        reach.append({o + steps * d for o in reach[-1]
                      for steps in range(min(seg.length, (order - o) // d) + 1)})
    reach.reverse()
    out = []

    def walk(idx, remaining, acc):
        if idx == len(rep.segments):
            out.append(tuple(acc))
            return
        seg = rep.segments[idx]
        for steps in range(min(seg.length, remaining // seg.cuspidal_degree) + 1):
            rest = remaining - steps * seg.cuspidal_degree
            if rest in reach[idx + 1]:
                derived = _derived_segment(seg, steps)
                walk(idx + 1, rest, acc + ([derived] if derived else []))

    walk(0, order, [])
    return out


def _check_derivative_consistency(rep: GenericRep) -> None:
    # a product of unramified characters keeps each segment as one such
    # character or derives it away, so the first order carrying one sums each
    # segment's cheapest way there: full derivation of a ramified segment,
    # and all steps but the last of an unramified one.  It must be n - r
    # with pi_u as the kept tops.  This pins the truncation direction of
    # _derived_segment.
    r, params = compute_piu(rep)
    order, tops = 0, []
    for seg in rep.segments:
        steps = seg.length - (seg.kind == "unramified")
        derived = _derived_segment(seg, steps)
        order += steps * seg.cuspidal_degree
        if derived is not None:
            tops.append(derived.top.value)
    if order != rep.n - r:
        raise InvariantViolation(
            f"first spherical derivative order is {order}, expected {rep.n - r}")
    if sorted(tops, key=str) != sorted(params, key=str):
        raise InvariantViolation("spherical subquotient does not match pi_u")


def derivative_subquotients(rep: GenericRep, order: int):
    """Subquotients of the order-j Bernstein-Zelevinsky derivative.

    Each subquotient is the formal product (tuple) of the surviving
    truncated segments for one admissible derivative-order tuple summing to
    j.  A segment of cuspidal degree m and length k only derives at orders
    0, m, ..., km, each step removing the low-twist end.
    """
    if not 0 <= order <= rep.n:
        raise BadOrder(f"derivative order must lie in [0, {rep.n}], got {order}")
    _check_derivative_consistency(rep)
    return _subquotients_raw(rep, order)


def _config_int(document: dict, key: str) -> int:
    """document[key]: a JSON integer other than a bool, or a string of decimal digits."""
    value = document[key]
    if value.__class__ is int:  # bool is a subclass, and int(True) would read 1
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def parse_rep(config: dict) -> GenericRep:
    """Build a validated GenericRep from a configuration document.

    Expected shape: {"q": "symbolic" | "<rational>" | <integer>, "segments": [...]},
    with unramified entries {"kind": "unramified", "satake": <atom>,
    "length": k} and ramified entries {"kind": "ramified", "id": <name>,
    "degree": m, "length": k}.  An optional "n" is checked against the
    degree sum.  length, degree and n are JSON integers or digit strings.
    """
    if not isinstance(config, dict):
        raise ConfigError("representation config must be a JSON object")
    try:
        q_raw = config["q"]
        entries = config["segments"]
    except KeyError as missing:
        raise ConfigError(f"missing config key {missing}") from None
    if q_raw == "symbolic":
        q = None
    elif q_raw.__class__ is int:  # a JSON integer, not a bool
        q = Fraction(q_raw)
    elif isinstance(q_raw, str) and _RATIONAL_RE.fullmatch(q_raw.strip()):
        try:
            q = Fraction(q_raw.strip())
        except (ValueError, ZeroDivisionError):  # more digits than int() converts, or p/0
            raise ConfigError(f"cannot parse q value {q_raw!r}") from None
    else:
        raise ConfigError(f"cannot parse q value {q_raw!r}")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config needs a nonempty list of segments")
    segments = []
    for entry in entries:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"malformed segment entry {entry!r}")
        kind = entry["kind"]
        try:
            if kind == "unramified":
                top = parse_scalar_atom(str(entry["satake"]))
                if top.is_zero():
                    raise InvalidCharacter("zero Satake value")
                segments.append(Segment.unramified(top, _config_int(entry, "length")))
            elif kind == "ramified":
                cid = str(entry["id"])
                if not _IDENT_RE.fullmatch(cid):
                    raise ConfigError(f"bad cuspidal id {cid!r}")
                segments.append(Segment.ramified(cid, _config_int(entry, "degree"),
                                                 _config_int(entry, "length")))
            else:
                raise ConfigError(f"unknown segment kind {kind!r}")
        except KeyError as missing:
            raise ConfigError(f"segment entry missing key {missing}") from None
    rep = GenericRep(tuple(segments), q)
    if "n" in config and _config_int(config, "n") != rep.n:
        raise BadDegree(f"declared degree {config['n']} != segment degree sum {rep.n}")
    return rep

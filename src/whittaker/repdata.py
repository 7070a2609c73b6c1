"""Representation-theoretic data model.

Generic representations are products of pairwise unlinked segments.  A
segment either carries an unramified character top (with an exact value,
rational or a named indeterminate) or an opaque ramified cuspidal tag.
Ramified cuspidal data stays opaque on purpose: every L-factor in scope
takes the factor 1 from those segments, so their Whittaker data is never
needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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

_IDENT_RE = re.compile(r"^[a-z][a-z0-9]*$")
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_RESERVED = {"u", "t", "q"}


def parse_scalar_atom(text: str) -> Scalar:
    """Parse a rational string 'p/q' or a bare indeterminate identifier."""
    text = text.strip()
    if _RATIONAL_RE.match(text):
        return Scalar.of(Fraction(text))
    if _IDENT_RE.match(text):
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
    if ratio == 1:
        return 0
    if ratio <= 0 or q <= 1:
        return None
    d = 0
    r = ratio
    while r > 1:
        r /= q
        d += 1
    if r == 1:
        return d
    d = 0
    r = ratio
    while r < 1:
        r *= q
        d += 1
    return -d if r == 1 else None


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
    """Product of pairwise unlinked segments; validated at construction."""

    segments: Tuple[Segment, ...]
    q: Optional[Fraction] = None

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


@lru_cache(maxsize=None)
def compute_piu(rep: GenericRep):
    """Rank r and ordered parameters of the unramified part of the representation.

    r counts the segments whose top is an unramified character of GL(1); the
    parameters are those top values in Langlands order.  r = 0 yields the
    empty parameter list.
    """
    tops = tuple(s.top.value for s in rep.segments if s.kind == "unramified")
    return len(tops), langlands_order(tops)


def _derived_segment(seg: Segment, steps: int) -> Optional[Segment]:
    # derivative of order steps*cuspidal_degree keeps the top (length - steps)
    # elements; fully derived segments drop out of the product
    if steps == seg.length:
        return None
    if seg.kind == "unramified":
        return Segment.unramified(seg.top, seg.length - steps)
    return Segment.ramified(seg.cuspidal_id, seg.cuspidal_degree, seg.length - steps)


def _subquotients_raw(rep: GenericRep, order: int):
    out = []

    def walk(idx, remaining, acc):
        if idx == len(rep.segments):
            if remaining == 0:
                out.append(tuple(acc))
            return
        seg = rep.segments[idx]
        for steps in range(seg.length + 1):
            cost = steps * seg.cuspidal_degree
            if cost > remaining:
                break
            derived = _derived_segment(seg, steps)
            walk(idx + 1, remaining - cost, acc + ([derived] if derived else []))

    walk(0, order, [])
    return out


def _is_unramified_character_product(product) -> bool:
    return all(s.kind == "unramified" and s.length == 1 for s in product)


@lru_cache(maxsize=None)
def _check_derivative_consistency(rep: GenericRep) -> None:
    # the first derivative order carrying a product of unramified characters
    # must be n - r, and the product there must be pi_u; this pins the
    # truncation direction of _derived_segment
    r, params = compute_piu(rep)
    expected = rep.n - r
    for order in range(rep.n + 1):
        hits = [p for p in _subquotients_raw(rep, order)
                if _is_unramified_character_product(p)]
        if not hits:
            continue
        if order != expected:
            raise InvariantViolation(
                f"first spherical derivative order is {order}, expected {expected}")
        if len(hits) != 1:
            raise InvariantViolation("the spherical subquotient is not unique")
        values = sorted((s.top.value for s in hits[0]), key=str)
        if values != sorted(params, key=str):
            raise InvariantViolation("spherical subquotient does not match pi_u")
        return
    raise InvariantViolation("no spherical derivative subquotient found")


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


def parse_rep(config: dict) -> GenericRep:
    """Build a validated GenericRep from a configuration document.

    Expected shape: {"q": "symbolic" | "<rational>", "segments": [...]},
    with unramified entries {"kind": "unramified", "satake": <atom>,
    "length": k} and ramified entries {"kind": "ramified", "id": <name>,
    "degree": m, "length": k}.  An optional "n" is checked against the
    degree sum.
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
    else:
        try:
            q = Fraction(str(q_raw))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse q value {q_raw!r}") from None
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
                segments.append(Segment.unramified(top, int(entry["length"])))
            elif kind == "ramified":
                cid = str(entry["id"])
                if not _IDENT_RE.match(cid):
                    raise ConfigError(f"bad cuspidal id {cid!r}")
                segments.append(Segment.ramified(cid, int(entry["degree"]), int(entry["length"])))
            else:
                raise ConfigError(f"unknown segment kind {kind!r}")
        except KeyError as missing:
            raise ConfigError(f"segment entry missing key {missing}") from None
    rep = GenericRep(tuple(segments), q)
    if "n" in config and int(config["n"]) != rep.n:
        raise BadDegree(f"declared degree {config['n']} != segment degree sum {rep.n}")
    return rep

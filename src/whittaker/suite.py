"""Deterministic generators for verification-suite representations.

Tops are drawn from a pool of primes distinct from q (optionally negated or
inverted), so no ratio of two tops can be an integral power of q and every
generated segment list is automatically unlinked.  Used by the acceptance
tests and by scripts/run_verification_suite.py.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from .repdata import GenericRep, Segment, UnramifiedLanglandsRep, compute_piu
from .ringcore import Scalar

_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_Q_VALUES = (Fraction(2), Fraction(3), Fraction(5))
_SATAKE_POOL = (
    Fraction(2), Fraction(3), Fraction(5), Fraction(7),
    Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(5, 7),
    Fraction(-2), Fraction(-1, 5), Fraction(7, 3), Fraction(-11, 2),
)


def _composition(total: int, parts: int, rng: random.Random) -> List[int]:
    # positive integers summing to total
    if parts == 0:
        return []
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _ramified_pieces(total: int, rng: random.Random, tag_start: int) -> List[Segment]:
    pieces = []
    tag = tag_start
    remaining = total
    while remaining > 0:
        d = rng.randint(1, remaining) if remaining > 1 else 1
        shapes = [(d, 1)]           # cuspidal of degree d, length 1
        shapes.append((1, d))       # ramified character segment of length d
        if d % 2 == 0 and d >= 4:
            shapes.append((2, d // 2))
        cusp_deg, length = rng.choice(shapes)
        pieces.append(Segment.ramified(f"rho{tag}", cusp_deg, length))
        tag += 1
        remaining -= d
    return pieces


def make_rep(n: int, r: int, q: Fraction, rng: random.Random) -> GenericRep:
    """One generic representation of GL(n) whose unramified part has rank r."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    primes = rng.sample([p for p in _PRIME_POOL if p != q], k=max(r, 1))
    segments: List[Segment] = []
    if r > 0:
        unram_total = n if r == n else rng.randint(r, n)
        lengths = _composition(unram_total, r, rng)
        if r == n:
            lengths = [1] * n
        for i in range(r):
            p = primes[i]
            value = Fraction(1, p) if rng.random() < 0.3 else Fraction(p)
            if rng.random() < 0.25:
                value = -value
            segments.append(Segment.unramified(Scalar.of(value), lengths[i]))
        leftover = n - sum(lengths)
    else:
        leftover = n
    segments.extend(_ramified_pieces(leftover, rng, tag_start=1))
    rng.shuffle(segments)
    return GenericRep(tuple(segments), q)


def make_pi_prime(rank: int, rng: random.Random) -> UnramifiedLanglandsRep:
    values = [Scalar.of(rng.choice(_SATAKE_POOL)) for _ in range(rank)]
    return UnramifiedLanglandsRep(tuple(values))


def generate_suite(min_count: int = 50, seed: int = 20260810) -> List[GenericRep]:
    """At least min_count generic reps with n <= 5 covering every (n, r) pair.

    Deterministic for a fixed seed; q cycles through 2, 3, 5.
    """
    rng = random.Random(seed)
    reps: List[GenericRep] = []
    qi = 0
    base_pairs = [(n, r) for n in range(2, 6) for r in range(n + 1)]
    while len(reps) < min_count:
        for n, r in base_pairs:
            q = _Q_VALUES[qi % len(_Q_VALUES)]
            qi += 1
            reps.append(make_rep(n, r, q, rng))
    return reps


def rep_coverage(reps) -> set:
    """Set of (n, r) pairs realized by the given representations."""
    return {(rep.n, compute_piu(rep)[0]) for rep in reps}

"""Packed monomials and the kernels of sparse term maps.

A Laurent monomial over an alphabet (v_0, ..., v_(n-1)), the variables of
one value in the order u first and then by name, is one Python int: at
field width W the exponents (e_0, ..., e_(n-1)) pack as

    d * 2^(W n) + e_0 * 2^(W (n-1)) + ... + e_(n-1),   d = e_0 + ... + e_(n-1),

with balanced (signed) fields, |e_i| < 2^(W-1).  A balanced digit expansion
is unique and adds digit by digit while no field overflows, so negative
exponents need no bias, a monomial product is one integer add, and integer
order is graded lexicographic order with v_0 most significant (graded
packing after Monagan and Pearce, "Sparse polynomial division using a
heap", J. Symb. Comp. 2011).  The unit monomial is 0 over every alphabet.
A key is linear in its exponents, the sum of e_i (2^(W n) + 2^(W (n-1-i))),
and _fields reads only the fields it uses, in time set by those, not by n.

A terms map sends packed monomials to nonzero coefficients: an int when
integral, else a Fraction with denominator > 1.  Maps over different
alphabets are repacked into the union before they meet; the functions
here take maps already over one alphabet unless they say otherwise.
_repack is the one routine that re-keys a map, to another alphabet or
width: by linearity, one sum per key over the fields it uses, each name
looked up in one map of the target alphabet's fields.

One kernel adds and multiplies terms maps, for ringcore's + and * and for
every sum of products: _aligned puts the values on their union alphabet
at a width that holds every product to be formed, _add_product adds a
product into a map in place, and _finished, the one trim, makes the
canonical value of a finished map (canonical coefficients, the alphabet
trimmed, and the exact width of a value with an exponent of
2^(_WIDTH - 1) or more).

Values are read a block of terms at a time (_blocks): their key lists,
in order, are cut into blocks of at most _BLOCK keys, small lists sharing
a block and a longer one cut into slices, and each block comes with its
keys in one list, which _columns decodes in one pass.  _evaluate, the one
evaluation kernel, takes every value of a call on one layout through
those blocks to integers over one common denominator; ringcore._texts,
the one text kernel, does the same for text.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, islice
from math import lcm
from operator import mul
from typing import Iterator, Mapping, Tuple, Union

from .errors import PoleAtPoint, UnboundVariable

Rational = Union[int, Fraction]

# a packed monomial (see above)
Mono = int

# Field width of every value whose exponents all have absolute value below
# 2^(_WIDTH - 1).  A value with a larger exponent doubles the width until
# its largest exponent fits, so the width, and with it the packed form, is
# a function of the value.
_WIDTH = 16

# the packed variable v^1 at width _WIDTH: degree 1, exponent 1
_VAR = (1 << _WIDTH) + 1


def _var_key(name: str):
    # u sorts before every parameter name; parameters sort lexicographically
    return (0,) if name == "u" else (1, name)


def _canon(c: Rational) -> Rational:
    # canonical coefficient: an int when integral, else a Fraction with
    # denominator > 1
    if c.__class__ is int:
        return c
    return c.numerator if c.denominator == 1 else c


def _width(bound: int) -> int:
    # field width of a value whose exponents have absolute value <= bound
    w = _WIDTH
    while bound >> (w - 1):
        w *= 2
    return w


@lru_cache(maxsize=256)
def _layout(n: int, w: int):
    # (bias, mask, half, shifts) for n fields of width w: adding bias makes
    # every field nonnegative without carries, so exponent i of key is
    # ((key + bias) >> shifts[i] & mask) - half
    half = 1 << (w - 1)
    shifts = tuple(w * (n - 1 - i) for i in range(n))
    return sum(half << s for s in shifts), (1 << w) - 1, half, shifts


def _pack(exps, w: int) -> Mono:
    key = sum(exps)
    for e in exps:
        key = (key << w) + e
    return key


def _fields(key: Mono, n: int, w: int) -> Iterator[tuple]:
    # (i, e) for each nonzero exponent e of key, in alphabet order: the biased
    # fields xor the bias are nonzero where e is; read and clear the highest
    bias, _, half, _ = _layout(n, w)
    t = (key + bias & (1 << w * n) - 1) ^ bias
    while t:
        s = (t.bit_length() - 1) // w * w
        yield n - 1 - s // w, (t >> s ^ half) - half
        t &= (1 << s) - 1


def _columns(keys, n: int, w: int, table_of, combine) -> list:
    """Columns of items over keys of n fields at width w.

    table_of(i, fields) maps each biased value of field i that occurs to
    an item.  Returns iterators over keys, in the order of keys, such that
    combining a key's items across the columns, in order, gives combine's
    fold of the items of its fields, in field order.

    The fields split into a high half, fields 0..n-n//2-1, and a low half,
    the other n // 2.  Each nonempty half gives one column: its items are
    folded once per distinct value of the half and looked up per key, so a
    key pays one lookup per half, however many fields it has.
    """
    bias, mask, _, shifts = _layout(n, w)
    columns = []
    for half in (range(n - n // 2), range(n - n // 2, n)):
        if not half:
            continue
        # a half's value is its biased fields, in place
        run = sum(mask << shifts[i] for i in half)
        values = [k + bias & run for k in keys]
        source = list(set(values))
        folded = None
        for i in half:
            s = shifts[i]
            column = [t >> s & mask for t in source]
            items = map(table_of(i, set(column)).__getitem__, column)
            folded = items if folded is None else map(combine, folded, items)
        columns.append(map(dict(zip(source, folded)).__getitem__, values))
    return columns


def _repack(terms: dict, src: tuple, dst: dict, w_src: int, w: int) -> dict:
    """terms re-keyed from alphabet src at width w_src to alphabet dst at width w.

    dst maps each name of its alphabet to its field, in alphabet order
    ({v: i for i, v in enumerate(names)}), so each variable of src is
    looked up once, whatever the size of dst.  Every variable of src that
    some key uses must be in dst.  terms itself is returned when no key
    changes: src is empty (every key is the unit monomial 0), or dst is
    src at the same width.  Otherwise each key is the sum, over the fields
    it uses, of its exponent times the key of that variable to the power 1
    in dst at width w.
    """
    n, m = len(src), len(dst)
    if not src or (w_src == w and n == m and src == tuple(dst)):
        return terms
    unit = {i: (1 << w * m) + (1 << w * (m - 1 - dst[v])) for i, v in enumerate(src) if v in dst}
    return {sum(e * unit[i] for i, e in _fields(k, n, w_src)): c for k, c in terms.items()}


def _add_product(out: dict, a: dict, b: dict) -> None:
    """out += a * b in place, for terms maps over one alphabet and width.

    Keys that cancel are deleted.  Coefficients are left as the arithmetic
    gives them, so an integral Fraction may remain: a sum of products is
    made canonical once, by _finished, when it is complete.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            s = get(m)
            if s is None:
                out[m] = ca * cb
            else:
                s += ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]


def _aligned(values, degree: int) -> tuple:
    """(names, w, bound, maps) for sums of products of degree factors among values.

    values are ringcore Scalars: terms maps with their alphabet (names) and
    exponent bound.  names is the union of their alphabets, bound the
    largest exponent such a product can reach, degree times the largest
    bound of a value, and w its width; maps holds the terms map of each
    value over names at width w.  The field of every name is put in one
    map, made once per call, where _repack looks up the names of each
    value, so aligning costs the names the values use, not the alphabet
    once per value.  A value that needs no move keeps its own map, so the
    maps are only to be read.
    """
    names = tuple(sorted({x for v in values for x in v.names}, key=_var_key))
    bound = max((v.bound for v in values), default=0) * degree
    w = _width(bound)
    field = {v: i for i, v in enumerate(names)}
    return names, w, bound, [_repack(v.terms, v.names, field, _width(v.bound), w)
                             for v in values]


def _finished(terms: dict, names: tuple, w: int, bound: int) -> Tuple[dict, tuple, int]:
    """(terms, alphabet, bound) of the value of a map summed in place over names at width w.

    bound bounds its exponents.  The coefficients are made canonical and the
    variables that no key uses are dropped: a field is 0 in every key exactly
    when its biased value is the same in the OR and in the AND of all biased
    keys and equals the bias.  A width above _WIDTH gives the value its
    exact bound and its own width.  terms is reused when no key changes.
    """
    if not terms:
        return terms, (), 0
    n = len(names)
    bias, mask, half, shifts = _layout(n, w)
    some, every = 0, -1
    for k, c in terms.items():
        if c.__class__ is not int:
            terms[k] = _canon(c)
        t = k + bias
        some |= t
        every &= t
    kept = tuple(v for v, s in zip(names, shifts)
                 if not (some >> s & mask) == half == (every >> s & mask))
    if w > _WIDTH:
        bound = max((abs(e) for k in terms for _, e in _fields(k, n, w)), default=0)
    field = {v: i for i, v in enumerate(kept)}
    return _repack(terms, names, field, w, _width(bound)), kept, bound


# Terms decoded at once by _evaluate and ringcore._texts.  It bounds the per-term
# strings and ints they hold, and lets the small coefficients of a series
# share one decode; a coefficient of more terms is cut into slices.
_BLOCK = 2048


def _blocks(key_lists) -> Iterator[tuple]:
    """(block, keys): blocks of at most _BLOCK keys taken in order from
    (i, keys) pairs, each with its keys in one list, in order.

    A block lists (i, start, piece) with piece = keys[start:start + len(piece)].
    Lists that fit share a block; one that does not fit in the room left
    starts a new block, and one longer than a block is cut into slices of
    _BLOCK keys, the last of which may share.  So every key is in exactly
    one block, and a list is cut only where it must be.
    """
    block, flat = [], []
    for i, keys in key_lists:
        if len(keys) > _BLOCK - len(flat) and block:
            yield block, flat
            block, flat = [], []
        start = 0
        while len(keys) - start > _BLOCK:
            piece = keys[start:start + _BLOCK]
            yield [(i, start, piece)], piece
            start += _BLOCK
        piece = keys[start:] if start else keys
        block.append((i, start, piece))
        flat += piece
    if block:
        yield block, flat


def _evaluate(values, bindings: Mapping[str, Rational]) -> tuple:
    """(nums, den): value i at the rational point bindings is nums[i] / den.

    Every variable of the values must be bound to an int or a Fraction
    (UnboundVariable and TypeError otherwise).  Each block of terms
    (_blocks) is summed in integers over a denominator of its own: the lcm
    of its coefficient denominators times, for each variable v bound to
    p/q, p^(-lo) * q^hi, where [lo, hi] is v's exponent range over the
    block's keys widened to contain 0, so that p^(e - lo) * q^(hi - e) is
    an integer for every e in it.  A term's integer factor is the product
    of the columns of _columns, with one table per variable and block.
    den is the lcm of the blocks' denominators, so every value shares it
    and no Fraction is made.
    """
    names, w, _, maps = _aligned(values, 1)
    point = []
    for v in names:
        if v not in bindings:
            raise UnboundVariable(f"no binding for variable {v}")
        x = bindings[v]
        if x.__class__ is not int and x.__class__ is not Fraction:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"variable {v} is bound to a {type(x).__name__}, "
                                f"not an int or a Fraction")
            x = Fraction(x)
        point.append(x)
    n, half = len(names), 1 << (w - 1)
    sums = []       # (i, sum, den_b): a piece of value i is sum / den_b
    coeffs = [list(terms.values()) for terms in maps]
    for block, keys in _blocks((i, list(terms)) for i, terms in enumerate(maps) if terms):
        # a piece's coefficients are the same slice of its value's list
        total = list(chain.from_iterable(coeffs[i][start:start + len(piece)]
                                         for i, start, piece in block))
        den_b = lcm(*[c.denominator for c in total if c.__class__ is not int])
        if den_b != 1:
            # the coefficients over the lcm of their denominators
            total = [c * den_b if c.__class__ is int
                     else c.numerator * (den_b // c.denominator) for c in total]

        def factors(j, fields):
            # exponents e are biased to e + half
            nonlocal den_b
            lo, hi = min(min(fields), half), max(max(fields), half)
            p, q = point[j].numerator, point[j].denominator
            if lo < half and not p:
                raise PoleAtPoint(f"variable {names[j]} is 0 with negative exponent")
            den_b *= p ** (half - lo) * q ** (hi - half)
            table = {}
            for f in fields:
                table[f] = p ** (f - lo) * q ** (hi - f)
            return table

        # a term times its factor from each column; with no variable there
        # is no column, and the pieces still take their coefficients in turn
        total = reduce(partial(map, mul), _columns(keys, n, w, factors, mul), iter(total))
        sums.extend((i, sum(islice(total, len(piece))), den_b) for i, _, piece in block)
        # the block's tables go before the next block is decoded
        del keys, total
    den = lcm(*[den_b for _, _, den_b in sums])
    nums = [0] * len(values)
    for i, s, den_b in sums:
        nums[i] += s * (den // den_b)
    return nums, den

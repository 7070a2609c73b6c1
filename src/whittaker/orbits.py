"""Name-free tables of the Cauchy identity on distinct indeterminates.

For n distinct indeterminates x and m distinct y, each side of the Cauchy
identity sum_lam s_lam(x) s_lam(y) t^|lam| = prod (1 - x_i y_j t)^-1 is
symmetric in x and, separately, in y.  So the coefficient of x^a y^b
depends only on the orbits of the compositions a and b, the partitions
alpha = sort(a) and beta = sort(b): on the lattice side it is
sum_lam K[lam][alpha] K[lam][beta], K the Kostka numbers (Macdonald,
Symmetric Functions and Hall Polynomials, I.6), and on the Euler side the
number of n x m nonnegative integer matrices with row sums alpha and
column sums beta, the coefficient of y^beta in h_alpha(y) (I.(4.2)).  The
two are equal by RSK (Knuth, Pacific J. Math. 34, 1970), so a check can
decide the identity on these small integer matrices and write its terms
out by orbits.

Compositions of k into s parts are listed in one order, lexicographic
descending, so the first member of each orbit is the partition itself,
its dominant member; the partitions come from the caller, zero-padded.
A key here is any int-linear form of the exponents, a packed monomial
(packing) for instance: key(a) = sum_i a_i * units[i].
"""

from __future__ import annotations

from itertools import chain
from operator import mul


def linear_forms(units, order: int) -> list:
    """forms[k]: key(a) for each composition a of k into len(units) parts,
    for k = 0..order, in lexicographic descending order of a."""
    *head, last = units
    forms = [[k * last] for k in range(order + 1)]
    for unit in reversed(head):
        forms = [[e * unit + f for e in range(k, -1, -1) for f in forms[k - e]]
                 for k in range(order + 1)]
    return forms


def orbit_table(levels) -> list:
    """(alphas, orbits) for k = 0..order: alphas = levels[k], the partitions
    of k zero-padded to one size, and orbits[i] the index in alphas of the
    orbit of the i-th composition of k into size parts (linear_forms' order)."""
    size, order = len(levels[0][0]), len(levels) - 1
    comps = [[(k,)] for k in range(order + 1)]
    for _ in range(size - 1):
        comps = [[(e,) + a for e in range(k, -1, -1) for a in comps[k - e]]
                 for k in range(order + 1)]
    table = []
    for alphas, level in zip(levels, comps):
        index = {alpha: i for i, alpha in enumerate(alphas)}
        table.append((alphas, tuple(index[tuple(sorted(a, reverse=True))] for a in level)))
    return table


def contingency_counts(rows, cols) -> list:
    """counts[k][i][j] for k = 0..order: the number of matrices of
    nonnegative integers whose row sums are rows[k][i] and whose column
    sums are cols[k][j], rows and cols partitions as in orbit_table.
    Counted row by row: a last row c <= beta leaves the matrices of the
    other rows with column sums beta - c, a count that is symmetric in the
    columns, so it is memoised on the rows left and the sorted column sums
    left."""
    memo = {}

    def count(rows: tuple, cols: tuple) -> int:
        # rows and cols without zero parts, of one size
        if len(rows) < 2 or len(cols) < 2:
            return 1
        if rows > cols:
            # the transpose of a matrix swaps its row and column sums
            rows, cols = cols, rows
        got = memo.get((rows, cols))
        if got is None:
            got = memo[rows, cols] = sum(count(rows[:-1], left) for left in _rests(cols, rows[-1]))
        return got

    def nonzero(alpha):
        return tuple(p for p in alpha if p)

    return [[[count(nonzero(alpha), nonzero(beta)) for beta in betas] for alpha in alphas]
            for alphas, betas in zip(rows, cols)]


def _rests(cols: tuple, a: int) -> list:
    """The sorted nonzero parts of cols - c for each composition c of a with
    c <= cols, one entry per c."""
    level = [((), a)]
    room = sum(cols)
    for x in cols:
        room -= x
        # what this column takes: at most x and what is left, at least what
        # the columns after it cannot hold
        level = [(left + (x - c,), rest - c) for left, rest in level
                 for c in range(max(0, rest - room), min(x, rest) + 1)]
    return [tuple(sorted(filter(None, left), reverse=True)) for left, _ in level]


def kostka_products(starts, tables, units, shapes) -> list:
    """ms[k][i][j]: the sum, over the states lam of size k, those of
    starts[k]:starts[k + 1], of K_x[lam][alpha_i] * K_y[lam][beta_j], where
    alpha_i and beta_j are the partitions of k of shapes[0] and shapes[1]
    (orbit_table).  tables[0] maps each state lam to s_lam(x) as a map from
    keys on units[0] to coefficients, and K_x[lam][alpha], the Kostka
    number, is its coefficient at key(alpha), the dominant monomial x^alpha;
    likewise tables[1] on units[1] for y."""
    ms = []
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        kx, ky = ([[t.get(key, 0) for t in table[a:b]]
                   for key in [sum(map(mul, alpha, us)) for alpha in shape[k][0]]]
                  for table, us, shape in zip(tables, units, shapes))
        ms.append([[sum(map(mul, p, q)) for q in ky] for p in kx])
    return ms


def expanded(ms, units, shapes) -> list:
    """sums[k] = {key(a) + key(b): ms[k][orbit of a][orbit of b]} over the
    compositions a of k on units[0] and b on units[1], their orbits those of
    shapes (orbit_table)."""
    order = len(ms) - 1
    fx, fy = (linear_forms(us, order) for us in units)
    sums = []
    for k, mk in enumerate(ms):
        (_, ox), (_, oy) = shapes[0][k], shapes[1][k]
        # row i of ms[k] spread over the compositions b, one row per a
        rows = [[row[j] for j in oy] for row in mk]
        keys = [kx + ky for kx in fx[k] for ky in fy[k]]
        sums.append(dict(zip(keys, chain.from_iterable(map(rows.__getitem__, ox)))))
    return sums

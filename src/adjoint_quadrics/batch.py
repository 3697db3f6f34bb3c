"""Batched forms of the square, structure-constant, ledger and commutator
checks.

The jacobi and combinatorics suites (see verify) check every case.
jacobi_samples and combinatorics_samples list the cases as blocks of root
and square numbers, built a block at a time (row_hits), and the kernels
here check a block at a time, reading the root system's tables (gram,
sums, neg, pairings, lex), the sign table and the square index.  Each
kernel returns per-sample verdicts, and flagged keeps only the samples a
failure entry needs.  A mask's entries are found by one flat scan
(nonzero), in row_hits and in the companion-set scans.  The position lemma
takes every root against a block of squares of one size (position_block):
the doubled products with sigma are one matrix product, the products with
the members one gather of gram, and position_failures puts the failing
configurations back in (rho, square) order.  The kernels are tested against
squares.classify_root_vs_square and against scalar helpers kept with the
tests (pair_sets, conjugate_pair, sign_column, modified_square and
extend_a3_to_d4 in tests/reference.py).  The draws below serve the suites
that still sample: draw_root the words and orbit suites, and Configs the
cases and commutator suites, which draw (root, square) uniformly among the
configurations at one doubled product of the root with sigma and keep
them as root and square numbers up to their reports.  A suite's draw loop
makes only the random calls, one configuration number per draw and what
its sub-case asks, bisecting the running counts for a square's size;
Configs.at then resolves the whole loop's numbers, one product with the
sigma of each distinct square of a block of them.  The ledger and
commutator kernels at the end check a block of the cases and commutator
suites' identities on integer coefficient arrays, through each root's
rows from action.elementary_rows; an evaluation over PolynomialRing, kept
with the tests too, is their reference.

A sum or difference of two roots is read from RootSystem.sums.  The sum
sigma - gamma of three roots is looked up by the root system's key of its
coefficient vector (RootSystem.lookup), one key subtraction per candidate
gamma.
"""

from __future__ import annotations

import random

import numpy as np

from .action import elementary_rows
from .root_system import RootSystem
from .signs import SignTable

# Samples (or rows of samples) per block.  The companion-set kernel holds a
# few block x roots arrays and a few dozen member and scan rows per pair:
# over all E7 pairs, blocks of 64, 256 and 1024 pairs took 76, 47 and
# 46 ms at a traced peak of 0.3, 0.8 and 3.1 MB (best of five, one process,
# 2 vCPUs).  The position kernel holds a few roots x block x pairs arrays:
# over every E8 and D12 configuration, blocks of 64 to 1024 squares took
# 41-50 and 110-125 ms, no trend above the noise, at a traced peak that
# doubles with the block, 1.1 MB at 64 on both.  The ledger kernel holds a
# few terms per monomial of its cases' forms: over the 1,900 cases of an E7
# cases suite, blocks of 64, 128, 256 and 512 cases took 36, 33, 28 and
# 26 ms at a traced peak of 1.9, 2.3, 3.4 and 5.3 MB (best of 21, one
# process, 2 vCPUs); at 256 the peak RSS of a verify session on E7 rose by
# 1.1 MB, at 128 it stayed where blocks of 64 had it.  The cases suite sets
# up CASE_CHUNK draws of each of its 19 entries at a time: at 1,000 samples
# on E7, chunks of 64, 256 and 512 took 0.45, 0.25-0.29 and 0.23-0.24 s at a
# traced peak of 2.3, 4.0 and 5.4 MB (0.32-0.33 s on E8 at 256 and 512).
# A chunk is a whole number of BLOCKs, so the failure entries of each block
# of draws keep their order.  The other kernels hold a few numbers per
# sample, so they take larger blocks.
BLOCK = 64
LEDGER_BLOCK = 128
CASE_CHUNK = 256
PAIR_BLOCK = 256
SQUARE_BLOCK = 64
ELEMENTWISE_BLOCK = 1024


# The random draws of the sampled suites, as root and square numbers.


def draw_root(rs: RootSystem, rng: random.Random) -> int:
    return rng.randrange(rs.n_roots)


class Configs:
    """The (root, square) configurations at doubled product d with the
    square's sigma, numbered by square, then by root: at(x) gives the x-th
    of each x in range(total), so a uniform x is a uniform configuration.
    counts[s] is square s's number of them, summed a block of squares at a
    time, so no roots x squares array is held; at(x) finds each square
    among the running sums, and the roots of a block of numbers by one
    product with the sigmas of their distinct squares."""

    def __init__(self, rs: RootSystem, d: int):
        # float64 products of these small integers are exact, and run
        # several times faster than numpy's integer matmul.
        self.pairings = rs.pairings.astype(np.float64)
        self.sigma, self.d = rs.square_index.sigma, d
        self.counts = np.concatenate(
            [
                np.count_nonzero(self.pairings @ sigma.T == d, axis=0)
                for (sigma,) in blocks(self.sigma, size=PAIR_BLOCK)
            ]
        )
        # starts[s] is the number of square s's first configuration, kept
        # as well as a list, which the draw loops bisect one number at a time.
        self._starts = np.concatenate([[0], np.cumsum(self.counts)])
        self.starts = self._starts.tolist()
        self.total = self.starts[-1]
        self.size = rs.square_index.size.tolist()
        self.empty = f"no square with roots at doubled product {d} with sigma found"

    def at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(rho, s): the root and square numbers of configurations x."""
        x, starts = np.asarray(x, dtype=np.int64), self._starts
        rho, s = np.zeros_like(x), np.searchsorted(starts, x, side="right") - 1
        for lo in range(0, len(x), PAIR_BLOCK):
            part = slice(lo, lo + PAIR_BLOCK)
            squares, which = np.unique(s[part], return_inverse=True)
            # Column q: the roots of square squares[q], read in order.
            q, roots = nonzero((self.pairings @ self.sigma[squares].T == self.d).T)
            first = np.searchsorted(q, np.arange(len(squares)))
            rho[part] = roots[first[which] + x[part] - starts[s[part]]]
        return rho, s


class Tables:
    """The tables the batched checks read (rs, signs), the doubled products
    again and the largest pair count of a square."""

    def __init__(self, rs: RootSystem, signs: SignTable):
        self.rs, self.signs = rs, signs
        # The doubled products again, from the root coordinates and the
        # Cartan matrix: the S_pi/2 scan narrows its candidates with them and,
        # like the scalar pair_sets' scan over every root, does not read gram.
        self.inner = (rs.coeffs @ rs.pairings.T).astype(np.int8)
        self.kmax = int(rs.square_index.size.max()) // 2

    def code(self, x, y, ordered: bool = False):
        """One integer per (ordered or unordered) pair of positions in [-1, n)."""
        if not ordered:
            x, y = np.minimum(x, y), np.maximum(x, y)
        return (x + 1) * (self.rs.n_roots + 1) + y + 1

    @property
    def codes(self) -> int:
        return (self.rs.n_roots + 1) ** 2

    def member_block(self, s, width: int):
        """(len(s), width) members of squares s, all of 2k = width members."""
        index = self.rs.square_index
        return index.members[index.start[s][:, None] + np.arange(width)]


def blocks(*arrays, size: int = BLOCK):
    """Whole position arrays, `size` samples at a time."""
    for lo in range(0, max(len(arrays[0]), 1), size):
        yield tuple(a[lo : lo + size] for a in arrays)


def row_hits(rows: tuple, mask, size: int = BLOCK):
    """(*(x[r] for x in rows), c) for every row r and column c where the
    mask holds, in row-major order, the rows `size` at a time.  mask gets
    each chunk of the row arrays and returns a boolean (rows, columns)
    array, so one chunk of it exists at a time."""
    for lo in range(0, max(len(rows[0]), 1), size):
        chunk = tuple(x[lo : lo + size] for x in rows)
        r, c = nonzero(mask(*chunk))
        yield (*(x[r] for x in chunk), c)


def nonzero(mask):
    """np.nonzero of a 2-D mask by one flat scan, which is several times
    faster than np.nonzero's scan per dimension."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def flagged(kernel, tb: Tables, sample_blocks, flag):
    """kernel(tb, *block) over the blocks: the number of samples, and the
    samples and the kernel's outputs where flag(*outputs) holds, each joined
    over the blocks.  A suite keeps only what its failure entries read."""
    count, samples, outputs = 0, [], []
    for block in sample_blocks:
        out = kernel(tb, *block)
        hit = flag(*out)
        count += len(hit)
        samples.append(tuple(a[hit] for a in block))
        outputs.append(tuple(o[hit] for o in out))
    return (
        count,
        tuple(np.concatenate(c) for c in zip(*samples)),
        tuple(np.concatenate(c) for c in zip(*outputs)),
    )


def _by_size(tb: Tables, kernel, outputs: int, shape: tuple, s, *rows):
    """kernel(tb, 2k, s[sel], *(r[sel] for r in rows)) over the squares of
    each size 2k: its boolean outputs, padded with False to
    (len(s), *shape)."""
    sizes = tb.rs.square_index.size[s]
    out = [np.zeros((len(s),) + shape, dtype=bool) for _ in range(outputs)]
    for width in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == width)
        for o, part in zip(out, kernel(tb, width, s[sel], *(r[sel] for r in rows))):
            o[(sel,) + tuple(slice(0, w) for w in part.shape[1:])] = part
    return tuple(out)


def _unique(x):
    """The distinct values of x, sorted: np.unique by a sort, which is
    several times faster than its hash table on a block's few thousand."""
    x = np.sort(x)
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


def _isin(x, pool):
    """np.isin(x, pool) by one sort and one binary search, several times
    faster than np.isin on a block's tens of thousands of codes."""
    pool = np.sort(pool)
    at = np.searchsorted(pool, x)
    hit = at < len(pool)
    hit[hit] = pool[at[hit]] == x[hit]
    return hit


def _differ(n: int, codes: int, left, right):
    """Per sample p < n: do the row sets {(p, code)} of left and right differ?"""
    a = _unique(left[0] * codes + left[1])
    b = _unique(right[0] * codes + right[1])
    out = np.zeros(n, dtype=bool)
    out[np.setxor1d(a, b, assume_unique=True) // codes] = True
    return out


def _distinct(n: int, codes: int, rows):
    """Per sample p < n: the number of distinct codes among its rows."""
    return np.bincount(_unique(rows[0] * codes + rows[1]) // codes, minlength=n)


def conjugate(tb: Tables, x, y, alpha, beta):
    """conjugate_pair on the pairs {x[i], y[i]}: the positions (gp, dp) of
    the conjugate, or -1 where conjugate_pair would raise."""
    gram, sums, lex = tb.rs.gram, tb.rs.sums, tb.rs.lex
    ok = (x >= 0) & (y >= 0)
    x, y = np.where(ok, x, 0), np.where(ok, y, 0)
    lo = np.where(lex[x] <= lex[y], x, y)
    hi = x + y - lo
    ok &= sums[lo, hi] == alpha
    ok &= (gram[lo, beta] != 0) & (gram[hi, beta] != 0)
    g = np.where(gram[lo, beta] == 1, lo, hi)
    d = lo + hi - g
    gp = sums[d, beta]
    dp = sums[g, tb.rs.neg[beta]]
    ok &= (gp >= 0) & (dp >= 0)
    return np.where(ok, gp, -1), np.where(ok, dp, -1)


def companion_block(tb: Tables, alpha, beta):
    """Per orthogonal pair: (the direct scans and the square formulas give
    different companion sets or the pair lies in no square, a size or the
    member set is wrong, the conjugate-pair involution fails)."""
    rs, codes, key = tb.rs, tb.codes, tb.rs.key
    gram, neg, sums, index = rs.gram, rs.neg, rs.sums, rs.square_index
    b = len(alpha)
    s = index.square_of[alpha, beta]
    nowhere = s < 0
    s = np.where(nowhere, 0, s)
    k = index.size[s] // 2
    own = tb.code(alpha, beta)

    # Direct scans over the roots.  sigma - gamma has the norm of a root
    # only where (gamma, sigma) = (sigma, sigma) / 2, so only those gammas
    # are looked up.
    ga, gb = gram[alpha], gram[beta]
    inner = tb.inner
    half = inner[alpha, beta] + 2
    p, g = nonzero(inner[alpha] + inner[beta] == half[:, None])
    partner = rs.lookup(key[alpha[p]] + key[beta[p]] - key[g])
    found = partner >= 0
    p, c = p[found], tb.code(g[found], partner[found])
    keep = c != own[p]
    half_scan = (p[keep], c[keep])
    p, g = nonzero((ga == 1) & (gb != 0))
    two_scan = (p, tb.code(g, sums[alpha[p], neg[g]]))
    p, g = nonzero((ga == -1) & (gb == -1))
    pi_scan = (p, tb.code(g, neg[g], ordered=True))
    p, g = nonzero((ga == -1) & (gb == 1))
    pi_prime_scan = (p, tb.code(g, neg[g], ordered=True))

    # Square formulas, from the square index.
    q, pos, m = index.member_rows(s)
    mate = index.members[index.start[s][q] + (pos ^ 1)]
    c = tb.code(m, mate)
    keep = (pos % 2 == 0) & (c != own[q])
    half_sq = (q[keep], c[keep])
    other = (m != alpha[q]) & (m != beta[q])
    q, m = q[other], m[other]
    a = alpha[q]
    a_minus_m = sums[a, neg[m]]
    two_sq = (q, tb.code(m, a_minus_m))
    pi_sq = (q, tb.code(neg[m], m, ordered=True))
    pi_prime_sq = (q, tb.code(sums[m, neg[a]], a_minus_m, ordered=True))

    differ = nowhere.copy()
    for scan, formula in (
        (half_scan, half_sq),
        (two_scan, two_sq),
        (pi_scan, pi_sq),
        (pi_prime_scan, pi_prime_sq),
    ):
        differ |= _differ(b, codes, scan, formula)
    wrong = _distinct(b, codes, half_sq) != k - 1
    for rows in (two_sq, pi_sq, pi_prime_sq):
        wrong |= _distinct(b, codes, rows) != 2 * k - 2
    # -S_pi together with {alpha, beta} must be the square's members.
    pb, _, members = index.member_rows(s)
    ends = np.arange(b)
    wrong |= _differ(
        b,
        codes,
        (np.concatenate([q, ends, ends]), np.concatenate([neg[neg[m]], alpha, beta])),
        (pb, members),
    )

    # Conjugate pairs on S_2pi/3 (a set of distinct pairs wherever the
    # checks above pass).
    pair = two_sq[1]
    gp, dp = conjugate(tb, m, a_minus_m, a, beta[q])
    conj = tb.code(gp, dp)
    back = tb.code(*conjugate(tb, gp, dp, a, beta[q]))
    ok = (gp >= 0) & (conj != pair) & _isin(q * codes + conj, q * codes + pair)
    ok &= back == pair
    orbit = np.minimum(pair, conj) * codes + np.maximum(pair, conj)
    conj_bad = np.bincount(q[~ok], minlength=b) > 0
    conj_bad |= _distinct(b, codes * codes, (q, orbit)) != k - 1
    return differ, wrong, conj_bad


def position_block(tb: Tables, s):
    """Every root rho against squares s, all of one size: (n_roots, len(s))
    arrays of the doubled product with sigma, whether the products with the
    members follow the pattern of its class, and whether the member rho
    (class 0) or -rho (class pi) is missing, where classify_root_vs_square
    would raise."""
    rs = tb.rs
    n, b = rs.n_roots, len(s)
    m = tb.member_block(s, int(rs.square_index.size[s[0]]))
    # float64 products of these small integers are exact, as in Configs.
    d = (rs.pairings.astype(np.float64) @ rs.square_index.sigma[s].T).astype(np.int64)

    # first[r, q]: the first position holding root r in square q, or -1;
    # row n is the -1 that a root without a valid negation reads.
    first = np.full((n + 1, b), -1, dtype=np.int16)
    squares = np.arange(b)
    for j in reversed(range(m.shape[1])):
        first[m[:, j], squares] = j
    neg = np.where((rs.neg >= 0) & (rs.neg < n), rs.neg, n)
    # The signed index of rho or -rho in the square.
    at = np.where(d == 2, first[:n], np.where(d == -2, first[neg], -1))
    missing = (np.abs(d) == 2) & (at < 0)

    # The products (x, y) of rho with each pair, read as one flat index
    # into _PAIR_OK, the pair holding rho or -rho moved to its own cells.
    g = rs.gram[:, m]
    pair = g[..., 0::2] * 5 + g[..., 1::2] + 12
    cell = ((np.clip(d, -3, 3) + 3) * 50).astype(np.int16)[..., None] + pair
    r, q = nonzero(at >= 0)
    cell[r, q, at[r, q] // 2] += 25
    ok = _PAIR_OK.ravel()[cell].all(2) & ~missing
    # Class pi/2 also needs a pair orthogonal to rho.
    ok &= (d != 0) | (pair == 12).any(2)
    return d, ok, missing


def position_failures(tb: Tables, square_blocks):
    """position_block over the blocks of squares: the number of (rho,
    square) configurations, and the failing ones (rho, s) with their (d,
    missing), in (rho, square) order."""
    count, found = 0, []
    for (s,) in square_blocks:
        d, ok, missing = position_block(tb, s)
        count += ok.size
        r, q = nonzero(~ok)
        found.append((r, s[q], d[r, q], missing[r, q]))
    rho, s, d, missing = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((s, rho))
    return count, (rho[order], s[order]), (d[order], missing[order])


# _PAIR_OK[d + 3, own, x + 2, y + 2]: does a pair whose members have doubled
# products x, y (either order) with rho fit the position lemma for rho's d with
# sigma, own if it holds rho or -rho (only where |d| = 2)?  No |d| > 2 fits.
_PAIR_OK = np.zeros((7, 2, 5, 5), dtype=bool)
for _d, _own, _x, _y in (
    (2, 1, 0, 2),
    (2, 0, 1, 1),
    (-2, 1, -2, 0),
    (-2, 0, -1, -1),
    (0, 0, 0, 0),
    (0, 0, -1, 1),
    (1, 0, 0, 1),
    (-1, 0, -1, 0),
):
    _PAIR_OK[_d + 3, _own, [_x + 2, _y + 2], [_y + 2, _x + 2]] = True


def sign_column_block(tb: Tables, s):
    """Per square s and signed-index positions (j, h): does the lemma
    c(h)_i = c(h)_j c(j)_i fail for some i?  Positions follow the pair
    layout: 2p holds p+1 and 2p+1 holds -(p+1)."""
    return _by_size(tb, _sign_columns, 1, (2 * tb.kmax, 2 * tb.kmax), s)


def _sign_columns(tb: Tables, width: int, s):
    t, neg = tb.signs.table, tb.rs.neg
    m = tb.member_block(s, width)
    mate = m[:, np.arange(width) ^ 1]
    # c[j, i] is sign_column(j)[i]: 1 where i = +-j, else
    # -N_{b_j, -b_i} N_{b_-j, -b_-i}.
    c = -t[m[:, :, None], neg[m][:, None, :]] * t[mate[:, :, None], neg[mate][:, None, :]]
    pair = np.arange(width) // 2
    c[:, pair[:, None] == pair[None, :]] = 1
    # [j, h, i]: c[h, i] against c[h, j] c[j, i].
    bad = c[:, None, :, :] != c.transpose(0, 2, 1)[:, :, :, None] * c[:, :, None, :]
    return (bad.any(-1),)


def modified_square_block(tb: Tables, s):
    """Per square s and signed-index position j: (modified_square would
    raise, the modified square keeps the wrong members or is no square)."""
    return _by_size(tb, _modified_squares, 2, (2 * tb.kmax,), s)


def _modified_squares(tb: Tables, width: int, s):
    gram, neg = tb.rs.gram, tb.rs.neg
    m = tb.member_block(s, width)
    pos = np.arange(width)
    # out[:, j, x]: member x, in pair layout, of the square modified at j.
    # Other pairs: b_j - b_i; pair |j|: (b_j, -b_-j) for j > 0, else
    # (-b_-j, b_j).
    out = tb.rs.sums[m[:, :, None], neg[m][:, None, :]]
    own = pos[:, None] // 2 == pos[None, :] // 2
    out[:, own] = 0
    error = (out < 0).any(-1)
    bj, nb = m, neg[m[:, pos ^ 1]]
    even = pos % 2 == 0
    base = pos - pos % 2
    out[:, pos, base] = np.where(even, bj, nb)
    out[:, pos, base + 1] = np.where(even, nb, bj)
    out[out < 0] = 0
    ok = (out[:, pos, pos] == bj) & (out[:, pos, pos ^ 1] == nb)
    # Two members have product 0 if their signed indices pair them, else 1.
    first = (out[..., :, None] == out[..., None, :]).argmax(-1)
    signed = (first // 2 + 1) * (1 - 2 * (first % 2))
    paired = signed[..., :, None] == -signed[..., None, :]
    dot = gram[out[..., :, None], out[..., None, :]]
    good = np.where(paired, dot == 0, dot == 1)
    ok &= (good | ~np.triu(np.ones((width, width), dtype=bool), k=1)).all((-2, -1))
    return error, ~error & ~ok


def quadruple(index, sq, p, q):
    """The members (a, b) of pair p and (g, d) of pair q of square sq."""
    first = index.start[sq] + 2 * p
    other = index.start[sq] + 2 * q
    members = index.members
    return members[first], members[first + 1], members[other], members[other + 1]


def quadruple_block(tb: Tables, sq, p, q):
    """Per (square, pair p, pair q): does N_{a,-g} N_{b,-d} = N_{a,-d} N_{b,-g}
    fail?"""
    t, neg = tb.signs.table, tb.rs.neg
    a, b, g, d = quadruple(tb.rs.square_index, sq, p, q)
    return (t[a, neg[g]] * t[b, neg[d]] != t[a, neg[d]] * t[b, neg[g]],)


def cocycle_block(tb: Tables, i, j, g):
    """Per triple (alpha, beta, gamma) with alpha + beta = h a root and no
    two of them opposite: is the Jacobi cocycle
    N_{a,b} N_{h,g} + N_{b,g} N_{b+g,a} + N_{g,a} N_{g+a,b} nonzero?"""
    t, sums = tb.signs.table, tb.rs.sums
    h, bg, ga = sums[i, j], sums[j, g], sums[g, i]
    total = t[i, j] * t[h, g]
    total += np.where(bg >= 0, t[j, g] * t[bg, i], 0)
    total += np.where(ga >= 0, t[g, i] * t[ga, j], 0)
    return (total != 0,)


def cartan_block(tb: Tables, i, j):
    """Per pair (alpha, beta) with beta not +-alpha: is
    <alpha, beta> + N_{a,b} N_{a+b,-b} + N_{-b,a} N_{a-b,b} nonzero?"""
    t, neg, sums = tb.signs.table, tb.rs.neg, tb.rs.sums
    ab, amb = sums[i, j], sums[i, neg[j]]
    total = tb.rs.gram[i, j]
    total += np.where(ab >= 0, t[i, j] * t[ab, neg[j]], 0)
    total += np.where(amb >= 0, t[neg[j], i] * t[amb, j], 0)
    return (total != 0,)


def a3_block(tb: Tables, a, b, c):
    """Per A_3 triple: (an extension exists, the first one, it is a D_4
    extension)."""
    gram = tb.rs.gram
    hits = (gram[a] == 0) & (gram[c] == 0) & (gram[b] == -1)
    found = hits.any(1)
    d = hits.argmax(1)
    ok = found & (gram[d, a] == 0) & (gram[d, c] == 0) & (gram[d, b] == -1)
    return found, d, ok


def _without(n: int, i, *columns):
    """A (len(i), n) mask, False at row r's given columns."""
    mask = np.ones((len(i), n), dtype=bool)
    rows = np.arange(len(i))
    for c in columns:
        mask[rows, c] = False
    return mask


def jacobi_samples(rs: RootSystem):
    """Every sample of the jacobi suite's last three checks, as blocks of
    positions in report order: (square, pair p, pair q != p) quadruples,
    (alpha, beta, gamma) triples with alpha + beta a root, gamma at 2pi/3 to
    it and no two of the three opposite, and (alpha, beta) pairs with beta
    not +-alpha."""
    n, neg, sums = rs.n_roots, rs.neg, rs.sums
    k = rs.square_index.size // 2
    sq, x = _expand(k * k)
    p, q = np.divmod(x, k[sq])
    keep = p != q
    up = rs.gram == -1

    def third(i, j):
        return up[sums[i, j]] & _without(n, i, neg[i], neg[j])

    return (
        blocks(sq[keep], p[keep], q[keep], size=ELEMENTWISE_BLOCK),
        row_hits(np.nonzero(up), third),
        row_hits((np.arange(n),), lambda i: _without(n, i, i, neg[i]), ELEMENTWISE_BLOCK // n + 1),
    )


def combinatorics_samples(rs: RootSystem):
    """Every sample of the combinatorics suite, as blocks of positions:
    orthogonal pairs, the squares a block of one size at a time (every root
    against each, for position_failures), the squares (for the sign-column
    and the modified-square checks), and A_3 triples, each in report order
    but the size blocks."""
    zero, up = rs.gram == 0, rs.gram == -1
    sizes = rs.square_index.size
    every = np.arange(len(sizes))
    return (
        blocks(*np.nonzero(zero), size=PAIR_BLOCK),
        (
            block
            for width in np.unique(sizes).tolist()
            for block in blocks(np.flatnonzero(sizes == width), size=SQUARE_BLOCK)
        ),
        blocks(every),
        blocks(every),
        row_hits(np.nonzero(up), lambda a, b: zero[a] & up[b]),
    )


# The ledger and commutator kernels.  A polynomial over Z[xi, v] or a matrix
# polynomial over Z[xi] is held as its terms (case, xi-degree, p, q, coef):
# coef xi^degree v_p v_q with p <= q, or the coefficient of xi^degree at
# row p, column q.  x_rho(xi) has xi-degree 2 and the identities at most 4,
# so a term packs into the int64 key ((case * 5 + degree) * dim + p) * dim + q.
# A block holds at most 4 k BLOCK cases (the forms of the fixes-square
# configurations, k pairs per square), so the keys stay below
# 4 k BLOCK * 5 dim^2, about 10^10 on D_17.  A coefficient is a sum of fewer
# than dim^4 products of a form coefficient (at most 8 in absolute value)
# and at most four row coefficients (at most 6), below 2^51 through D_17.
_DEGREES = 5


def _collect(dim: int, *parts):
    """The terms of the parts, each (case, degree, p, q, coef), summed by
    (case, degree, p, q), zero sums dropped, ordered by case."""
    case, degree, p, q, coef = (np.concatenate(column) for column in zip(*parts))
    key = ((case * _DEGREES + degree) * dim + p) * dim + q
    order = np.argsort(key, kind="stable")
    key, coef = key[order], coef[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(coef, first) if len(key) else coef
    keep = sums != 0
    key, sums = key[first][keep], sums[keep]
    rest, q = np.divmod(key, dim)
    rest, p = np.divmod(rest, dim)
    case, degree = np.divmod(rest, _DEGREES)
    return case, degree, p, q, sums


def _targeted(keys, wanted):
    """For each key in wanted: the first index of it in the sorted keys and
    how many times it occurs there.  The keys are small nonnegative
    integers, so both are read from a count of every key up to the largest
    wanted: for a block's few thousand wanted keys, in no order, many times
    faster than a binary search for each."""
    count = np.bincount(keys, minlength=int(wanted.max()) + 1 if len(wanted) else 0)
    return (np.cumsum(count) - count)[wanted], count[wanted]


def _expand(counts):
    """For each n in counts, the indices 0..n-1: (owner, index)."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def ledger_block(rs: RootSystem, signs: SignTable, rho, form, target):
    """The residuals f(x_rho(xi) v) - f(v) - t(v) of a block of ledger cases,
    v generic, as their nonzero terms (case, degree, p, q, coef).

    rho holds each case's root position; form is (case, a, b, c) for the
    monomials c v_a v_b of each f; target is (case, degree, a, b, c) for the
    terms c xi^degree v_a v_b of each t.  Every monomial of f is expanded
    through the rows of x_rho(xi) on both of its coordinates, leaving out
    the product of the two identity rows, which is f(v) itself.  The rows
    are built once per distinct rho of the block (10% of the kernel's time
    on E7's cases).
    """
    dim = rs.dim_v
    roots, which = np.unique(rho, return_inverse=True)
    owner, rt, rd, rsrc, rc = elementary_rows(rs, signs, roots)
    keys = owner * dim + rt
    order = np.argsort(keys, kind="stable")
    keys, rsrc, rd, rc = keys[order], rsrc[order], rd[order], rc[order]
    case, a, b, c = form
    la, na = _targeted(keys, which[case] * dim + a)
    lb, nb = _targeted(keys, which[case] * dim + b)
    # Per monomial, the pairs (i, j) of a row into a and a row into b, 0
    # standing for the identity row, without (0, 0).
    m, k = _expand((na + 1) * (nb + 1) - 1)
    i, j = np.divmod(k + 1, nb[m] + 1)

    def through(lo, x, i):
        on = i > 0
        row = np.where(on, lo[m] + i - 1, 0)
        return np.where(on, rsrc[row], x[m]), np.where(on, rd[row], 0), np.where(on, rc[row], 1)

    sa, da, ca = through(la, a, i)
    sb, db, cb = through(lb, b, j)
    tc, td, ta, tb, tco = target
    return _collect(
        dim,
        (case[m], da + db, np.minimum(sa, sb), np.maximum(sa, sb), c[m] * ca * cb),
        (tc, td, np.minimum(ta, tb), np.maximum(ta, tb), -tco),
    )


def commutator_block(rs: RootSystem, signs: SignTable, rho, a, b, eps: int):
    """Per case: is x_a(xi) x_b(eps) x_a(-xi) x_b(-eps) = x_rho(xi), as
    matrices over Z[xi], coefficient by coefficient?  eps is 1 or -1.

    The product is built right to left as I + S: a factor I + N turns it
    into I + S + N + N S.  The terms of S are (case, degree, row, column,
    coef).
    """
    dim = rs.dim_v
    s = (np.zeros(0, dtype=np.int64),) * 5
    rows_a, rows_b = elementary_rows(rs, signs, a), elementary_rows(rs, signs, b)
    for (owner, rt, rd, rsrc, rc), scale, on_xi in (
        (rows_b, -eps, False),
        (rows_a, -1, True),
        (rows_b, eps, False),
        (rows_a, 1, True),
    ):
        # x_root(t) with t = scale xi or t = scale, scale = +-1: coef t^degree.
        rc = rc * np.where(rd % 2 == 1, scale, 1)
        rdeg = rd if on_xi else np.zeros_like(rd)
        # N S: the row (target, source) meets S's terms at row source.
        scase, sdeg, srow, scol, scoef = s
        order = np.argsort(scase * dim + srow, kind="stable")
        lo, count = _targeted((scase * dim + srow)[order], owner * dim + rsrc)
        x, k = _expand(count)
        hit = order[lo[x] + k]
        s = _collect(
            dim,
            s,
            (owner, rdeg, rt, rsrc, rc),
            (owner[x], rdeg[x] + sdeg[hit], rt[x], scol[hit], rc[x] * scoef[hit]),
        )
    owner, rt, rd, rsrc, rc = elementary_rows(rs, signs, rho)
    left = _collect(dim, s, (owner, rd, rt, rsrc, -rc))[0]
    return np.bincount(left, minlength=len(rho)) == 0

"""Binary error-correcting code constructions with exact distance checking.

Families: the even-weight code (distance 2), greedy lexicographic codes
meeting the Gilbert-Varshamov count, parity-extended narrow-sense BCH codes
over GF(2^m), and Sylvester-Hadamard codes.  All four are linear: each
family gives only a basis, and ``_span`` writes its words, word j being the
XOR of the basis words at the set bits of j.  All constructions are
deterministic.  Constructions record a minimum distance only where it is
known without a pairwise check; ``min_distance`` computes it exactly.

Codewords are stored as integers whose most significant bit is the leftmost
character of the word's text form, so numeric order equals lexicographic
order on the 0/1 strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .errors import DomainError, FieldError, NoConstruction, SizeLimitExceeded

WORD_CAP = 1 << 20    # max codewords a code (or vertices a coloring covering) may have
PAIR_CAP = 1 << 24    # max pairwise distance checks
SCAN_CAP = 1 << 22    # max word-space size 2^k of a greedy lexicode
ENTRY_CAP = 1 << 24   # max bits (4^m) of an order-2^m Hadamard code

# Primitive polynomials over GF(2), one per extension degree, encoded as
# bitmasks (bit i = coefficient of x^i).  Primitivity is re-verified at
# FieldContext construction time, so a table typo cannot pass silently.
PRIMITIVE_POLYS = {
    2: 0b111,                  # x^2 + x + 1
    3: 0b1011,                 # x^3 + x + 1
    4: 0b10011,                # x^4 + x + 1
    5: 0b100101,               # x^5 + x^2 + 1
    6: 0b1000011,              # x^6 + x + 1
    7: 0b10001001,             # x^7 + x^3 + 1
    8: 0b100011101,            # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,           # x^9 + x^4 + 1
    10: 0b10000001001,         # x^10 + x^3 + 1
    11: 0b100000000101,        # x^11 + x^2 + 1
    12: 0b1000001010011,       # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,      # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,     # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,    # x^15 + x + 1
    16: 0b10001000000001011,   # x^16 + x^12 + x^3 + x + 1
}


def _clmul(a, b):
    """Carry-less product of two GF(2) polynomials in bitmask form."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


@dataclass
class BinaryCode:
    """Distinct fixed-length binary words plus an optional cached minimum distance.

    ``min_distance``, when set, is the exact minimum pairwise Hamming
    distance of ``words``; ``None`` means not yet verified.
    """

    length: int
    words: tuple
    min_distance: int | None = None
    method: str = ""

    def __post_init__(self):
        if self.length < 1:
            raise DomainError(f"word length must be >= 1, got {self.length}")
        self.words = words = tuple(self.words)
        # Range and repeats are checked in C; only a failing code is walked
        # word by word, to report its first bad word.
        if words and (min(words) < 0 or max(words) >= 1 << self.length
                      or len(set(words)) != len(words)):
            seen = set()
            for w in words:
                if not 0 <= w < (1 << self.length):
                    raise DomainError(f"word {w!r} does not fit in {self.length} bits")
                if w in seen:
                    raise DomainError(f"duplicate codeword {self.word_text(w)}")
                seen.add(w)

    def __len__(self):
        return len(self.words)

    def word_text(self, w):
        return format(w, f"0{self.length}b")


def min_distance(code):
    """Exact minimum pairwise Hamming distance; caches the result on the code.

    The words are split into ceil(length / 64) uint64 rows, and one word is
    checked against all later words per step by summing the rows' popcounts.
    """
    if code.min_distance is not None:
        return code.min_distance
    words = code.words
    if len(words) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    pairs = len(words) * (len(words) - 1) // 2
    if pairs > PAIR_CAP:
        raise SizeLimitExceeded(f"{pairs} pairs exceed the cap of {PAIR_CAP}")
    arr = np.array([[w >> 64 * j & (1 << 64) - 1 for w in words]
                    for j in range(-(-code.length // 64))], dtype=np.uint64)
    rows = (np.bitwise_count(arr[:, i, None] ^ arr[:, i + 1:])
            .sum(axis=0).min() for i in range(len(words) - 1))
    best = code.length
    for d in rows:
        best = min(best, int(d))
        if best == 1:
            break
    code.min_distance = best
    return best


def ball_volume(k, r):
    """Number of k-bit words within Hamming distance r of a given word."""
    return sum(comb(k, i) for i in range(r + 1))


def _span(basis, count):
    """The first ``count`` XOR combinations of ``basis`` in counting order:
    word j is the XOR of ``basis[i]`` over the set bits i of j.  Every
    family's words are written here."""
    words = [0] if count > 0 else []
    for b in basis:
        words += [w ^ b for w in words[:count - len(words)]]
    return words


def even_weight_code(k):
    """All 2^(k-1) even-weight words of length k, in lexicographic order."""
    if k < 2:
        raise DomainError(f"even-weight code needs k >= 2, got {k}")
    if 1 << (k - 1) > WORD_CAP:
        raise SizeLimitExceeded(f"2^{k - 1} words exceed the cap of {WORD_CAP}")
    basis = [2 << i | 1 for i in range(k - 1)]
    return BinaryCode(k, _span(basis, 1 << (k - 1)), min_distance=2,
                      method="even-weight")


def _join(dist, r):
    """The distance table of ``_lexicode_basis`` once 2^p + r joins the span,
    where len(dist) = 2^p: a low x lies at min(dist[x], dist[x ^ r] + 1) and
    a high 2^p + x at min(dist[x] + 1, dist[x ^ r]).  dist[x ^ r] is
    gathered through a 2-D view of the table, so no index over it is built."""
    size = len(dist)
    h = (size.bit_length() - 1) // 2
    rows = np.arange(size >> h) ^ (r >> h)
    cols = np.arange(1 << h) ^ (r & (1 << h) - 1)
    moved = dist.reshape(len(rows), len(cols))[np.ix_(rows, cols)].ravel()
    wider = np.empty(2 * size, dtype=np.int8)
    low, high = wider[:size], wider[size:]
    np.add(dist, 1, out=high)
    np.minimum(high, moved, out=high)
    moved += 1
    np.minimum(dist, moved, out=low)
    return wider


def _lexicode_basis(d, count, bits):
    """The first ``count`` basis words of the distance-d greedy lexicode, or
    all of those below 2^bits if there are fewer.

    A greedy lexicode is linear (Levenshtein 1960; Conway and Sloane,
    "Lexicographic codes", IEEE Trans. IT 32, 1986), and its words in
    increasing order are the XOR combinations of its basis words taken in
    counting order.  While the span lies below 2^p, ``dist[x]`` is the
    distance from x < 2^p to it.  The next word is then 2^p + r for the
    first r with dist[r] >= d - 1; if there is none, no word below 2^(p+1)
    joins, and the table doubles with dist + 1.
    """
    basis, dist, r = [], np.zeros(1, dtype=np.int8), None
    for p in range(bits):
        if len(basis) == count:
            break
        if p:
            dist = np.concatenate((dist, dist + 1)) if r is None else _join(dist, r)
        far = dist >= d - 1
        r = int(far.argmax())
        if far[r]:
            basis.append(1 << p | r)
        else:
            r = None
    return basis


class FieldContext:
    """GF(2^m) as polynomials over GF(2) modulo a primitive polynomial.

    Elements are bitmask-encoded polynomial residues.  Construction builds
    the full power table of x and verifies that x has multiplicative order
    2^m - 1, which simultaneously certifies the modulus irreducible and
    primitive.
    """

    def __init__(self, m, modulus=None):
        if modulus is None:
            if m not in PRIMITIVE_POLYS:
                raise FieldError(f"no primitive polynomial tabled for m = {m}")
            modulus = PRIMITIVE_POLYS[m]
        if modulus.bit_length() - 1 != m:
            raise FieldError(f"modulus {modulus:#b} does not have degree {m}")
        self.m = m
        self.modulus = modulus
        self.order = (1 << m) - 1
        powers = [1]
        cur = 1
        for e in range(1, self.order + 1):
            cur <<= 1
            if cur >> m:
                cur ^= modulus
            if cur == 1 and e < self.order:
                raise FieldError(
                    f"x has order {e} < {self.order} modulo {modulus:#b}; not primitive")
            powers.append(cur)
        if powers[self.order] != 1:
            raise FieldError(f"x is not a unit modulo {modulus:#b}")
        self.powers = powers
        log = [0] * (1 << m)
        for e in range(self.order):
            log[powers[e]] = e
        self.log = log

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.powers[(self.log[a] + self.log[b]) % self.order]

    def alpha_pow(self, e):
        return self.powers[e % self.order]


def _cyclotomic_coset(s, order):
    out = []
    t = s % order
    while t not in out:
        out.append(t)
        t = (t * 2) % order
    return out


def _minimal_polynomial(ctx, s):
    """Minimal polynomial of alpha^s over GF(2), as a bitmask."""
    coeffs = [1]                       # polynomial 1, ascending degree
    for t in _cyclotomic_coset(s, ctx.order):
        root = ctx.alpha_pow(t)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):  # multiply by (x + root)
            nxt[i + 1] ^= c
            nxt[i] ^= ctx.mul(c, root)
        coeffs = nxt
    mask = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise FieldError("minimal polynomial has coefficients outside GF(2)")
        mask |= c << i
    return mask


def bch_generator(ctx, design_distance):
    """Generator polynomial of the narrow-sense BCH code with the given designed distance.

    The least common multiple of the minimal polynomials of alpha^1 ..
    alpha^(design_distance - 1); conjugate exponents share a minimal
    polynomial, so each 2-power coset contributes one factor.
    """
    g = 1
    seen = set()
    for s in range(1, design_distance):
        coset = frozenset(_cyclotomic_coset(s, ctx.order))
        if coset in seen:
            continue
        seen.add(coset)
        g = _clmul(g, _minimal_polynomial(ctx, min(coset)))
    return g


@cache
def _bch_generator(m, d):
    """bch_generator over GF(2^m) at designed distance 2d - 1, built once per (m, d)."""
    return bch_generator(FieldContext(m), 2 * d - 1)


def bch_dimension(m, d):
    """Message bits of the parity-extended BCH code of length 2^m, designed distance 2d."""
    return (1 << m) - _bch_generator(m, d).bit_length()


def bch_extended_code(m, d, count):
    """The first ``count`` words of the narrow-sense BCH code with designed
    distance 2d-1, plus an overall parity bit.

    Length k = 2^m, dimension >= 2^m - 1 - (d-1)m, minimum distance >= 2d.
    The word of message j (an integer 0, 1, 2, ...) is j times the generator
    g as polynomials, extended by one parity bit in the rightmost position;
    the code is linear, so the words are written in message order from the
    words of messages 2^i, ``g << (i + 1) | parity(g)``.  No distance is
    recorded; ``min_distance`` computes it.
    """
    if not 2 <= m <= 16:
        raise FieldError(f"extension degree m = {m} outside the tabled range 2..16")
    if d < 2:
        raise DomainError(f"designed half-distance d must be >= 2, got {d}")
    if 2 * d - 1 > (1 << m) - 1:
        raise DomainError(f"designed distance {2 * d - 1} exceeds code length {(1 << m) - 1}")
    if count > WORD_CAP:
        raise SizeLimitExceeded(f"{count} words exceed the cap of {WORD_CAP}")
    g = _bch_generator(m, d)
    dim = bch_dimension(m, d)
    if not 0 <= count <= 1 << dim:
        raise DomainError(f"{count} words asked of a code of 2^{dim}")
    basis = [g << (i + 1) | g.bit_count() & 1 for i in range(dim)]
    return BinaryCode(1 << m, _span(basis, count),
                      method=f"extended-bch(m={m},d={d})")


def hadamard_code(m):
    """The 2^m columns of the order-2^m Sylvester-Hadamard matrix as words,
    its first row the leftmost bit and -1 read as 1.

    The columns of [[H, H], [H, -H]] are each column w of H followed by w,
    then each w followed by its complement.  So each doubling of the length
    L maps every basis word b to b << L | b and adds the word 2^L - 1, and
    the columns are the span of the basis in counting order.
    """
    if m < 1:
        raise DomainError(f"Hadamard code needs m >= 1, got {m}")
    if 1 << (2 * m) > ENTRY_CAP:
        raise SizeLimitExceeded(f"4^{m} entries exceed the cap of {ENTRY_CAP}")
    basis = []
    for i in range(m):
        size = 1 << i
        basis = [b << size | b for b in basis] + [(1 << size) - 1]
    return BinaryCode(1 << m, _span(basis, 1 << m), min_distance=1 << (m - 1),
                      method="hadamard")


def bch_field(n, lam):
    """(m, dim) of the smallest m in 2..16 whose extended BCH code at designed
    distance 2d - 1, d = ceil(lam / 2), has 2^dim >= n codewords."""
    d = (lam + 1) // 2
    for m in range(2, 17):
        if 2 * d - 1 <= (1 << m) - 1 and 1 << (dim := bch_dimension(m, d)) >= n:
            return m, dim
    raise NoConstruction(f"no tabled BCH field reaches n={n}, lam={lam}")


def even_weight_length(n):
    """Length ceil(log2 n) + 1 of the shortest even-weight code with n words."""
    return (n - 1).bit_length() + 1


def _even_weight(n, lam):
    if lam > 2:
        raise DomainError("even-weight constructions guarantee lambda = 2 only")
    return even_weight_code(even_weight_length(n))


def _extended_bch(n, lam):
    if lam < 3:
        raise DomainError("extended BCH here needs lam >= 3; use even-weight")
    m, _ = bch_field(n, lam)
    return bch_extended_code(m, (lam + 1) // 2, max(n, 2))


def _gv(n, lam):
    """The lexicode's first n words at the shortest length that holds them.
    The basis words below 2^k span the length-k lexicode, so that length is
    the first k >= max(log2 n, lam) reaching the largest of the n words.
    A length past the scan cap is refused before any table is built."""
    k = max((n - 1).bit_length(), lam, 1)
    count = (n - 1).bit_length()
    if (1 << k) <= SCAN_CAP:
        basis = _lexicode_basis(lam, count, SCAN_CAP.bit_length() - 1)
        if len(basis) == count:
            words = _span(basis, n)
            return BinaryCode(max(k, words[-1].bit_length()), words, method="gv")
    raise NoConstruction(f"greedy scan cap reached before n={n}, lam={lam}")


def _hadamard(n, lam):
    m = 1
    while (1 << m) < n or (1 << (m - 1)) < lam:
        m += 1
    return hadamard_code(m)


# Code family name -> build(n, lam), which returns a code of at least n words
# at pairwise distance at least lam, or raises DomainError or NoConstruction
# where the family does not apply.  cli._METHODS chooses between them.
FAMILIES = {
    "even-weight": _even_weight,
    "extended-bch": _extended_bch,
    "hadamard": _hadamard,
    "gv": _gv,
}


def build_code(method, n, lam):
    """Build the code of the named family for (n, lam)."""
    if method not in FAMILIES:
        raise DomainError(f"unknown construction method {method!r}")
    return FAMILIES[method](n, lam)

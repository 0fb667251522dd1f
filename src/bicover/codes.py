"""Binary error-correcting code constructions with exact distance checking.

Families: the even-weight code (distance 2), greedy lexicographic scans
meeting the Gilbert-Varshamov count, parity-extended narrow-sense BCH codes
over GF(2^m), and Sylvester-Hadamard matrices.  All constructions are
deterministic; distances are verified exhaustively whenever the configured
caps allow.

Codewords are stored as integers whose most significant bit is the leftmost
character of the word's text form, so numeric order equals lexicographic
order on the 0/1 strings.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .errors import (CapExceeded, DomainError, FieldError, NoConstruction,
                     ParseError, SizeLimitExceeded, TargetUnreached)

DEFAULT_WORD_CAP = 1 << 20    # max codewords an enumeration may produce
DEFAULT_PAIR_CAP = 1 << 24    # max pairwise distance checks
DEFAULT_SCAN_CAP = 1 << 22    # max word-space size a greedy scan may walk

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


def hamming_distance(a, b):
    return (a ^ b).bit_count()


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
        self.words = tuple(self.words)
        seen = set()
        for w in self.words:
            if not 0 <= w < (1 << self.length):
                raise DomainError(f"word {w!r} does not fit in {self.length} bits")
            if w in seen:
                raise DomainError(f"duplicate codeword {self.word_text(w)}")
            seen.add(w)

    def __len__(self):
        return len(self.words)

    def word_text(self, w):
        return format(w, f"0{self.length}b")

    def to_json(self):
        return json.dumps({
            "k": self.length,
            "words": [self.word_text(w) for w in self.words],
            "min_distance": self.min_distance,
            "method": self.method,
        })

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
        if not isinstance(obj, dict) or not {"k", "words"} <= set(obj):
            raise ParseError('code document needs at least the keys "k" and "words"')
        k = obj["k"]
        words = []
        for s in obj["words"]:
            if not isinstance(s, str) or len(s) != k or set(s) - {"0", "1"}:
                raise ParseError(f"codeword {s!r} is not a {k}-bit 0/1 string")
            words.append(int(s, 2))
        return cls(k, tuple(words), obj.get("min_distance"), obj.get("method", ""))


def min_distance(code, pair_cap=DEFAULT_PAIR_CAP):
    """Exact minimum pairwise Hamming distance; caches the result on the code.

    Codes of length at most 64 are checked one word against all later words
    per step on a uint64 array; longer codes fall back to Python ints.
    """
    if code.min_distance is not None:
        return code.min_distance
    words = code.words
    if len(words) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    pairs = len(words) * (len(words) - 1) // 2
    if pairs > pair_cap:
        raise CapExceeded(f"{pairs} pairs exceed the cap of {pair_cap}")
    if code.length <= 64:
        arr = np.array(words, dtype=np.uint64)
        rows = (np.bitwise_count(arr[i] ^ arr[i + 1:]).min()
                for i in range(len(arr) - 1))
    else:
        rows = (min((wi ^ wj).bit_count() for wj in words[i + 1:])
                for i, wi in enumerate(words[:-1]))
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


def even_weight_code(k, word_cap=DEFAULT_WORD_CAP):
    """All 2^(k-1) even-weight words of length k, in lexicographic order."""
    if k < 2:
        raise DomainError(f"even-weight code needs k >= 2, got {k}")
    if 1 << (k - 1) > word_cap:
        raise SizeLimitExceeded(f"2^{k - 1} words exceed the cap of {word_cap}")
    words = tuple(w for w in range(1 << k) if w.bit_count() % 2 == 0)
    return BinaryCode(k, words, min_distance=2, method="even-weight")


def greedy_gv_code(k, d, target, scan_cap=DEFAULT_SCAN_CAP,
                   pair_cap=DEFAULT_PAIR_CAP):
    """Greedy lexicographic code of length k and distance >= d.

    Scans all k-bit words in increasing order and keeps a word iff it is at
    distance >= d from everything kept so far, stopping once ``target``
    words are collected.  Kept words exclude exactly the radius-(d-1) balls
    around earlier picks, so the scan is implemented by marking those balls.
    The result always has at least min(target, ceil(2^k / V(k, d-1))) words,
    the Gilbert-Varshamov count.

    Raises TargetUnreached (carrying the achieved code) when the full scan
    ends short of ``target``.
    """
    if k < 1 or not 1 <= d <= k or target < 1:
        raise DomainError(f"invalid greedy scan parameters k={k}, d={d}, target={target}")
    if 1 << k > scan_cap:
        raise SizeLimitExceeded(f"scan space 2^{k} exceeds the cap of {scan_cap}")
    # The radius-(d-1) ball around 0, built bit by bit: position p adds a
    # copy, with bit p set, of every word so far that weighs less than d - 1.
    ball = np.zeros(1, dtype=np.int64)
    weight = np.zeros(1, dtype=np.int8)
    for p in range(k):
        light = weight < d - 1
        ball = np.concatenate((ball, ball[light] | (1 << p)))
        weight = np.concatenate((weight, weight[light] + 1))
    forbidden = bytearray(1 << k)
    marks = np.frombuffer(forbidden, dtype=np.uint8)
    words = []
    w = 0
    while w >= 0:
        words.append(w)
        if len(words) == target:
            break
        marks[ball ^ w] = 1
        w = forbidden.find(0, w + 1)
    code = BinaryCode(k, tuple(words), method="gv")
    if len(words) < target:
        raise TargetUnreached(
            f"greedy scan of length-{k} words at distance {d} stopped at "
            f"{len(words)} of {target}", achieved=len(words), code=code)
    if len(words) >= 2 and len(words) * (len(words) - 1) // 2 <= pair_cap:
        min_distance(code, pair_cap)
    return code


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
def bch_dimension(m, d):
    """Message bits of the parity-extended BCH code of length 2^m, designed distance 2d."""
    if d == 1:
        return (1 << m) - 1
    ctx = FieldContext(m)
    g = bch_generator(ctx, 2 * d - 1)
    return (1 << m) - 1 - (g.bit_length() - 1)


def bch_extended_code(m, d, target=None, word_cap=DEFAULT_WORD_CAP,
                      pair_cap=DEFAULT_PAIR_CAP):
    """Narrow-sense BCH code with designed distance 2d-1, plus an overall parity bit.

    Length k = 2^m, dimension >= 2^m - 1 - (d-1)m, minimum distance >= 2d.
    Codewords are message polynomials times the generator, enumerated in
    message order (message = integer 0, 1, 2, ...), each extended by one
    parity bit in the rightmost position.  When the full codebook fits the
    word cap it is enumerated completely and the exact minimum distance is
    recorded (equal to the minimum nonzero weight, the code being linear);
    otherwise the first ``target`` codewords by message order are emitted.
    """
    if not 2 <= m <= 16:
        raise FieldError(f"extension degree m = {m} outside the tabled range 2..16")
    if d < 2:
        raise DomainError(f"designed half-distance d must be >= 2, got {d}")
    if 2 * d - 1 > (1 << m) - 1:
        raise DomainError(f"designed distance {2 * d - 1} exceeds code length {(1 << m) - 1}")
    ctx = FieldContext(m)
    g = bch_generator(ctx, 2 * d - 1)
    dim = (1 << m) - 1 - (g.bit_length() - 1)
    total = 1 << dim
    if total <= word_cap:
        count = total
        complete = True
    elif target is not None and target <= word_cap:
        count = target
        complete = False
    else:
        raise CapExceeded(
            f"2^{dim} codewords exceed the cap of {word_cap}; pass a target")
    words = []
    for msg in range(count):
        c = _clmul(msg, g)
        words.append((c << 1) | (c.bit_count() & 1))
    code = BinaryCode(1 << m, tuple(words), method=f"extended-bch(m={m},d={d})")
    if complete and len(words) >= 2:
        code.min_distance = min(w.bit_count() for w in words[1:])
    elif len(words) >= 2 and len(words) * (len(words) - 1) // 2 <= pair_cap:
        min_distance(code, pair_cap)
    return code


def sylvester_matrix(m, entry_cap=1 << 24):
    """Order-2^m Hadamard matrix from m-fold tensoring of [[1, 1], [1, -1]].

    The first row is all ones; every later row is balanced between +1 and -1.
    """
    if m < 1:
        raise DomainError(f"tensor exponent must be >= 1, got {m}")
    if 1 << (2 * m) > entry_cap:
        raise SizeLimitExceeded(f"4^{m} entries exceed the cap of {entry_cap}")
    base = np.array([[1, 1], [1, -1]], dtype=np.int8)
    h = np.array([[1]], dtype=np.int8)
    for _ in range(m):
        h = np.kron(h, base)
    return h


def hadamard_code(m):
    """The 2^m columns of the order-2^m Sylvester matrix as words (-1 read as 1)."""
    bits = np.packbits(sylvester_matrix(m).T == -1, axis=1)
    pad = 8 * bits.shape[1] - (1 << m)  # packbits fills the last byte from the left
    words = tuple(int.from_bytes(row.tobytes(), "big") >> pad for row in bits)
    return BinaryCode(1 << m, words, min_distance=1 << (m - 1), method="hadamard")


def bch_field(n, lam):
    """(m, dim) of the smallest m in 2..16 whose extended BCH code at designed
    distance 2d - 1, d = ceil(lam / 2), has 2^dim >= n codewords."""
    d = (lam + 1) // 2
    for m in range(2, 17):
        if 2 * d - 1 <= (1 << m) - 1 and 1 << (dim := bch_dimension(m, d)) >= n:
            return m, dim
    raise NoConstruction(f"no tabled BCH field reaches n={n}, lam={lam}")


def _even_weight(n, lam, k_max=None):
    if lam > 2:
        raise DomainError("even-weight constructions guarantee lambda = 2 only")
    k = (n - 1).bit_length() + 1
    return k, lambda: even_weight_code(k)


def _repetition(n, lam, k_max=None):
    if n != 2:
        raise DomainError("repetition codes only serve n = 2")
    return lam, lambda: BinaryCode(lam, (0, (1 << lam) - 1), lam, "repetition")


def _extended_bch(n, lam, k_max=None):
    if lam < 3:
        raise DomainError("extended BCH here needs lam >= 3; use even-weight")
    m, _ = bch_field(n, lam)
    return 1 << m, lambda: bch_extended_code(m, (lam + 1) // 2, target=max(n, 2))


def _gv(n, lam, k_max=None):
    """The shortest length (up to k_max) whose greedy scan reaches n words.
    Lengths with 2^k < n * V(k, floor((lam-1)/2)) are skipped: by the
    sphere-packing bound no code of that length holds n words."""
    k = max((n - 1).bit_length(), lam, 1)
    while (1 << k) < n * ball_volume(k, (lam - 1) // 2):
        k += 1
    while (1 << k) <= DEFAULT_SCAN_CAP and (k_max is None or k <= k_max):
        try:
            code = greedy_gv_code(k, lam, n)
            return k, lambda: code
        except TargetUnreached:
            k += 1
    raise NoConstruction(f"greedy scan cap reached before n={n}, lam={lam}")


def _hadamard(n, lam, k_max=None):
    m = 1
    while (1 << m) < n or (1 << (m - 1)) < lam:
        m += 1
    return 1 << m, lambda: hadamard_code(m)


def _hadamard_guarantee(n, lam):
    if n & (n - 1):
        raise DomainError(f"hadamard construction needs n a power of 2, got {n}")
    if lam > n // 2:
        raise DomainError(f"hadamard covering of {n} vertices guarantees lambda = {n // 2}")
    return n // 2


@dataclass(frozen=True)
class Family:
    """A code family: ``plan(n, lam, k_max)`` is (length, build) for n words at
    distance lam, build() giving the code, and raises DomainError or
    NoConstruction where the family does not apply (only a plan that
    ``scans`` reads ``k_max``).  ``construct --method <method>`` promises
    ``guarantee(n, lam)``, raising where it refuses, and reports ``params``."""

    method: str | None
    plan: Callable
    guarantee: Callable
    params: Callable = lambda code: {"k": code.length, "words": len(code)}
    scans: bool = False


# The construction table, in tie-break priority order.
FAMILIES = {
    "even-weight": Family("even-weight", _even_weight, lambda n, lam: 2),
    "repetition": Family(None, _repetition, lambda n, lam: lam),
    "extended-bch": Family(
        "bch", _extended_bch, lambda n, lam: 2 * ((lam + 1) // 2),
        lambda code: {"k": code.length, "words": len(code), "method": code.method}),
    "gv": Family("gv", _gv, lambda n, lam: lam, scans=True),
    "hadamard": Family("hadamard", _hadamard, _hadamard_guarantee,
                       lambda code: {"m": code.length.bit_length() - 1}),
}


def k_best(n, lam):
    """Smallest code length any implemented family certifies for (n, lam).

    Returns (k, method): the family gives n codewords of length k at pairwise
    distance >= lam, an upper bound on the optimum.  Ties go to the earlier
    entry of FAMILIES; the greedy scan runs last, only below the others.
    """
    if n < 2 or lam < 1:
        raise DomainError(f"need n >= 2 and lam >= 1, got n={n}, lam={lam}")
    best = None
    for name, fam in sorted(FAMILIES.items(), key=lambda item: item[1].scans):
        try:
            k, _ = fam.plan(n, lam, None if best is None else best[0] - 1)
        except (DomainError, NoConstruction):
            continue
        if best is None or k < best[0]:
            best = (k, name)
    return best


def build_code(method, n, lam):
    """Materialize a code for (n, lam) by family name, as chosen by k_best."""
    if method not in FAMILIES:
        raise DomainError(f"unknown construction method {method!r}")
    return FAMILIES[method].plan(n, lam)[1]()

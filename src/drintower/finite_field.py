"""Exact arithmetic in small finite fields GF(p^m).

An element of GF(p^m) is its integer encoding n = sum(c_i * p^i) of
the coefficients (c0, c1, ..., c_{m-1}) of 1, x, ..., x^{m-1} in the
power basis of a root of a fixed monic irreducible modulus; the array
paths use the same encoding.  FieldElement.coeffs decodes the base-p
digits for the linear algebra that needs them.  Everything is exact
integer arithmetic; there are no floating point paths.

Conventions that downstream code and the serialization formats rely on:

* enumeration order is by the integer encoding sum(c_i * p^i), so 0
  comes first and the prime-subfield constants come before anything
  with a nonzero higher coefficient;
* when no modulus is supplied, the lexicographically first monic
  irreducible of the requested degree is chosen (first in the integer
  encoding above), so serialized elements are reproducible;
* subfield embeddings map the source power-basis root to the first
  root of the source modulus in enumeration order of the target.

Field sizes are capped (default 2**24) at construction time.  The cap
exists so that full enumeration stays feasible where the library uses
it; kernel and preimage computations elsewhere go through GF(p) linear
algebra and never enumerate large fields.

Discrete-log tables.  A field can carry exp/log tables: two int32
numpy arrays indexed by the integer encoding, exp[i] = g^i for a
primitive g and log[exp[i]] = i.  They cost 8 bytes per element, so
TABLE_BUDGET = 2**24 elements is 128 MB.  Constructing a field builds
no table and does not import numpy.  Tables are built on first need,
in any field of at most TABLE_BUDGET elements: by the first scalar
product, inverse or power, or by the whole-field array walks of the
tower and counting modules; a walk over a larger field raises
CapExceededError before allocating.  Scalar operations past the budget
take the schoolbook path: products and powers of digit tuples in
GF(p)[x] modulo the modulus (_pmul, _pmod, _ppowmod), the polynomial
arithmetic that the Rabin test and the Euclid inverse use too.  It
stays the reference the table path is tested against (results are
bit-identical).  The matrices of multiplication and of the Frobenius
powers come from one column builder on the same products, and an
evaluation matrix (linearized) from those products on Frobenius
columns, with no matrix product, so building a solver never builds
tables by itself.

The array helpers below work on numpy arrays of integer encodings:
multiplicative monomials through the tables, addition digit by digit
(XOR for p = 2), and GF(p)-linear maps, among them GFpSolver over many
right-hand sides at once, on base-p digit matrices processed in
bounded chunks (for p = 2, by 256-entry tables per 8-bit slice).
Element text for arrays comes from two byte tables over the low and
high halves of the digits (FieldSpec.text_tables).
"""

from __future__ import annotations

import functools
import weakref
from typing import Iterator, Optional, Sequence

DEFAULT_CAP = 2**24
TABLE_BUDGET = 2**24
# entries per block of every field-sized array pass (see _chunks)
_CHUNK = 2**14


class CapExceededError(RuntimeError):
    """A requested field would exceed the configured size cap."""


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists are little-endian ints
# ---------------------------------------------------------------------------

def _ptrim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            j = i
            for bj in b:
                out[j] = (out[j] + ai * bj) % p
                j += 1
    return _ptrim(out)


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list:
    # f must be monic; each step subtracts only its nonzero lower terms
    r = list(a)
    df = len(f) - 1
    if len(r) > df:
        low = [j for j in range(df) if f[j]]
        for top in range(len(r) - 1, df - 1, -1):
            c = r[top]
            if c:
                shift = top - df
                for j in low:
                    r[shift + j] = (r[shift + j] - c * f[j]) % p
        del r[df:]
    return _ptrim(r)


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _pdivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(r) - 1 >= db and r:
        c = (r[-1] * inv) % p
        shift = len(r) - 1 - db
        if c:
            q[shift] = c
            for j, bj in enumerate(b):
                r[shift + j] = (r[shift + j] - c * bj) % p
        r.pop()
        _ptrim(r)
    return _ptrim(q), _ptrim(r)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list:
    a, b = list(a), list(b)
    while b:
        # make b monic before reducing so _pmod stays valid
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = bm, _pmod(a, bm, p)
    return a


def _ppowmod(g: Sequence[int], e: int, f: Sequence[int], p: int) -> list:
    """g^e mod the monic polynomial f, for e >= 0."""
    result = [1]
    base = list(g)
    while True:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        e >>= 1
        if not e:
            return result
        base = _pmod(_pmul(base, base, p), f, p)


def _p_power_x(k: int, f: Sequence[int], p: int) -> list:
    """x^(p^k) reduced mod the monic polynomial f."""
    g = _pmod([0, 1], f, p)
    for _ in range(k):
        g = _ppowmod(g, p, f, p)
    return g


def _is_prime(n: int) -> bool:
    return _prime_divisors(n) == [n]


def _prime_divisors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin test for a monic polynomial over GF(p)."""
    f = [c % p for c in coeffs]
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if m == 1:
        return True
    x_poly = _pmod([0, 1], f, p)
    if _psub(_p_power_x(m, f, p), x_poly, p):
        return False
    for r in _prime_divisors(m):
        d = _psub(_p_power_x(m // r, f, p), x_poly, p)
        if not d or len(_pgcd(f, d, p)) > 1:
            return False
    return True


# Lexicographically first irreducible moduli, encoded as sum(c_i * p^i)
# including the leading term.  Generated by the search in
# first_irreducible() and frozen here so large-degree fields skip the
# search; a unit test re-derives the small entries from scratch.
_LEX_FIRST: dict = {
    (2, 1): 2, (2, 2): 7, (2, 3): 11, (2, 4): 19, (2, 5): 37, (2, 6): 67,
    (2, 7): 131, (2, 8): 283, (2, 9): 515, (2, 10): 1033, (2, 11): 2053,
    (2, 12): 4105, (2, 13): 8219, (2, 14): 16417, (2, 15): 32771,
    (2, 16): 65579, (2, 17): 131081, (2, 18): 262153, (2, 19): 524327,
    (2, 20): 1048585, (2, 21): 2097157, (2, 22): 4194307, (2, 23): 8388641,
    (2, 24): 16777243, (2, 25): 33554441, (2, 26): 67108891,
    (2, 27): 134217767, (2, 28): 268435459, (2, 29): 536870917,
    (2, 30): 1073741827, (2, 31): 2147483657, (2, 32): 4294967437,
    (3, 1): 3, (3, 2): 10, (3, 3): 34, (3, 4): 86, (3, 5): 250,
    (3, 6): 734, (3, 7): 2198, (3, 8): 6572, (3, 9): 19747, (3, 10): 59068,
    (3, 11): 177158, (3, 12): 531452, (3, 13): 1594330, (3, 14): 4782974,
    (3, 15): 14348918, (3, 16): 43046758, (3, 17): 129140170,
    (3, 18): 387420523, (3, 19): 1162261478, (3, 20): 3486784435,
    (3, 21): 10460353234, (3, 22): 31381059646, (3, 23): 94143178858,
    (3, 24): 282429536564, (3, 25): 847288609498, (3, 26): 2541865828348,
    (3, 27): 7625597485274, (3, 28): 22876792454972,
    (3, 29): 68630377364966, (3, 30): 205891132094654,
    (3, 31): 617673396283978, (3, 32): 1853020188851893, (5, 1): 5,
    (5, 2): 27, (5, 3): 131, (5, 4): 627, (5, 5): 3146, (5, 6): 15632,
    (5, 7): 78131, (5, 8): 390627, (7, 1): 7, (7, 2): 50, (7, 3): 345,
    (7, 4): 2409,
}


def _unpack(n: int, p: int, width: int) -> tuple:
    """The first width base-p digits of n, lowest first."""
    out = []
    for _ in range(width):
        n, c = divmod(n, p)
        out.append(c)
    return tuple(out)


def first_irreducible(p: int, m: int) -> tuple:
    """Lexicographically first monic irreducible of degree m over GF(p)."""
    enc = _LEX_FIRST.get((p, m))
    if enc is not None:
        return _unpack(enc, p, m + 1)
    lead = p**m
    for low in range(lead):
        cand = _unpack(low + lead, p, m + 1)
        if is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def prime_power(q: int) -> Optional[tuple]:
    """(p, r) with q = p^r, or None when q is not a prime power."""
    if q < 2:
        return None
    ds = _prime_divisors(q)
    if len(ds) != 1:
        return None
    p = ds[0]
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    return (p, r) if q == 1 else None


def _encode(coeffs: Sequence[int], p: int) -> int:
    """The integer encoding sum(c_i * p^i) of a base-p digit vector."""
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def _digits(vals, p: int, width: int):
    """Base-p digit matrix (len(vals), width) of an int64 array."""
    import numpy as np
    return vals[:, None] // p ** np.arange(width, dtype=np.int64) % p


def _chunks(length: int):
    """Slices of at most _CHUNK indices covering range(length) in order,
    the last one clipped at length, so start and stop are exact bounds.
    A pass over them holds temporaries, such as a digit matrix, the size
    of one block."""
    return (slice(lo, min(lo + _CHUNK, length))
            for lo in range(0, length, _CHUNK))


def _halves(p: int, m: int) -> tuple:
    """(base, low, high) for splitting an encoding n into n % base and
    n // base: low and high list the digit tuples of the two halves, so
    the coefficients of n are low[n % base] + high[n // base]."""
    h = (m + 1) // 2
    return (p**h, [_unpack(n, p, h) for n in range(p**h)],
            [_unpack(n, p, m - h) for n in range(p**(m - h))])


def _byte_table(texts: list):
    """uint8 matrix holding one ASCII text per row, NUL-padded on the
    right to the longest."""
    import numpy as np
    width = max(map(len, texts))
    table = np.array([t.encode() for t in texts], dtype=f"S{max(width, 1)}")
    return table.view(np.uint8).reshape(len(texts), -1)[:, :width]


def gfp_apply(mat, p: int, vals):
    """mat @ v over GF(p) for every v in vals.

    Vectors are in the integer encoding: vals holds len(mat[0])-digit
    inputs and the result len(mat)-digit outputs.
    """
    import numpy as np
    vals = np.asarray(vals, dtype=np.int64)
    mat = np.asarray(mat, dtype=np.int64) % p
    weights = p ** np.arange(mat.shape[0], dtype=np.int64)
    if p == 2:
        # XOR of the images of each 8-bit slice of the input, looked up
        # in a 256-entry table per slice
        images = weights @ mat
        out = np.zeros(len(vals), dtype=np.int64)
        for lo in range(0, mat.shape[1], 8):
            table = np.zeros(1, dtype=np.int64)
            for image in images[lo:lo + 8]:
                table = np.concatenate([table, table ^ image])
            out ^= table[(vals >> lo) & (len(table) - 1)]
        return out
    out = np.empty(len(vals), dtype=np.int64)
    for rows in _chunks(len(vals)):
        out[rows] = _digits(vals[rows], p, mat.shape[1]) @ mat.T % p @ weights
    return out


# ---------------------------------------------------------------------------
# field specs and elements
# ---------------------------------------------------------------------------

def make_field(p: int, m: int, modulus: Optional[Sequence[int]] = None,
               cap: int = DEFAULT_CAP) -> "FieldSpec":
    """Build a validated GF(p^m) spec, or return the one already alive
    for the same p, m and modulus (the last 16 are kept alive).

    With modulus omitted the deterministic lexicographically first monic
    irreducible of degree m is used.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    # before the primality test, whose trial division is slow for large
    # p; 2^m > cap for m >= cap.bit_length(), without computing p^m
    if p >= 2 and (m >= cap.bit_length() or p**m > cap):
        raise CapExceededError(
            f"field size {p}^{m} exceeds the cap {cap}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if modulus is None:
        mod = first_irreducible(p, m)
    else:
        mod = tuple(int(c) % p for c in modulus)
    return _field(p, m, mod)


# every spec still alive, so that a key has one spec, and one set of
# tables, even after _field has dropped it while another cache keeps it
_live_specs: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


# bounded, as a spec keeps its exp/log tables: up to 128 MB each
@functools.lru_cache(maxsize=16)
def _field(p: int, m: int, modulus: tuple) -> "FieldSpec":
    spec = _live_specs.get((p, m, modulus))
    if spec is None:
        spec = _live_specs[p, m, modulus] = FieldSpec(p, m, modulus)
    return spec


class FieldSpec:
    """Immutable description of GF(p^m) with a fixed monic modulus."""

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not is_irreducible(modulus, p):
            raise ValueError(
                f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.size = p**m
        self._frob_cache: dict = {}
        # exp/log tables (numpy int32), built together by _build_tables
        self._exp = None
        self._log = None

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.modulus)
            == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.m}))"

    def serialize(self) -> str:
        return f"{self.p}^{self.m}/" + ",".join(str(c) for c in self.modulus)

    @staticmethod
    def parse(text: str, cap: int = DEFAULT_CAP) -> "FieldSpec":
        head, _, tail = text.partition("/")
        ps, _, ms = head.partition("^")
        mod = tuple(int(c) for c in tail.split(",")) if tail else None
        return make_field(int(ps), int(ms) if ms else 1, mod, cap=cap)

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) != self.m:
            raise ValueError(f"need {self.m} coefficients, got {len(cs)}")
        return FieldElement(self, _encode(cs, self.p))

    def constant(self, c: int) -> "FieldElement":
        """Image of the integer c under the prime-subfield embedding."""
        return FieldElement(self, c % self.p)

    def zero(self) -> "FieldElement":
        return self.constant(0)

    def one(self) -> "FieldElement":
        return self.constant(1)

    def from_int(self, n: int) -> "FieldElement":
        """Inverse of FieldElement.to_int, the enumeration index."""
        if not 0 <= n < self.size:
            raise ValueError("index out of range")
        return FieldElement(self, n)

    def elements(self) -> Iterator["FieldElement"]:
        """All p^m elements exactly once, in enumeration order."""
        for n in range(self.size):
            yield FieldElement(self, n)

    def nonzero_elements(self) -> Iterator["FieldElement"]:
        for n in range(1, self.size):
            yield FieldElement(self, n)

    def random_element(self, rng) -> "FieldElement":
        return self.from_int(rng.randrange(self.size))

    def random_nonzero(self, rng) -> "FieldElement":
        return self.from_int(rng.randrange(1, self.size))

    # -- internal arithmetic -------------------------------------------------
    # _add, _mul and _inv work on integer encodings; _mul_generic and
    # _pow_generic are the GF(p)[x] helpers' product and power mod the
    # modulus, as m digits: the schoolbook reference

    def _add(self, a: int, b: int, sign: int = 1) -> int:
        """Encoding of a + sign * b: XOR for p = 2, else digit by digit."""
        p = self.p
        if p == 2:
            return a ^ b
        out, w = 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da + sign * db) % p * w
            w *= p
        return out

    def _mul_generic(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        return self._pad(_pmod(_pmul(a, b, self.p), self.modulus, self.p))

    def _pow_generic(self, a: Sequence[int], n: int) -> tuple:
        return self._pad(_ppowmod(a, n, self.modulus, self.p))

    def _pad(self, poly: list) -> tuple:
        """The m digits of a reduced polynomial."""
        return tuple(poly) + (0,) * (self.m - len(poly))

    def _build_tables(self) -> None:
        """exp/log tables by block doubling: exp[b:2b] = g^b * exp[0:b].

        Multiplying by the constant g^b is a GF(p)-linear map, so each
        block is one matrix product on base-p digits, and the matrix of
        g^(2b) is the square of the matrix of g^b.  Blocks are written,
        and log is filled and checked, one _chunks block at a time.
        """
        if self.size > TABLE_BUDGET:
            raise CapExceededError(
                f"field size {self.p}^{self.m} exceeds the table budget "
                f"{TABLE_BUDGET}")
        import numpy as np
        p, m = self.p, self.m
        order = self.size - 1
        one = self.one().coeffs
        divisors = _prime_divisors(order)
        gen = next(g for g in (FieldElement(self, n)
                               for n in range(order, 0, -1))
                   if all(self._pow_generic(g.coeffs, order // f) != one
                          for f in divisors))
        exp = np.empty(order, dtype=np.int32)
        exp[0] = 1
        step = np.array(self.multiplication_matrix(gen), dtype=np.int64)
        b = 1
        while b < order:
            k = min(b, order - b)
            for rows in _chunks(k):
                exp[b:][rows] = gfp_apply(step, p, exp[rows])
            step = step @ step % p
            b *= 2
        log = np.zeros(self.size, dtype=np.int32)
        for rows in _chunks(order):
            log[exp[rows]] = np.arange(rows.start, rows.stop, dtype=np.int32)
        # every nonzero element exactly once, and g^order = 1
        last = _unpack(exp.item(-1), p, m)
        if exp.min() < 1 or not all(
                np.array_equal(log[exp[rows]],
                               np.arange(rows.start, rows.stop))
                for rows in _chunks(order)) \
                or self._mul_generic(last, gen.coeffs) != one:
            raise RuntimeError("discrete-log tables are not a bijection")
        self._log = log
        self._exp = exp

    def _has_tables(self) -> bool:
        """Whether scalar operations use the tables; the first one in a
        field of at most TABLE_BUDGET elements builds them."""
        if self._exp is None and self.size <= TABLE_BUDGET:
            self._build_tables()
        return self._exp is not None

    def _mul(self, a: int, b: int) -> int:
        if self._exp is None and not self._has_tables():
            p, m = self.p, self.m
            return _encode(self._mul_generic(_unpack(a, p, m),
                                             _unpack(b, p, m)), p)
        if not (a and b):
            return 0
        return self._exp.item((self._log.item(a) + self._log.item(b))
                              % (self.size - 1))

    def _inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("division by zero in " + repr(self))
        if self._exp is not None or self._has_tables():
            return self._exp.item(-self._log.item(a) % (self.size - 1))
        p = self.p
        # extended Euclid in GF(p)[x] against the modulus
        r0, r1 = list(self.modulus), _ptrim(list(_unpack(a, p, self.m)))
        s0, s1 = [], [1]
        while r1:
            q, rem = _pdivmod(r0, r1, p)
            qs1 = _pmul(q, s1, p)
            snew = _psub(s0, qs1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, snew
        # r0 = gcd, a nonzero constant since the modulus is irreducible
        lead_inv = pow(r0[-1], p - 2, p)
        s0 = _pmod([(c * lead_inv) % p for c in s0], list(self.modulus), p)
        return _encode(s0, p)

    # -- whole-field arrays of integer encodings ------------------------------

    def tables(self) -> tuple:
        """(exp, log) as int32 numpy arrays, built on first use.

        Raises CapExceededError, before allocating, when the field has
        more than TABLE_BUDGET elements.
        """
        if self._exp is None:
            self._build_tables()
        return self._exp, self._log

    def power_product(self, *factors):
        """Elementwise product of a_i ** e_i over factors (a_i, e_i).

        Each a_i is an array of integer encodings, of one shape (after
        the first, a single encoding also does).  Where a factor with
        e_i > 0 is zero the product is zero; a zero factor with e_i < 0
        raises ZeroDivisionError.  The exponent sum is taken mod |F| - 1
        in one int64 array, and the zero mask is built only for factors
        that hold a zero.
        """
        import numpy as np
        exp, log = self.tables()
        order = self.size - 1
        k = zero = None
        for vals, e in factors:
            vals = np.asarray(vals)
            if not vals.all():
                if e < 0:
                    raise ZeroDivisionError(
                        "division by zero in " + repr(self))
                if e > 0:
                    zero = vals == 0 if zero is None else zero | (vals == 0)
            term = log[vals].astype(np.int64)
            term *= e % order
            if k is None:
                k = term
            else:
                k += term
        k %= order
        k[...] = exp[k]
        if zero is not None:
            k[zero] = 0
        return k

    def add_ints(self, a, b):
        """Elementwise sum of two equal-length arrays of encodings."""
        import numpy as np
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        p, m = self.p, self.m
        weights = p ** np.arange(m, dtype=np.int64)
        out = np.empty(len(a), dtype=np.int64)
        for rows in _chunks(len(a)):
            out[rows] = (_digits(a[rows], p, m)
                         + _digits(b[rows], p, m)) % p @ weights
        return out

    def elements_at(self, vals) -> list:
        """FieldElements for an array of encodings."""
        import numpy as np
        return [FieldElement(self, n)
                for n in np.asarray(vals, dtype=np.int64).tolist()]

    def check_ints(self, vals):
        """vals as an int64 array; raises ValueError unless every value
        is an encoding of this field, 0 <= n < size."""
        import numpy as np
        vals = np.asarray(vals, dtype=np.int64)
        if len(vals) and not (vals.min() >= 0 and vals.max() < self.size):
            raise ValueError("encoding out of range")
        return vals

    def text_tables(self) -> tuple:
        """(base, low, high): FieldElement.serialize as two byte tables.

        An encoding n splits as in _halves into n % base and n // base.
        Row n % base of low holds the text of the low digits ("c0,c1")
        and row n // base of high that of the high digits (",c2,c3"),
        so the text of n is the two rows joined.  Both are uint8
        matrices with rows NUL-padded on the right; padding occurs only
        where digits differ in length, that is when p > 10.
        """
        base, low, high = _halves(self.p, self.m)
        return (base,
                _byte_table([",".join(map(str, cs)) for cs in low]),
                _byte_table(["".join("," + str(c) for c in cs)
                             for cs in high]))

    def serialize_ints(self, vals) -> list:
        """FieldElement.serialize of each encoding in vals; raises
        ValueError as check_ints does."""
        return [FieldElement(self, n).serialize()
                for n in self.check_ints(vals).tolist()]

    # -- GF(p)-linear structure ----------------------------------------------

    def frobenius_matrix(self, k: int) -> list:
        """Matrix of x -> x^(p^k) on the power basis (columns are images)."""
        k %= self.m
        mat = self._frob_cache.get(k)
        if mat is None:
            mat = self._frob_cache[k] = self._columns(
                self.one().coeffs, _p_power_x(k, self.modulus, self.p))
        return mat

    def multiplication_matrix(self, a: "FieldElement") -> list:
        """Matrix of y -> a*y on the power basis (columns are images)."""
        return self._columns(a.coeffs, [0, 1])

    def _columns(self, first: tuple, step: Sequence[int]) -> list:
        """The m x m matrix whose column j holds the digits of
        first * step^j: the images of the basis x^j under y -> first*y
        when step is x, under the p^k-power map when first is 1 and
        step is x^(p^k).  Schoolbook products, so the table builder can
        call it."""
        cols = [first]
        for _ in range(self.m - 1):
            cols.append(self._mul_generic(cols[-1], step))
        return [list(row) for row in zip(*cols)]


class FieldElement:
    """An element of a FieldSpec, held as its integer encoding n; a
    small immutable value."""

    __slots__ = ("spec", "n")

    def __init__(self, spec: FieldSpec, n: int):
        self.spec = spec
        self.n = n

    @property
    def coeffs(self) -> tuple:
        """The base-p digits of the encoding, (c0, ..., c_{m-1})."""
        return _unpack(self.n, self.spec.p, self.spec.m)

    # -- housekeeping ---------------------------------------------------------

    def __repr__(self):
        return f"GF({self.spec.p}^{self.spec.m})({self.serialize()})"

    def serialize(self) -> str:
        return ",".join(map(str, self.coeffs))

    @staticmethod
    def parse(spec: FieldSpec, text: str) -> "FieldElement":
        return spec.element([int(c) for c in text.split(",")])

    def to_int(self) -> int:
        return self.n

    def __hash__(self):
        return hash((self.spec, self.n))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.n == other.n
        if isinstance(other, int):
            return self.n == other % self.spec.p
        return NotImplemented

    def __bool__(self):
        return self.n != 0

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError(
                    f"elements of {self.spec!r} and {other.spec!r} "
                    "cannot be combined; embed first")
            return other
        if isinstance(other, int):
            return self.spec.constant(other)
        return None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec._add(self.n, o.n))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.spec, self.spec._add(0, self.n, -1))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec._add(self.n, o.n, -1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec._mul(self.n, o.n))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._inv(self.n))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        spec = self.spec
        if spec._exp is not None or spec._has_tables():
            if not self.n:
                if k == 0:
                    return spec.one()
                if k < 0:
                    raise ZeroDivisionError(
                        "negative power of zero in " + repr(spec))
                return self
            return FieldElement(spec, spec._exp.item(
                spec._log.item(self.n) * k % (spec.size - 1)))
        if k < 0:
            return self.inverse() ** (-k)
        return FieldElement(spec, _encode(
            spec._pow_generic(self.coeffs, k), spec.p))

    def frobenius(self, q: int, e: int = 1) -> "FieldElement":
        """a^(q^e) for q a power of the characteristic."""
        p = self.spec.p
        r = q
        while r >= p and r % p == 0:
            r //= p
        if r != 1 or q < p:
            raise ValueError(f"{q} is not a power of {p}")
        return self ** q**e


# ---------------------------------------------------------------------------
# embeddings and subfields
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _embedding_powers(source: FieldSpec, target: FieldSpec) -> tuple:
    """Digit tuples of the powers (r^0, ..., r^{m-1}) of the root r of
    source.modulus in target that comes first in enumeration order.

    Schoolbook products, so embedding builds no table in target.
    """
    if source.p != target.p or target.m % source.m:
        raise ValueError(
            f"no embedding of {source!r} into {target!r}")
    p = target.p
    for y in subfield_elements(target, source.size):
        powers = [target.one().coeffs]
        for _ in range(source.m):
            powers.append(target._mul_generic(powers[-1], y.coeffs))
        if not any(sum(c * pw[j] for c, pw in zip(source.modulus, powers))
                   % p for j in range(target.m)):
            return tuple(powers[:-1])
    raise RuntimeError("source modulus has no root in target")


def embed(a: FieldElement, target: FieldSpec) -> FieldElement:
    """Ring-homomorphic image of a in an extension field."""
    if a.spec == target:
        return a
    powers = _embedding_powers(a.spec, target)
    p, cs = target.p, a.coeffs
    return FieldElement(target, _encode(
        [sum(c * x for c, x in zip(cs, row)) % p for row in zip(*powers)],
        p))


@functools.lru_cache(maxsize=16)
def _embedding_section(source: FieldSpec, target: FieldSpec) -> dict:
    return {embed(y, target).n: y for y in source.elements()}


def project(a: FieldElement, target: FieldSpec) -> FieldElement:
    """Inverse of embed for values that lie in the embedded subfield."""
    sec = _embedding_section(target, a.spec)
    try:
        return sec[a.n]
    except KeyError:
        raise ValueError(f"{a!r} is not in the embedded copy of {target!r}")


@functools.lru_cache(maxsize=64)
def subfield_elements(spec: FieldSpec, q: int) -> tuple:
    """All x in the field with x^q = x, sorted in enumeration order.

    This is the unique subfield of size q, computed as the fixed space
    of the q-power Frobenius by GF(p) linear algebra, so it works for
    fields far too large to enumerate.
    """
    pr = prime_power(q)
    if pr is None or pr[0] != spec.p or spec.m % pr[1]:
        raise ValueError(f"GF({q}) is not a subfield of {spec!r}")
    mat = [row[:] for row in spec.frobenius_matrix(pr[1])]
    for i in range(spec.m):
        mat[i][i] = (mat[i][i] - 1) % spec.p
    out = tuple(FieldElement(spec, n)
                for n in sorted(GFpSolver(mat, spec.p).nullspace_ints()))
    if len(out) != q:
        raise RuntimeError("subfield solve returned a wrong-size space")
    return out


def trace_to_subfield(a: FieldElement, sub: FieldSpec) -> FieldElement:
    """Trace a + a^q of an element of the quadratic extension of sub."""
    q = sub.size
    if a.spec.p != sub.p or a.spec.m != 2 * sub.m:
        raise ValueError(
            f"{a.spec!r} is not a quadratic extension of {sub!r}")
    r = a + a.frobenius(q)
    if r.frobenius(q) != r:
        raise RuntimeError("trace did not land in the subfield")
    return project(r, sub)


# ---------------------------------------------------------------------------
# linear algebra over GF(p)
# ---------------------------------------------------------------------------

class GFpSolver:
    """Repeated-right-hand-side solver for A x = b over GF(p)."""

    def __init__(self, mat: list, p: int):
        self.p = p
        n = len(mat)
        ncols = len(mat[0]) if mat else 0
        self.ncols = ncols
        aug = [mat[i][:] + [1 if j == i else 0 for j in range(n)]
               for i in range(n)]
        pivots = []
        rank = 0
        for col in range(ncols):
            pivot = None
            for r in range(rank, n):
                if aug[r][col]:
                    pivot = r
                    break
            if pivot is None:
                continue
            aug[rank], aug[pivot] = aug[pivot], aug[rank]
            inv = pow(aug[rank][col], p - 2, p)
            aug[rank] = [(x * inv) % p for x in aug[rank]]
            for r in range(n):
                if r != rank and aug[r][col]:
                    c = aug[r][col]
                    aug[r] = [(x - c * y) % p
                              for x, y in zip(aug[r], aug[rank])]
            pivots.append(col)
            rank += 1
        self.rank = rank
        self.pivots = pivots
        self.reduced = [row[:ncols] for row in aug]
        self.transform = [row[ncols:] for row in aug]
        # null-space basis off the reduced rows: one vector per free column
        self.nullspace = []
        for fc in range(ncols):
            if fc not in pivots:
                vec = [0] * ncols
                vec[fc] = 1
                for r, pc in enumerate(pivots):
                    vec[pc] = (-self.reduced[r][fc]) % p
                self.nullspace.append(vec)

    def solve(self, rhs: list):
        """One particular solution, or None when the system is inconsistent."""
        p = self.p
        c = []
        for trow in self.transform:
            s = 0
            for x, y in zip(trow, rhs):
                if x and y:
                    s += x * y
            c.append(s % p)
        for r in range(self.rank, len(c)):
            if c[r]:
                return None
        x = [0] * self.ncols
        for r, pc in enumerate(self.pivots):
            x[pc] = c[r]
        return x

    # -- many right-hand sides at once, in the integer encoding -------------

    def consistent_ints(self, rhs):
        """Boolean array: which right-hand sides have a solution."""
        import numpy as np
        parity = self.transform[self.rank:]
        if not parity:
            return np.ones(len(rhs), dtype=bool)
        return gfp_apply(parity, self.p, rhs) == 0

    def solve_ints(self, rhs):
        """The particular solutions `solve` returns, for consistent
        right-hand sides only."""
        mat = [[0] * len(self.transform) for _ in range(self.ncols)]
        for r, pc in enumerate(self.pivots):
            mat[pc] = self.transform[r]
        return gfp_apply(mat, self.p, rhs)

    def nullspace_ints(self) -> list:
        """Every vector of the null space, in the integer encoding: the
        images of the coefficient vectors 0, 1, ..., p^k - 1 (lowest
        digit first) under the k basis vectors."""
        import numpy as np
        k = len(self.nullspace)
        basis = np.array(self.nullspace, dtype=np.int64).reshape(
            k, self.ncols)
        return gfp_apply(basis.T, self.p, np.arange(self.p**k)).tolist()

"""Output checks and seed-chosen moduli, independent of the package.

Nothing here imports drintower: the polynomial arithmetic over GF(p)
is a separate implementation, so a defect in the package's field layer
cannot hide itself from these checks.  Polynomials are little-endian
lists of ints mod p.
"""

from __future__ import annotations

import hashlib
import json
import random

from workloads import (
    SEED0_SHA256,
    X0_Q4_N3_COUNTS,
    X0_Q4_N3_DEGENERATE,
    X0_Q4_N3_SUPERSINGULAR,
    Workload,
)

POINT_SAMPLE = 64


class OracleError(Exception):
    """The CLI output disagrees with an independent expectation."""


# ---------------------------------------------------------------------------
# polynomials over GF(p)
# ---------------------------------------------------------------------------

def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: list, b: list, p: int) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x + y) % p for x, y in zip(a, b)])


def _polymod(a: list, f: list, p: int) -> list:
    """a mod the monic f, as a trimmed list."""
    a = [x % p for x in a]
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _trim(a[:df])


def _polymul(a: list, b: list, p: int) -> list:
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _powmod(a: list, e: int, f: list, p: int) -> list:
    out, base = [1], _polymod(a, f, p)
    while e:
        if e & 1:
            out = _polymod(_polymul(out, base, p), f, p)
        base = _polymod(_polymul(base, base, p), f, p)
        e >>= 1
    return out


def _gcd(a: list, b: list, p: int) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _polymod(a, b, p)
    return a


def is_irreducible(f: list, p: int) -> bool:
    """Ben-Or test: gcd(x^(p^i) - x, f) = 1 for i = 1..deg(f)/2."""
    x = [0, 1]
    h = x
    for _ in range((len(f) - 1) // 2):
        h = _powmod(h, p, f, p)
        d = _add(h, [0, p - 1], p)
        if len(_gcd(f, d, p)) > 1:
            return False
    return True


def seeded_modulus(seed: int, p: int, m: int) -> tuple:
    """A monic irreducible of degree m over GF(p), chosen by the seed."""
    rng = random.Random(f"drintower-modulus:{seed}:{p}:{m}")
    while True:
        f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(m - 1)]
        f.append(1)
        if is_irreducible(f, p):
            return tuple(f)


def field_label(p: int, m: int, modulus) -> str:
    return f"{p}^{m}/" + ",".join(str(c) for c in modulus)


def modulus_flags(moduli: dict) -> list:
    out = []
    for (p, m), mod in sorted(moduli.items()):
        out += ["--modulus", field_label(p, m, mod)]
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def xprime_level2_count(q: int, m: int) -> int:
    """Affine level-2 points with nonzero coordinates over GF(q^(2m))."""
    return q ** (2 * m) - q - q * (q - 1) * (-q) ** m


def hermitian_projective_count(q: int, m: int) -> int:
    return q ** (2 * m) + 1 - q * (q - 1) * (-q) ** m


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _check_fields_used(meta: dict, wl: Workload, smoke: bool,
                       moduli: dict) -> None:
    used = meta["fields_used"]
    want = {f"{p}^{d}" for p, d in wl.fields(smoke)}
    _require(set(used) == want,
             f"fields_used {sorted(used)} != {sorted(want)}")
    for (p, d), mod in moduli.items():
        label = field_label(p, d, mod)
        _require(used[f"{p}^{d}"] == label,
                 f"field {p}^{d} built as {used[f'{p}^{d}']}, not {label}")


def _parse_field(label: str) -> tuple:
    head, _, tail = label.partition("/")
    p = int(head.partition("^")[0])
    return p, [int(c) for c in tail.split(",")]


def _check_relation(points: list, q: int, field: str, rng) -> None:
    """z^q + z = x1^(q+1) with z = x1*x2, on a sample of the points."""
    p, f = _parse_field(field)
    for pt in rng.sample(points, min(POINT_SAMPLE, len(points))):
        x1, x2 = ([int(c) for c in x.split(",")] for x in pt)
        _require(any(x1) and any(x2), f"point {pt} has a zero coordinate")
        z = _polymod(_polymul(x1, x2, p), f, p)
        _require(_add(_powmod(z, q, f, p), z, p) == _powmod(x1, q + 1, f, p),
                 f"point {pt} is not on the level-2 curve")


def _check_enumerate(doc: dict, wl: Workload, smoke: bool, rng) -> None:
    (m,) = wl.ext_range(smoke)
    points = doc["points"]
    want = xprime_level2_count(wl.q, m)
    _require(doc["meta"]["count"] == len(points) == want,
             f"{len(points)} points (meta {doc['meta']['count']}), "
             f"closed form {want}")
    _require(len({tuple(pt) for pt in points}) == len(points),
             "duplicate points")
    _check_relation(points, wl.q, doc["meta"]["field"], rng)


def _check_count(doc: dict, wl: Workload, smoke: bool) -> None:
    rep = doc["report"]
    got = {row["m"]: row["count"] for row in rep["rows"]}
    want = {m: X0_Q4_N3_COUNTS[m] for m in wl.ext_range(smoke)}
    _require(got == want, f"row counts {got} != {want}")
    for row in rep["rows"]:
        _require(row["field_size"] == wl.q ** (2 * row["m"]),
                 f"row {row['m']} has field size {row['field_size']}")
    _require(rep["supersingular_count"] == X0_Q4_N3_SUPERSINGULAR,
             f"supersingular count {rep['supersingular_count']}")
    _require(rep["degenerate_z_skipped"] == X0_Q4_N3_DEGENERATE,
             f"degenerate_z_skipped {rep['degenerate_z_skipped']}")


def _check_zeta(doc: dict, wl: Workload, smoke: bool) -> None:
    rep = doc["report"]
    want = [hermitian_projective_count(wl.q, m) for m in wl.ext_range(smoke)]
    _require(rep["counts"] == want, f"counts {rep['counts']} != {want}")
    _require(rep["lpoly"] == ["1", "4", "4"], f"lpoly {rep['lpoly']}")
    _require(all(r == "0" for r in rep["count_residuals"]),
             f"count residuals {rep['count_residuals']}")
    _require(rep["symmetry_residual"] == "0",
             f"symmetry residual {rep['symmetry_residual']}")


def check_output(stdout: bytes, wl: Workload, smoke: bool, seed: int,
                 moduli: dict) -> str:
    """Raise OracleError unless stdout is right; return its sha256."""
    digest = hashlib.sha256(stdout).hexdigest()
    if seed == 0:
        want = SEED0_SHA256[(wl.name, smoke)]
        _require(digest == want, f"stdout sha256 {digest} != {want}")
    try:
        doc = json.loads(stdout)
        _check_fields_used(doc["meta"], wl, smoke, moduli)
        if wl.command == "enumerate":
            _check_enumerate(doc, wl, smoke, random.Random(seed))
        elif wl.command == "count":
            _check_count(doc, wl, smoke)
        else:
            _check_zeta(doc, wl, smoke)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise OracleError(f"malformed output: {exc!r}") from None
    return digest

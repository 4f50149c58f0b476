"""The benchmark's workloads: one fixed CLI invocation each.

Every workload uses the default `--workers 1`, so a run never starts
threads inside the program.  The drinfeld module is not measured: no
CLI command reaches it.

`exts` lists the extension indices m whose fields GF(q^(2m)) the
command builds; `elements` is the number of field elements the command
sweeps (sum of the sizes of the fields it enumerates), the numerator
of `elements_per_s`.
"""

from __future__ import annotations

from dataclasses import dataclass


def prime_power(q: int) -> tuple:
    for p in range(2, q + 1):
        if q % p == 0:
            r = 0
            while q % p == 0:
                q //= p
                r += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, r
    raise ValueError("not a prime power")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # enumerate | count | zeta
    q: int
    exts: tuple           # extension indices m of the measured run
    why: str
    extra: tuple = ()     # further CLI flags

    def fields(self, smoke: bool = False) -> list:
        """(p, degree) of every field the command builds."""
        p, r = prime_power(self.q)
        return [(p, 2 * r * m) for m in self.ext_range(smoke)]

    def ext_range(self, smoke: bool = False) -> tuple:
        return (1,) if smoke else self.exts

    def argv(self, smoke: bool = False) -> list:
        exts = self.ext_range(smoke)
        ext = str(exts[0]) if len(exts) == 1 else f"{exts[0]}..{exts[-1]}"
        return [self.command, "--q", str(self.q), *self.extra, "--ext", ext]

    def elements(self, smoke: bool = False) -> int:
        sizes = [p**d for p, d in self.fields(smoke)]
        total = sum(sizes)
        if self.command == "count":
            # count_points enumerates GF(q^2) once more for the
            # supersingular tally and degenerate_z_skips walks it again
            total += 2 * self.q**2
        return total


WORKLOADS = {w.name: w for w in (
    Workload(
        "enum-xprime-2e16", "enumerate", 2, (8,),
        "GF(2^16), the largest log-table field: preimages/solve per seed, "
        "TowerPoint re-checks, the final sort and 6.1 MB of JSON output",
        ("--n", "2")),
    Workload(
        "enum-xprime-17e4", "enumerate", 17, (2,),
        "GF(17^4) lies just above the 2^16 table cutoff, so every product "
        "takes the generic path and every extend pays a Euclid inverse",
        ("--n", "2")),
    Workload(
        "count-x0-2e16", "count", 4, (1, 2, 3, 4),
        "Z-coordinate quotient tower over GF(2^4..2^16): bucket walk, "
        "degenerate-Z second walk and X0Point checks, no linear solves",
        ("--n", "3", "--variant", "x0")),
    Workload(
        "zeta-hermitian-2e16", "zeta", 2, tuple(range(1, 9)),
        "Hermitian affine counts over GF(2^2..2^16), one pow and one solve "
        "per element, then the exact zeta solve; no tower points",
        ("--n", "2", "--genus", "1")),
)}


# sha256 of the CLI's stdout at seed 0 (built-in lex-first moduli),
# recorded from the code the benchmark was written against
SEED0_SHA256 = {
    ("enum-xprime-2e16", False):
        "9d5bfe1e8e199d4cfa98c4926e9d1d4bcb60265c7c84c5b73eb4567e35b7730e",
    ("enum-xprime-17e4", False):
        "a1ad99453b03cf6168e023438ec1b12626a4605a98bbce5262455e4668bc06c5",
    ("count-x0-2e16", False):
        "37f8765cb496c97d097d0f7955dfcfb76bcc9c6a6c1059c1fdb03b77f5745852",
    ("zeta-hermitian-2e16", False):
        "682e898519985ef3d27bacbf77b1cfdbc70f336ca9e9669fafa25f55695c7139",
    ("enum-xprime-2e16", True):
        "c6f86a2e378e4e35c59049226b5993f9ba650ec9e5fca466f1d2c72d83e613d2",
    ("enum-xprime-17e4", True):
        "5606e3d2aec740babdeb61821caa79b5656993838b0951f61f493f2fe46abf41",
    ("count-x0-2e16", True):
        "63bfb5e826563e7fd5523f27821ddcf82d2a64f5f38c261f9d199fb39dcbf0df",
    ("zeta-hermitian-2e16", True):
        "e5ae885661b19a7e25900f0be3b504c2097a0d9611170d975d6b73c4507c79e3",
}

# per-extension affine counts of the level-3 quotient tower for q = 4
X0_Q4_N3_COUNTS = {1: 27, 2: 251, 3: 4155, 4: 65531}
X0_Q4_N3_SUPERSINGULAR = 16
X0_Q4_N3_DEGENERATE = 2

"""Golden CLI outputs: sha256 of stdout for a fixed matrix of configs.

The hashes were recorded from the scalar, per-seed implementation of
the tower walks, before the array walks replaced it; every later change
must keep these outputs byte for byte.  GF(17^4) (83 521 elements) is
the first field of the matrix too large for the old 2^16 table cutoff.
The last four cases (the x-coordinate supersingular mask, odd p in the
JSON layout, the Z-coordinate mask in csv) were recorded from the
renderer that built a point object per row, before enumerate rendered
integer columns directly.  The three after them (two-digit digits
inside quoted CSV fields, the digit 10 in JSON, a supersingular csv
listing for p = 13) were recorded from the string-list renderer, before
enumerate wrote its rows as byte blocks.  The two `verify` cases for
q = 4 and 5 were recorded while field elements still held coefficient
tuples, before they became integer encodings.  The two for q = 8 and 9
were recorded while verify still built a point object per (point,
scalar) pair, before it checked the walk's integer columns.  The last
three `count` cases were recorded while count_points still built a
point object per level-n point over GF(q^2) for its supersingular
tally, before it took the tally from the column masks.  The last two
(the x0 count over GF(2^4..2^16), and GF(2^20) with its many more
buckets) were recorded while the quotient walk still looked its buckets
up in sorted keys, before it indexed them by encoding.  The last five
(x-coordinate towers up to level 6, a non-default modulus at level 4,
odd p in csv at level 3) were recorded while the x-coordinate walk
still solved and sorted its frontier at every level, before both walks
expanded their rows through one bucket index.  The last three (x0
counts at level 4 for q = 2, 3 and 4, the last in csv) were recorded
while count_points still built every level-n column only to read its
length, before the count took its rows from the walks' checked blocks.
The last one (verify in csv, whose branch no other case ran) was
recorded while each command still wrote its own JSON or CSV report,
before the commands shared one report writer and one meta form.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drintower.cli import main

GOLDEN = [
    (('verify', '--q', '2'),
     "5bdf550b822e1b62c2c8274d771061c064062920c7d6b522cc1559896d73cef8"),
    (('verify', '--q', '3'),
     "3f7560411f0f59b788e0c9f17164af0526cdd8aaf48838db2bb94fc5c349d088"),
    (('enumerate', '--q', '2', '--n', '3', '--ext', '2'),
     "1c771a83af2c6eabd56384d632bc0b514d4fe5929a1952be7abfe0d150d840a1"),
    (('enumerate', '--q', '2', '--n', '3', '--ext', '2', '--format', 'csv'),
     "0c87cb648573300ab49aed2ce82883d0dcdebf29afbff4d90d1d6a5f746fc819"),
    (('enumerate', '--q', '2', '--n', '3', '--ext', '2', '--variant', 'x0'),
     "c73a9ad404978ba97cf904b1e3717b0b3808ada2cb540aecab4e86ec380dd5c1"),
    (('enumerate', '--q', '2', '--n', '3', '--ext', '2', '--variant', 'x0',
      '--supersingular-only'),
     "c628697ba2e3f71ba6d6813ffab4bd44c7cb612121e2d126d1f0c9d7e5f2d1e9"),
    (('count', '--q', '2', '--n', '3', '--ext', '1..3'),
     "84aec6b45915f2189ab76680d8af62a3f4044a5e17708f288e0fb876493ad96f"),
    (('count', '--q', '2', '--n', '3', '--ext', '1..3', '--variant', 'x0'),
     "fc30923c8f98c87225ca9478db8970043bbe8247d07ae73bc82f629b2e8dfef7"),
    (('zeta', '--q', '2', '--n', '2', '--genus', '1', '--ext', '1..4'),
     "c640c4479d87c8ed945c8ec0cf0c14bbbce8e86607b3f3edf90ec6e02b199991"),
    (('zeta', '--q', '2', '--n', '2', '--genus', '1', '--ext', '1..4',
      '--format', 'csv'),
     "25cb8a74ce97261e0cd6cd335fad6128097ad8d417a674581aa96682c6d3cb23"),
    (('enumerate', '--q', '2', '--n', '2', '--ext', '2',
      '--modulus', '2^4/1,1,0,0,1'),
     "933d19d5d3e9eaeb1ea287a6f0fbf35a7ad918ae5b9926b2703dff2fe655f9e4"),
    (('enumerate', '--q', '2', '--n', '3', '--ext', '2',
      '--modulus', '2^4/1,0,0,1,1'),
     "0f13d34f56856c5341f9e137b80fffd534fa2343a2c001ef170385a43f222c32"),
    (('count', '--q', '4', '--n', '3', '--variant', 'x0', '--ext', '1..2',
      '--modulus', '2^8/1,0,1,1,0,0,0,1,1'),
     "064be4b75b6f23a8eb859b98e001d3bde1b3b33073b3308d235526670d19b714"),
    (('count', '--q', '3', '--n', '3', '--ext', '1..2'),
     "695575b69bd5d0089df082cfa9be2e9b3e91ed23bb3f613728b72f6e87452f29"),
    (('enumerate', '--q', '3', '--n', '3', '--ext', '1', '--variant', 'x0',
      '--format', 'csv'),
     "11dfa3056861cb70be8a0c3993cfe1a39a5d04e4a7d8a266fa018ac1a9d05241"),
    (('enumerate', '--q', '4', '--n', '3', '--ext', '2'),
     "9ebc8d6b48ff15b452877c2fda27014fd42110b5509011b138cafbdff7d3ab1c"),
    (('enumerate', '--q', '3', '--n', '3', '--ext', '2', '--format', 'csv'),
     "16f945d4c075ab7b2ed878d99a91f283dec28a13860b1ca22982536ef74a889c"),
    (('count', '--q', '2', '--n', '4', '--variant', 'x0', '--ext', '1..4'),
     "d21bf810e71e4797d12512f23cb1d7e9d442f56b7048d931cd417414fcf91302"),
    (('count', '--q', '5', '--n', '3', '--variant', 'x0', '--ext', '1'),
     "7825098a25d2279ba01bb35f15b9a75c5c9b36c4bcce1cd902e0c341d2f6dfa7"),
    (('enumerate', '--q', '17', '--n', '2', '--ext', '2'),
     "a1ad99453b03cf6168e023438ec1b12626a4605a98bbce5262455e4668bc06c5"),
    (('enumerate', '--q', '2', '--n', '3', '--ext', '2',
      '--supersingular-only'),
     "89ccc268769aea81d25c17de3edf63615faf2dc0aec6a2e53bed6319c6017415"),
    (('enumerate', '--q', '2', '--n', '3', '--ext', '2',
      '--supersingular-only', '--format', 'csv'),
     "12cb22fdeeaa2aaf9dbc90d0932c81e4b37e8709e990d417d4e2c1ae2e1844bc"),
    (('enumerate', '--q', '3', '--n', '2', '--ext', '1'),
     "928911a15042c51b94942ccda4b707a23f25cf9c6235a8a9cd1531991946aae8"),
    (('enumerate', '--q', '5', '--n', '2', '--ext', '1', '--variant', 'x0',
      '--supersingular-only', '--format', 'csv'),
     "c547e379f2cf24eac8e5d2d8c47ef24bf0ae5b50af9338b6b4b7b7731af37814"),
    (('enumerate', '--q', '17', '--n', '2', '--ext', '1', '--format', 'csv'),
     "4f620cf325627ace810925faa458a851d39cd3205bd70563ac517e89e0b7ec18"),
    (('enumerate', '--q', '11', '--n', '3', '--ext', '1', '--variant', 'x0'),
     "6e427dbbc097bf6e8209dd5c5d1fd9354edfff23db221b7f521cb8064a5ff731"),
    (('enumerate', '--q', '13', '--n', '2', '--ext', '1',
      '--supersingular-only', '--format', 'csv'),
     "8cfd6e1e90feab02439ca534cefbe2f35643f983d7cdb9f9ea0233da6b083b8d"),
    (('verify', '--q', '4'),
     "349a1f91fd545c70e2bef9866b4ce200393639c7ed5ce3401dc82523fe4e47e2"),
    (('verify', '--q', '5'),
     "4773e1fc9718693656ea1445842d4fbca97ae3e284d7d3a584ced53315eeebe7"),
    (('verify', '--q', '8'),
     "c6b9dc3a00fb5afd40ea26029e8c86f96018639d8070d68d7c0c9f0c33e0b28e"),
    (('verify', '--q', '9'),
     "de76d8c4a35beec881dd740580893e30e022d0ac0ff449b920711fd0b4a0d48f"),
    (('count', '--q', '8', '--n', '4', '--ext', '1'),
     "5dbce191a4843322d54d9c6d31670b0f1c1f22449f1be522c32b14abb9255c9f"),
    (('count', '--q', '16', '--n', '3', '--ext', '1..2'),
     "dde1d9a2b636279abeff75924e981aac889ecbfed20a090a59ab8ccfb710309c"),
    (('count', '--q', '8', '--n', '4', '--variant', 'x0', '--ext', '1'),
     "d26abbdb9ce27ae575c8bbac248a337d7f12561ed0a810e542e26b6813b7487e"),
    (('count', '--q', '4', '--n', '3', '--variant', 'x0', '--ext', '1..4'),
     "37f8765cb496c97d097d0f7955dfcfb76bcc9c6a6c1059c1fdb03b77f5745852"),
    (('count', '--q', '4', '--n', '3', '--variant', 'x0', '--ext', '5'),
     "b5e97bdd5d2e1e098924e34fb69987425265a28c2490bc2b2dfc282868c715f0"),
    (('enumerate', '--q', '3', '--n', '5', '--ext', '1'),
     "5feff1008f434890e287524cbe30654ab65ebb6c06f2edae810f283c8e088d3b"),
    (('count', '--q', '2', '--n', '6', '--ext', '1..4'),
     "b22705dc4049a6b5d2c98b879d4eb7d7689a29a6b0136258fb97f68039225673"),
    (('enumerate', '--q', '2', '--n', '4', '--ext', '3',
      '--modulus', '2^6/1,1,0,1,1,0,1'),
     "9e2fc021994d61f0f74048acfbc5d397a375ff4374e1d589309246f5f9bb343d"),
    (('enumerate', '--q', '5', '--n', '3', '--ext', '2', '--format', 'csv'),
     "8744208f98998e14efbb5edd7341b00e3f3e1f46abe0ce98e0d53ee898ce03d4"),
    (('count', '--q', '3', '--n', '5', '--ext', '1..3'),
     "517c1f2ab17b3c31efb815dbd044565d81264bc538f1bf92e11db80f358e3a3c"),
    (('count', '--q', '2', '--n', '4', '--variant', 'x0', '--ext', '1..7'),
     "a63f8f390025926993d3f0e80f3a6c0ae22ece5910337244cab49388b9aec133"),
    (('count', '--q', '3', '--n', '4', '--variant', 'x0', '--ext', '1..2'),
     "a824af00888e3b329d10e1f0b0cdf964d6d9f90acf00300e87c3911494b7d9e2"),
    (('count', '--q', '4', '--n', '4', '--variant', 'x0', '--ext', '1..3',
      '--format', 'csv'),
     "aa8222b5027e951d096f8c447091fa62230d830495a9224b7322ce139fe41f94"),
    (('verify', '--q', '2', '--format', 'csv'),
     "2aec6bd4233f6223079e633a3ca4153530b459762b08c5cfd43c1d9c92b0ea40"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_cli_stdout_matches_golden_hash(argv, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_enumerate_builds_no_point_objects(monkeypatch):
    # enumerate renders the integer coordinate columns, and count tallies
    # them through the supersingular row masks: with every per-point
    # constructor and serializer made to raise, their golden outputs
    # (both variants, json and csv) still come out
    from drintower import finite_field, tower

    def refuse(*args, **kwargs):
        raise AssertionError("a command built a per-point object")

    monkeypatch.setattr(finite_field.FieldSpec, "elements_at", refuse)
    monkeypatch.setattr(finite_field.FieldElement, "serialize", refuse)
    for cls in (tower.TowerPoint, tower.X0Point):
        monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(cls, "_checked_elsewhere", refuse)
    cases = [(argv, digest) for argv, digest in GOLDEN
             if argv[0] == "enumerate" and argv[2] != "17"]
    assert {("csv" in argv, "x0" in argv) for argv, _ in cases} == \
        {(False, False), (False, True), (True, False), (True, True)}
    cases += [(argv, digest) for argv, digest in GOLDEN
              if argv[0] == "count"]
    assert {"x0" in argv for argv, _ in cases if argv[0] == "count"} == \
        {False, True}
    for argv, digest in cases:
        test_cli_stdout_matches_golden_hash(argv, digest)


ROOT = Path(__file__).resolve().parents[1]
TRACED = [(argv, digest) for argv, digest in GOLDEN if argv in (
    ('enumerate', '--q', '2', '--n', '3', '--ext', '2'),
    ('enumerate', '--q', '17', '--n', '2', '--ext', '1', '--format', 'csv'),
    ('count', '--q', '2', '--n', '3', '--ext', '1..3'),
    ('count', '--q', '2', '--n', '3', '--ext', '1..3', '--variant', 'x0'),
    ('verify', '--q', '3'))]


@pytest.mark.parametrize("argv,digest", TRACED,
                         ids=[" ".join(argv) for argv, _ in TRACED])
def test_traced_benchmark_cli_matches_golden_hash(argv, digest, tmp_path):
    # the benchmark's traced runs wrap names inside the package: they
    # must still find them, and stdout must not change under the tracer
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
         str(trace), "--", *argv],
        capture_output=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert "cli.main" in json.loads(trace.read_text())["names"]

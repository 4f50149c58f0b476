"""The set-up a CLI run pays before it touches its first element.

    python3 perfbench/setup_probe.py p^m[/c0,...,cm] ...

Starts the interpreter, imports the CLI and builds the FieldSpec of
every listed field (default or explicit modulus), then prints where
drintower was imported from.  Discrete-log tables are built lazily by
the package during a run, so they are not part of this.
"""

import sys


def main() -> int:
    import drintower
    import drintower.cli  # noqa: F401  the CLI's own imports are set-up
    for item in sys.argv[1:]:
        head, _, tail = item.partition("/")
        p, _, m = head.partition("^")
        modulus = [int(c) for c in tail.split(",")] if tail else None
        drintower.make_field(int(p), int(m), modulus)
    print(drintower.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main())

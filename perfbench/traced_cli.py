"""Run the drintower CLI once with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py TRACE_OUT.json -- CLI ARGS...

stdout and the exit code are the CLI's own; the spans and counters go
to TRACE_OUT.json when the command has finished.
"""

import sys

from tracer import Trace, install


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_OUT.json -- CLI ARGS")
    trace = Trace()
    install(trace)
    from drintower import cli
    code = trace.span("cli.main", cli.main)(argv)
    sys.stdout.flush()
    trace.write(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run the fracseq CLI with the benchmark's spans installed (traced cycles only).

    python3 bench/cli_shim.py <fracseq arguments...>

The CLI's output goes to stdout unchanged and the exit code is the
CLI's.  The span summary goes to stderr as one JSON object after
:data:`tracer.CHILD_MARKER`.
"""

import json
import sys

import program
from tracer import CHILD_MARKER, Tracer


def main() -> int:
    fracseq = program.import_program(with_cli=True)
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        with tracer.op("cli"):
            code = fracseq.cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(CHILD_MARKER + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""`python -m blaschke3d.cli` with spans, for the traced run of the cli
workload.

Usage: traced_cli.py <command-name> <cli arguments...>, with the span file
named by the PERFBENCH_SPANS environment variable.  Records the import of
the package and the command as spans, with the layer spans of `tracing`
inside the command, and exits with the command's exit code.
"""
import os
import sys

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    span = tracer.begin("cli.import")
    from blaschke3d import cli
    tracer.end(span)
    tracer.install()
    span = tracer.begin(f"cli.{sys.argv[1]}")
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.end(span)
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)

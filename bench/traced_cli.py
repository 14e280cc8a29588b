"""Run one ctgp command with span tracing and write the spans to a file.

    python bench/traced_cli.py SPANS.npz train --config C --out D ...

Everything after the spans path is passed to `ctgp.cli.main` unchanged, and
the exit code is ctgp's.  The spans file is written even when the command
fails.
"""

import sys
from time import perf_counter_ns


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter_ns()
    import ctgp.cli
    t1 = perf_counter_ns()
    import tracer  # after ctgp, so the import span holds only ctgp's own cost

    rec = tracer.Tracer()
    rec.record("cli.import", t0, t1)
    tracer.install_ctgp(rec)
    try:
        return rec.wrap(ctgp.cli.main, "cli.main")(cli_args)
    finally:
        rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

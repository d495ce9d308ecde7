"""Run one banditrank CLI command; report its peak memory and, if asked, its spans.

Usage: python3 bench/cli_shim.py OUT_JSON TRACE <banditrank arguments...>

TRACE is 1 to install the benchmark's tracer, else 0. Writes
``{"peak_rss_kb": ..., "spans": [...]}`` to OUT_JSON and exits with the
command's exit code, so a step run through the shim behaves like one run
with ``python3 -m banditrank.cli``.

The peak is this process's own high-water mark (VmHWM in
/proc/self/status). getrusage would not do: a child that the benchmark
spawns holds the benchmark's memory until it execs, and getrusage counts
that as the child's peak.
"""

import json
import os
import re
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as fh:
            return int(re.search(r"^VmHWM:\s+(\d+) kB", fh.read(), re.M).group(1))
    except (OSError, AttributeError):  # no procfs: may overcount, see above
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    out, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    spans = []
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        spans = tracer.spans
    from banditrank import cli

    try:
        return cli.run(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_kb": peak_rss_kb(), "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())

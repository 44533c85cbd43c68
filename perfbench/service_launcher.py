"""Start ``repro serve`` with timing wrappers around its ingest and cache.

Used by the traced run of the service workload: before the CLI builds
the service, ``parse_record``, ``StreamingArbiter.observe`` and
``WhatIfCache.get`` are swapped for wrappers that count calls and sum
their host time.  The totals are written as JSON to ``--stats-out``
when the service exits (SIGTERM drains it and returns normally).

Usage::

    python3 perfbench/service_launcher.py --stats-out PATH -- serve ARGS...
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracing import Patches  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--stats-out" or "--" not in argv:
        sys.stderr.write(__doc__)
        return 2
    stats_path = argv[1]
    serve_argv = argv[argv.index("--") + 1:]

    import repro.cli
    import repro.service.app  # noqa: F401  (binds parse_record)
    from repro.service.arbiter import StreamingArbiter
    from repro.service.cache import WhatIfCache
    from repro.service.telemetry import parse_record

    stats = {name: {"calls": 0, "s": 0.0}
             for name in ("parse_record", "arbiter_observe", "cache_lookup")}

    def timed(name, fn):
        entry = stats[name]

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry["calls"] += 1
                entry["s"] += time.perf_counter() - started
        return wrapper

    patches = Patches()
    patches.function(parse_record, timed("parse_record", parse_record))
    patches.set(StreamingArbiter, "observe",
                timed("arbiter_observe", StreamingArbiter.observe))
    patches.set(WhatIfCache, "get", timed("cache_lookup", WhatIfCache.get))

    def write_stats() -> None:
        with open(stats_path, "w") as handle:
            json.dump(stats, handle, sort_keys=True)

    atexit.register(write_stats)
    return repro.cli.main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

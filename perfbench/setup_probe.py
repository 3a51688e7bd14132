"""Set-up time of one workload's endpoint, measured in a fresh process.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``: imports the program,
builds the workload's endpoint (spawning and warming shard workers where it
has them), prints one JSON line with the import and construction times the
moment the endpoint could take its first timed arrival, then shuts it down
and waits for every helper process it started.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> None:
    started = perf_counter()
    import repro.capture  # noqa: F401  (the serve path's modules)
    import repro.service  # noqa: F401
    import repro.sharding  # noqa: F401
    from traces import WORKLOADS, new_endpoint, stop_resource_tracker

    try:
        imported = perf_counter()
        endpoint = new_endpoint(WORKLOADS[sys.argv[1]])
        built = perf_counter()
        print(json.dumps({"import_s": imported - started, "construct_s": built - imported}), flush=True)
        endpoint.shutdown()
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    main()

"""Child process of ``cli-cold`` runs: ``sl3warp`` with timings.

Usage: python3 perfbench/cli_shim.py estimate --template T --search S

Runs the command exactly as the ``sl3warp`` console script would, timing
the import of ``sl3warp.cli``, the image loads and the estimate inside it.
The timings go to standard error as the last line, one JSON object in ms.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    from sl3warp import cli

    timings = {"import_ms": (time.perf_counter() - start) * 1e3,
               "load_ms": 0.0, "estimate_ms": 0.0}

    def timed(function, key):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                timings[key] += (time.perf_counter() - t0) * 1e3
        return wrapper

    cli.load_image = timed(cli.load_image, "load_ms")
    cli.estimate = timed(cli.estimate, "estimate_ms")
    code = cli.cli(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(timings), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

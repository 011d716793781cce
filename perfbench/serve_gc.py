"""``repro serve`` with the server's garbage collections counted.

Usage: ``python3 perfbench/serve_gc.py serve --port 0`` (the arguments of
``python -m repro``).  When the server has drained it prints one JSON line
with its generation-2 collections and total collector pause, then exits
with the server's exit code.  The traced pass uses it; the timed pass runs
``python -m repro serve`` itself.
"""

import json
import sys

from harness import GcWatch

from repro.cli import main

if __name__ == "__main__":
    with GcWatch() as watch:
        code = main(sys.argv[1:])
    print(json.dumps(watch.stats()), flush=True)
    sys.exit(code)

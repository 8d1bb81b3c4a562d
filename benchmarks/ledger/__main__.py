"""``python3 -m benchmarks.ledger`` — see the package docstring."""

import os
import sys
import time

_STARTED = time.perf_counter()  # set-up time counts the imports below
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger.cli import main  # noqa: E402 - needs the path set up above

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _STARTED))

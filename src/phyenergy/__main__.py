"""The process entry, for ``python -m phyenergy`` and the installed command.

It runs without the cyclic collector: off before the imports, and every
object frozen before teardown.  That is safe because no command makes
reference cycles per input item (``tests/test_gc.py``).
"""

import gc

gc.disable()

from .cli import main  # noqa: E402  (imported with the collector off)


def run() -> int:
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())

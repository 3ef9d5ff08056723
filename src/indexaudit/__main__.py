"""The ``indexaudit`` process entry point: ``python -m indexaudit`` and the
``indexaudit`` console script both run ``main``."""

import gc
import sys


def main() -> int:
    """Run the CLI on ``sys.argv``; returns the exit code.

    The modules the CLI imports live until the process exits, so they are
    imported with the collector off and then frozen: no later collection,
    nor the ones interpreter shutdown runs, walks them again. Library
    imports and in-process ``cli.main`` calls leave the collector alone."""
    gc.disable()
    try:
        from .cli import main as run
        gc.freeze()
    finally:
        gc.enable()
    return run()


if __name__ == "__main__":
    sys.exit(main())

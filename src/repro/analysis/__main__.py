"""``python -m repro.analysis`` — run the lint pass."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

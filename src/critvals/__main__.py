"""`python -m critvals`: the command line, without importing `critvals.cli` twice."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

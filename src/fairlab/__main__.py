"""`python -m fairlab ARGS` runs the command line, as `fairlab ARGS` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""`python -m slicekit`: the command-line interface of `slicekit.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

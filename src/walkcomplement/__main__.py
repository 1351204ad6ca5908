"""``python -m walkcomplement``: the command-line interface of :mod:`walkcomplement.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""`python -m zeropack`: the same entry point as the `zeropack` console script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

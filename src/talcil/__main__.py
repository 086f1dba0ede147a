"""``python -m talcil`` runs the same entry point as the ``talcil`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

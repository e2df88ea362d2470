"""``python -m piclass``: the ``piclass`` command line."""

import sys

from .cli import main

sys.exit(main())

"""``python -m symplie``: the command line interface of :mod:`symplie.cli`."""

import sys

from .cli import main

sys.exit(main())

"""``python -m diffboost``: the ``diffboost`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())

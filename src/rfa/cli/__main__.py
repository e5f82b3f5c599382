"""``python -m rfa.cli``: the ``rfa`` command without the installed script."""

import sys

from .main import main

sys.exit(main())

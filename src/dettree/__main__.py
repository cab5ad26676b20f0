"""``python -m dettree``: the ``dettree`` command line."""

import sys

from .cli import main

sys.exit(main())

"""Entry point for ``python -m scalepde``."""

import sys

from .cli import main

sys.exit(main())

"""``python -m stlplan``: the command-line interface without an install."""

import sys

from .scenario_cli import main

sys.exit(main())

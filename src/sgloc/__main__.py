"""`python -m sgloc ...` runs the command-line interface, as the installed
`sgloc` script does."""

import sys

from .cli import main

sys.exit(main())

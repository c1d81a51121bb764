"""`python -m srdist`: the `srdist` command line, for checkouts where it is not installed."""
import sys

from .cli import main

sys.exit(main())

"""``python -m r2subfield``: the command line of :mod:`r2subfield.cli`."""
from .cli import main
raise SystemExit(main())

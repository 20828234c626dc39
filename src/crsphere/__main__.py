"""``python -m crsphere``: the ``crsphere`` command, runnable from a checkout."""
from .cli import main
raise SystemExit(main())

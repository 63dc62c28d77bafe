"""`python -m timwidth`: the command-line interface of timwidth.cli."""

from .cli import main

raise SystemExit(main())

"""``python -m repro`` — the consolidated command-line front door.

See :mod:`repro.cli` for the subcommands (``run``, ``serve``, ``trace``,
``experiment``, ``report``, ``catalogue``) and :mod:`repro.api` for the
service layer they sit on.
"""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

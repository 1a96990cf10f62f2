"""``python -m dehn``: the ``dehn`` command without the installed script."""

from .cli import main

main()

"""``python -m oddmaps``: the ``oddmaps`` command line."""

from .cli import run

run()

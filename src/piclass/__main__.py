"""``python -m piclass``: the ``piclass`` command line."""

from .cli import main

main(prog_name="piclass")

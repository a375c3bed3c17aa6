"""``python -m podvs``: the command-line interface."""
from .cli import main

main()

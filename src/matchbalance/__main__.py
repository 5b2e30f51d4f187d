"""``python -m matchbalance`` runs the command line, installed or not."""
from .cli import entry

entry()

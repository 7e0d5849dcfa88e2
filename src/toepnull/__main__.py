"""``python -m toepnull``: the same command as the ``toepnull`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()

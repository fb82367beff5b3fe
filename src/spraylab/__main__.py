"""``python -m spraylab``: the same command line as the ``spraylab`` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()

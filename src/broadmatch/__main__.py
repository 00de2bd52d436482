"""``python -m broadmatch``: the same entry point as the ``broadmatch`` script."""

from .cli import main

if __name__ == "__main__":
    main()

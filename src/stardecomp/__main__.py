"""``python -m stardecomp``: the same command line as the ``stardecomp`` script."""

from .cli import main

if __name__ == "__main__":
    main()

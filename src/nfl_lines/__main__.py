"""``python -m nfl_lines``: the same command line as the ``nfl-lines`` script."""

from .cli import run

if __name__ == "__main__":
    run()

"""``python -m xvapde`` and the installed ``xvapde`` command.

Both run ``xvapde.cli`` as the ``__main__`` module, as ``python -m
xvapde.cli`` does, so the CLI program's defaults (set at the top of
``cli.py``, before numpy loads) hold for every way of starting it.
"""

import runpy


def main() -> None:
    runpy.run_module("xvapde.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()

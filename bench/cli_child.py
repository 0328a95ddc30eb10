"""Run one xvapde CLI command under the benchmark's tracer.

    python bench/cli_child.py SPANS_JSON COMMAND --config CFG --out DIR

Wraps the engine's public functions, runs the command as
``python -m xvapde.cli`` would, and writes the spans to SPANS_JSON. Exits
with the command's own exit code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import xvapde.cli as cli
    tracer = Tracer()
    tracer.current_request = 0
    with tracer:
        code = cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())

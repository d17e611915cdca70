"""Run one ``scoris-n`` command line and time-stamp the end of its set-up.

Usage: ``python3 perfbench/launch.py MARKER_JSON <scoris-n arguments...>``

Writes ``{"ready": t, "done": t, "code": exit}`` to MARKER_JSON, where
``ready`` is when both banks are ingested (the CLI's ``_load_banks``
returned) and ``done`` is when the command returned, i.e. after the m8
file was written.  Times are ``time.monotonic()``, which is one clock for
every process on the host, so the parent can subtract its spawn time.
"""

import json
import sys
import time


def main() -> int:
    marker, argv = sys.argv[1], sys.argv[2:]
    import repro.cli as cli

    stamps: dict = {}
    load_banks = cli._load_banks

    def marked(args):
        out = load_banks(args)
        stamps["ready"] = time.monotonic()
        return out

    cli._load_banks = marked
    code = cli.run(argv)
    stamps["done"] = time.monotonic()
    stamps["code"] = code
    with open(marker, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

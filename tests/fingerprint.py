r"""The fingerprint of the code daekit emits for the golden queries.

Runs every query of test_golden.QUERIES in this one process, with
builtins.compile wrapped to keep each source compiled under a
``<daekit NAME>`` file name. Prints the number of those sources and the
length and sha256 of their sorted texts joined by "\n\x00". With --names
it prints the same three numbers for each NAME's sources alone. Two trees
whose emitted code is the same print the same lines:

    PYTHONPATH=src python tests/fingerprint.py --names

It gates nothing, and pytest does not collect it.
"""

import builtins
import hashlib
import sys
import tempfile

SOURCES = []  # (NAME, source) of each compile of a <daekit NAME> file
_compile = builtins.compile


def _recording(source, filename, *args, **kwargs):
    if filename.startswith("<daekit "):
        SOURCES.append((filename[len("<daekit "):-1], source))
    return _compile(source, filename, *args, **kwargs)


def digest(sources):
    r"""(count, length, sha256) of the texts sources, sorted and joined by
    "\n\x00"."""
    joined = "\n\x00".join(sorted(sources))
    return (len(sources), len(joined),
            hashlib.sha256(joined.encode("utf-8")).hexdigest())


def main(argv):
    builtins.compile = _recording
    try:
        from test_golden import QUERIES, run_query
        with tempfile.TemporaryDirectory() as tmp:
            for name in sorted(QUERIES):
                run_query(name, tmp)
    finally:
        builtins.compile = _compile
    line = "sources %d, characters %d, sha256 %s"
    print(line % digest([src for _, src in SOURCES]))
    if "--names" in argv:
        for name in sorted({nm for nm, _ in SOURCES}):
            print(f"  <daekit {name}>: "
                  + line % digest([src for nm, src in SOURCES if nm == name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

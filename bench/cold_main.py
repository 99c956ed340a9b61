"""Run one qbuffer command in this fresh interpreter, for the cold-command timing.

Usage: python cold_main.py STAMP_FILE WORK_DIR ARG...

Writes to STAMP_FILE the CPU time this process has used (``time.process_time``,
which counts from the spawn, interpreter start-up included) as soon as
``qbuffer.cli`` has been imported, then runs ``qbuffer.cli.main(ARG...)`` in
WORK_DIR and exits with its code.
"""

import sys
import time

import qbuffer.cli

IMPORTED = time.process_time()

if __name__ == "__main__":
    import os

    stamp_file, work_dir = sys.argv[1], sys.argv[2]
    os.chdir(work_dir)
    try:
        code = qbuffer.cli.main(sys.argv[3:])
    finally:
        with open(stamp_file, "w") as fh:
            fh.write(repr(IMPORTED))
    sys.exit(code)

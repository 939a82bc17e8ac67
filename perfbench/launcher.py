"""Start the benchmark's commands from a small process, so each child's peak RSS is its own.

On Linux a child's `ru_maxrss` includes the peak RSS of the memory map it
had before `exec`, which is its parent's.  The harness grows past the size
of a small CLI process, so `run.py` starts commands through this process,
which imports only `json` and `os` and stays far smaller than any of them.

Protocol, one JSON line each way per command.  In: [argv, env, stdout
path, stderr path]; `argv[0]` is an absolute path and the working
directory is this process's.  Out: [start, end, exit code, max RSS in KiB],
with start and end from `time.perf_counter()`.  The process ends at the
end of its input.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, env, out, err = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        sys.stdout.write(json.dumps([start, end, os.waitstatus_to_exitcode(status), usage.ru_maxrss]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

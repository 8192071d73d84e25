#!/usr/bin/env python3
"""Runs a command and reports its peak resident set size.

Usage:
  peak_rss.py [--limit-mb=N] -- COMMAND [ARGS...]

The command inherits stdin/stdout/stderr. Its peak RSS (wait4's ru_maxrss)
is printed to stderr as `peak_rss_mb=<MB>`. The exit status is the
command's own (128 + signal number if a signal killed it), unless the peak
exceeds --limit-mb, in which case it is 125.

ru_maxrss of a forked child starts from the parent's RSS at fork time, so
this wrapper keeps itself small (stdlib only, nothing loaded) and its floor
is a few MB.

Stdlib only.
"""
import os
import sys

OVER_LIMIT_STATUS = 125


def main(argv):
    limit_mb = None
    args = argv[1:]
    while args and args[0] != "--":
        if args[0].startswith("--limit-mb="):
            limit_mb = float(args[0].split("=", 1)[1])
        else:
            print(f"peak_rss: unknown option {args[0]}", file=sys.stderr)
            return 2
        args = args[1:]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    command = args[1:]

    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        except OSError as e:
            print(f"peak_rss: cannot run {command[0]}: {e}", file=sys.stderr)
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports KB
    print(f"peak_rss_mb={peak_mb:.1f}", file=sys.stderr)
    if limit_mb is not None and peak_mb > limit_mb:
        print(f"peak_rss: {peak_mb:.1f} MB exceeds the {limit_mb:g} MB limit",
              file=sys.stderr)
        return OVER_LIMIT_STATUS
    if os.WIFSIGNALED(status):
        return 128 + os.WTERMSIG(status)
    return os.WEXITSTATUS(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

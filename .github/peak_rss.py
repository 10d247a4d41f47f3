"""Run one waring-gaps command in this process and fail unless it exits with
an accepted status at a peak resident set size within a bound.

    PYTHONPATH=src python .github/peak_rss.py MAX_MB STATUSES ARG...

MAX_MB is the bound in MiB, STATUSES the accepted exit statuses joined by
commas (such as 0,1), and ARG... the command line of waring_gaps.cli.main.
Prints the exit status and the peak, and exits 0 when both are within
bounds, else 1.
"""

import resource
import sys

from waring_gaps import cli


def main(args: list[str]) -> int:
    max_mb, statuses, argv = float(args[0]), args[1], args[2:]
    status = cli.main(argv)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"exit status {status}, peak RSS {peak_mb:.0f} MB")
    return 0 if str(status) in statuses.split(",") and peak_mb <= max_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import os
import sys

# BLAS at one thread unless the caller chose, set before numpy first loads.
# The suite's matrices are small: on 2 cores a second BLAS thread only
# competes with the label-affinity worker threads (113 s against 88 s for
# the whole suite).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criteria verdict lines after the test summary.

    The acceptance tests print one pass/fail line per criterion, but pytest
    captures stdout of passing tests; this hook replays the collected lines
    so they always appear in the run output.
    """
    mod = (sys.modules.get("tests.test_acceptance")
           or sys.modules.get("test_acceptance"))
    verdicts = getattr(mod, "VERDICTS", None)
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        terminalreporter.write_line(verdicts[num])

"""Run the qftcalc CLI the way the ``qftcalc`` script does, with two marks.

Usage: python launcher.py <qftcalc arguments...>

The launcher imports ``qftcalc.cli``, writes the monotonic time at which the
import returned to the file named by ``PERFBENCH_MARK``, then calls
``qftcalc.cli.main(argv)`` and exits with its code. When ``PERFBENCH_SPANS``
names a file, the public functions of every layer are traced and the spans are
written there at exit.
"""

import os
import sys
import time

import qftcalc.cli

with open(os.environ["PERFBENCH_MARK"], "w", encoding="utf-8") as mark:
    mark.write(repr(time.monotonic()))

spans_path = os.environ.get("PERFBENCH_SPANS")
if spans_path:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = qftcalc.cli.main(sys.argv[1:])
    finally:
        tracer.dump(spans_path)
else:
    code = qftcalc.cli.main(sys.argv[1:])
sys.exit(code)

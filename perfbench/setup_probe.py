"""Time one workload's set-up in a fresh interpreter.

Set-up is what a new process pays before its first operation: the
imports, and building every device with its calibration.  Prints one
JSON line, ``{"setup_s": ...}``.  Run with ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python perfbench/setup_probe.py compile
"""

import json
import sys
import time

started = time.perf_counter()

from repro import api  # noqa: E402,F401 - the timed imports
from repro.devices import all_devices, google_bristlecone_72  # noqa: E402

if sys.argv[1] == "study":
    import repro.experiments.parallel  # noqa: E402,F401 - api.sweep's engine

for device in all_devices():
    device.calibration()
if sys.argv[1] == "compile":
    google_bristlecone_72().calibration()
print(json.dumps({"setup_s": time.perf_counter() - started}))

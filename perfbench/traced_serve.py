"""``repro serve`` with the layer wrappers of :mod:`tracing` installed.

    PYTHONPATH=src python perfbench/traced_serve.py SPANS.json serve ...

Everything after the spans path is passed to the ``repro`` CLI.  The
spans are written to SPANS.json when the daemon has drained.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro.api  # noqa: E402,F401 - bind every from-import before wrapping
import repro.cli  # noqa: E402
import repro.experiments.parallel  # noqa: E402,F401
import repro.service.server  # noqa: E402,F401
from tracing import Recorder, install  # noqa: E402


def main() -> int:
    spans_path = sys.argv[1]
    recorder = Recorder()
    install(recorder)
    # One root span per executed job, so each job's layer spans share it.
    service = repro.service.server.ReproService
    execute = service._execute

    def traced_execute(self, job):
        span = recorder.open("service.job", job=job.id, kind=job.kind)
        try:
            return execute(self, job)
        finally:
            recorder.close(span)

    service._execute = traced_execute
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.to_json(), handle)


if __name__ == "__main__":
    sys.exit(main())

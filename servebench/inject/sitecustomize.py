"""Installs the benchmark's layer spans in a traced ``repro serve`` daemon.

The traced run puts this directory first on ``PYTHONPATH`` and names a spans
file in ``SERVEBENCH_SPANS``.  Python imports ``sitecustomize`` at start-up,
so the daemon and every worker its process backend spawns wrap the layers
before any request arrives.  The daemon writes its spans (with its workers'
spans grafted in) to the file when it exits; workers ship theirs back with
each task instead.  Other interpreters that inherit the environment, such as
multiprocessing's resource tracker, are left alone.
"""

import os
import sys

_SPANS_PATH = os.environ.get("SERVEBENCH_SPANS")
_IS_WORKER = "--multiprocessing-fork" in sys.argv
_IS_DAEMON = "serve" in sys.argv and not _IS_WORKER

if _SPANS_PATH and (_IS_DAEMON or _IS_WORKER):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    from servebench import layers

    _recorder = layers.Recorder()
    layers.install_daemon(_recorder)

    if _IS_DAEMON:
        import atexit
        import json

        def _dump() -> None:
            tmp = _SPANS_PATH + ".tmp"
            with open(tmp, "w") as handle:
                json.dump({"pid": os.getpid(), "rows": _recorder.rows}, handle)
            os.replace(tmp, _SPANS_PATH)

        atexit.register(_dump)

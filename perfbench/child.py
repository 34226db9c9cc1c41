"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SRC RESULT_JSON SPANS_JSONL|- [CLI ARGS ...]

Imports ``truncshor.cli`` from SRC, records when the import finished
(CLOCK_MONOTONIC, comparable with the parent's clock), then calls
``truncshor.cli.main`` on the CLI arguments and records its wall time,
exit status and peak RSS. With no CLI arguments it only imports, which
is how set-up time is sampled. A SPANS_JSONL path turns on the span
recorder. Running every pass in its own process keeps
``experiments._produces_factors`` (a process-wide cache) cold and makes
``ru_maxrss`` belong to one pass.
"""

import sys
import time

src, result_path, spans_path, *cli_args = sys.argv[1:]
sys.path.insert(0, src)

import truncshor.cli  # noqa: E402

import_done_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402

result = {"import_done_ns": import_done_ns, "module_file": truncshor.cli.__file__}
if cli_args:
    recorder = None
    if spans_path != "-":
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    status, error = None, None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        status = truncshor.cli.main(cli_args)
    except SystemExit as e:
        status = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # reported to the parent as a failed operation
        error = f"{type(e).__name__}: {e}"
    sys.stdout.flush()
    result["wall_s"] = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime
    result["status"] = status
    if error is not None:
        result["error"] = error
    result["maxrss_kb"] = ru1.ru_maxrss
    if recorder is not None:
        recorder.dump(spans_path)

with open(result_path, "w") as fh:
    json.dump(result, fh)

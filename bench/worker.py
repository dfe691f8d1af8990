"""Run one pass of a workload's CLI commands in a fresh interpreter.

Usage: python3 worker.py JOB.json RESULT.json

JOB holds ``commands`` (argv lists for ``lr_horizon.cli.main``) and
``trace``. RESULT receives the import time of ``lr_horizon``, the wall
time of the commands, their exit codes, the package path and, when
tracing, the aggregated spans. The parent reads this process's peak
memory from its own rusage.
"""

import json
import sys
import time
import traceback


def _run(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    start = time.perf_counter()
    import lr_horizon.cli as cli

    import_s = time.perf_counter() - start

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.begin("pass")

    codes = []
    start = time.perf_counter()
    for argv in job["commands"]:
        codes.append(_run(cli, argv))
    wall_s = time.perf_counter() - start

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "codes": codes,
        "package": cli.__file__,
    }
    if tracer is not None:
        result["root_ns"] = tracer.end()
        result["spans"] = tracer.stats
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

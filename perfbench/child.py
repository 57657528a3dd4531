"""One benchmark command in a fresh process: run a dtcmorph CLI command, report on it.

    python3 child.py SPAWN_MONOTONIC REPORT_JSON SRC_DIR MODE -- CLI_ARGS...

MODE is ``setup`` (import and resolve the config, then stop), ``plain`` or
``trace``. SPAWN_MONOTONIC is the parent's `time.monotonic()` just before it
started this process; CLOCK_MONOTONIC is system-wide, so set-up time counts
interpreter start-up too. The report is a JSON object with the timings,
the CLI's exit code, CPU time, peak RSS and, when traced, the spans.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    spawn = float(argv[1])
    report_path, src, mode = argv[2], argv[3], argv[4]
    cli_argv = argv[argv.index("--") + 1:]

    t0 = time.monotonic()
    sys.path.insert(0, src)
    from dtcmorph import cli

    t_import = time.monotonic()
    cli.resolve_config(cli.build_parser().parse_args(cli_argv))
    report = {"setup_s": time.monotonic() - spawn, "import_s": t_import - t0}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from layers import ANNOTATE, TARGETS
            from tracer import Tracer

            tracer = Tracer("dtcmorph", TARGETS, ANNOTATE).install()
        start = time.perf_counter()
        try:
            report["exit_code"] = cli.main(cli_argv)
            report["wall_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report["cpu_s"] = usage.ru_utime + usage.ru_stime
        report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if tracer is not None:
            report["absent"] = tracer.absent
            report["spans"] = [
                [s.id, s.name, s.start, s.end, s.parent, s.thread, s.attrs] for s in tracer.spans
            ]
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""One fresh benchmark process: start, import queerhom, run invocations in-process.

    python3 perfbench/child.py SRC_DIR [TASK_JSON]

run.py spawns it.  The child reads the system-wide monotonic clock right
after ``import queerhom.cli`` so the parent can time interpreter start plus
imports (set-up).  Without TASK_JSON it stops there: a set-up probe.  With
it, the child runs each invocation through ``queerhom.cli.main`` with
``--report``, one after another, and prints one JSON line with the wall
time from the first invocation to the last report read, its own peak RSS,
and each invocation's exit code, report and error.  Exit code 3 means
queerhom could not be imported from SRC_DIR.
"""
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class InvocationTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so the program's handlers let it pass."""


def _on_alarm(signum, frame):
    raise InvocationTimeout()


def _import_program(src):
    sys.path.insert(0, src)
    try:
        import queerhom.cli
    except ImportError as e:
        print("error: cannot import queerhom from %s: %s" % (src, e), file=sys.stderr)
        sys.exit(3)
    here = os.path.realpath(queerhom.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print("error: queerhom was imported from %s, not %s" % (here, src), file=sys.stderr)
        sys.exit(3)
    return queerhom.cli


def _run_invocation(cli, argv, report_path, timeout_s):
    rc = error = report = None
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(argv) + ["--report", report_path])
    except InvocationTimeout:
        error = "timed out after %g s" % timeout_s
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # any crash of the program is a failed invocation
        error = "raised %s: %s" % (type(e).__name__, e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        try:
            with open(report_path, encoding="ascii") as fh:
                report = json.load(fh)
            os.remove(report_path)
        except (OSError, ValueError) as e:
            error = "no readable report: %s" % e
    return rc, report, error


def main():
    cli = _import_program(sys.argv[1])
    ready = _clock()
    if len(sys.argv) < 3:
        print(json.dumps({"ready_clock": ready}))
        return 0

    task = json.loads(sys.argv[2])
    tracer = None
    if task["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    t0 = _clock()
    for k, inv in enumerate(task["invocations"]):
        if tracer is not None:
            tracer.new_trace()
        path = os.path.join(task["report_dir"], "report-%d-%d.json" % (os.getpid(), k))
        s0 = _clock()
        rc, report, error = _run_invocation(cli, inv["argv"], path, task["timeout_s"])
        results.append(
            {"name": inv["name"], "rc": rc, "seconds": _clock() - s0, "report": report, "error": error}
        )
    verify_s = _clock() - t0
    out = {
        "ready_clock": ready,
        "verify_s": verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": results,
    }
    if tracer is not None:
        out["spans"] = [s.to_dict() for s in tracer.spans]
        out["coverage_gaps"] = tracer.coverage_gaps()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

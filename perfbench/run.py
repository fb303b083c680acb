"""queerhom benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 perfbench/run.py --workload h2-q --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the program from ./src and
writes its records under ./.perfbench_out.  Workloads are in workloads.py.

Closed loop with one client: each pass over the workload runs in a fresh
single-process child (child.py), and the next child starts only after the
previous one has exited.  A new pass starts only while the time already
spent plus the last pass fits in ``--seconds``; there is always at least
one.  Before each pass, a few children only start and import queerhom, so
that set-up is sampled many times, spread over the run.

``--trace 0`` prints the end-to-end metrics: ``verify_s`` (median wall
time of one pass), ``setup_s`` (median spawn-to-imported time),
``peak_rss_mb`` (median child ``ru_maxrss``) and ``ok_share`` (share of
invocations that did not fail).  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of spans.py, with the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

An invocation fails when it raises, times out, exits with another code
than its pinned one, or any report row's (check, status, expected,
computed) differs from its pin.  The run is incorrect when an invocation
fails, when two passes give different report JSON apart from ``timings``
and ``note``, or, traced, when a span-count self-check fails or an exact
count drifts between passes.  Report hashes and exact counts are also
compared with earlier runs of identical code on the same input in this
checkout (.perfbench_out/exact-counts.json).

Exit code 2, with no result line, means the benchmark could not run at
all, for example because ./src/queerhom is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

PROBES_PER_PASS = 5
DEADLINE_S = 170.0  # the whole run, children included, ends well within 180 s
INVOCATION_TIMEOUT_S = 60.0

END_TO_END = (
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)
NOT_DONE = (
    "no CPU pinning, no page-cache dropping, no machine-wide tracing: "
    "the benchmark acts only on its own processes"
)


class BenchError(Exception):
    """The benchmark cannot run at all."""


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "not_done": NOT_DONE,
    }


def code_digest():
    """Hash of the program's and the benchmark's sources, so stored results
    are compared only between runs of identical code."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "queerhom"), os.path.dirname(CHILD)):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def spawn(task, deadline):
    """Run one child; (result dict or None, setup seconds or None, error)."""
    cmd = [sys.executable, CHILD, SRC]
    if task is not None:
        cmd.append(json.dumps(task))
    t_spawn = _clock()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - _clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, "child timed out"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode == 3:
        raise BenchError(err.strip() or "child could not import queerhom")
    if proc.returncode != 0:
        return None, None, "child exited %d: %s" % (proc.returncode, err.strip()[-500:])
    data = json.loads(out.strip().splitlines()[-1])
    return data, data["ready_clock"] - t_spawn, None


def check_invocation(inv, res):
    """Reason the invocation failed, or None."""
    if res["error"]:
        return res["error"]
    if res["rc"] != inv.exit_code:
        return "exit code %s, pinned %d" % (res["rc"], inv.exit_code)
    rows = tuple(
        (r["check"], r["status"], r["expected"], r["computed"]) for r in res["report"]["rows"]
    )
    if rows != inv.rows:
        return "rows %r, pinned %r" % (rows, inv.rows)
    return None


def canonical_report(report):
    """Report JSON without the parts allowed to differ between runs."""
    rep = {k: v for k, v in report.items() if k != "timings"}
    rep["rows"] = [{k: v for k, v in r.items() if k != "note"} for r in report["rows"]]
    return json.dumps(rep, sort_keys=True)


def span_self_checks(invs, span_list):
    """Span counts that the program's call structure fixes, per invocation."""
    problems = []
    for k, inv in enumerate(invs, start=1):
        mine = [s for s in span_list if s["trace"] == k]
        scen = "scenarios." + inv.argv[0]
        n_scen = sum(s["name"] == scen for s in mine)
        if n_scen != 1:
            problems.append("%s: %d %s spans, expected 1" % (inv.name, n_scen, scen))
        n_ce = sum(s["name"] == spans.CE_H2 and s["ok"] for s in mine)
        if n_ce != inv.ce_h2:
            problems.append(
                "%s: %d returning %s spans, expected %d" % (inv.name, n_ce, spans.CE_H2, inv.ce_h2)
            )
        roots = [s for s in mine if s["parent"] is None]
        if [s["name"] for s in roots] != ["cli.main"]:
            problems.append("%s: root spans %r" % (inv.name, [s["name"] for s in roots]))
        if any(s["end"] is None for s in mine):
            problems.append("%s: span left open" % inv.name)
    return problems


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.variant, self.invs = workloads.invocations(workload, seed)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup = []
        self.passes = []  # (traced, child result, per-invocation failure reasons)
        self.problems = []
        self.lines = []
        self.exact = {}  # exact counts of the traced passes

    def task(self, traced):
        return {
            "invocations": [{"name": i.name, "argv": list(i.argv)} for i in self.invs],
            "trace": traced,
            "report_dir": OUT,
            "timeout_s": INVOCATION_TIMEOUT_S,
        }

    def one_pass(self, traced, deadline):
        data, setup, error = spawn(self.task(traced), deadline)
        if data is None:
            self.passes.append((traced, None, [error] * len(self.invs)))
            self.lines.append("pass %d: %s" % (len(self.passes), error))
            return
        self.setup.append(setup)
        reasons = [check_invocation(i, r) for i, r in zip(self.invs, data["invocations"])]
        self.passes.append((traced, data, reasons))
        bad = [(i.name, why) for i, why in zip(self.invs, reasons) if why]
        self.lines.append(
            "pass %d%s: verify %.4f s, setup %.4f s, rss %.1f MB, %d/%d invocations ok%s"
            % (
                len(self.passes),
                " (traced)" if traced else "",
                data["verify_s"],
                setup,
                data["peak_rss_mb"],
                len(self.invs) - len(bad),
                len(self.invs),
                "".join("\n  FAILED %s: %s" % b for b in bad),
            )
        )

    def execute(self):
        start = _clock()
        deadline = start + DEADLINE_S
        group = (False, True) if self.trace else (False,)
        while True:
            g0 = _clock()
            for _ in range(PROBES_PER_PASS):
                _, setup, error = spawn(None, deadline)
                if error:
                    raise BenchError("set-up probe failed: %s" % error)
                self.setup.append(setup)
            for traced in group:
                self.one_pass(traced, deadline)
            now = _clock()
            if now - start + (now - g0) > self.seconds or now > deadline:
                break

    # ------------------------------------------------------------ results

    def good(self, traced):
        return [d for t, d, r in self.passes if t == traced and d is not None and not any(r)]

    def attempted_failed(self):
        attempted = len(self.passes) * len(self.invs)
        failed = sum(1 for _, _, reasons in self.passes for why in reasons if why)
        return attempted, failed

    def check_determinism(self):
        """Report JSON minus timings and notes must agree between passes;
        returns its hash per invocation."""
        seen = {}
        for _, data, _ in self.passes:
            if data is None:
                continue
            for inv, res in zip(self.invs, data["invocations"]):
                if res["report"] is None:
                    continue
                canon = canonical_report(res["report"])
                if seen.setdefault(inv.name, canon) != canon:
                    self.problems.append("%s: report differs between passes" % inv.name)
        return {
            "report:" + name: hashlib.sha256(c.encode()).hexdigest() for name, c in seen.items()
        }

    def end_to_end(self):
        passes = [d for t, d, _ in self.passes if d is not None]
        attempted, failed = self.attempted_failed()
        verify = [d["verify_s"] for d in passes]
        rss = [d["peak_rss_mb"] for d in passes]
        m = {
            "verify_s": statistics.median(verify) if verify else float(self.seconds),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "ok_share": 1.0 - failed / attempted,
        }
        self.lines.append(
            "verify_s     median %.4f s over %d passes (min %.4f, max %.4f)"
            % (m["verify_s"], len(verify), min(verify or [0]), max(verify or [0]))
        )
        self.lines.append(
            "setup_s      median %.4f s over %d children (min %.4f, max %.4f)"
            % (m["setup_s"], len(self.setup), min(self.setup), max(self.setup))
        )
        self.lines.append("peak_rss_mb  median %.2f MB over %d passes" % (m["peak_rss_mb"], len(rss)))
        self.lines.append(
            "ok_share     %.4f share (failed_share %.4f: %d of %d invocations failed)"
            % (m["ok_share"], failed / attempted, failed, attempted)
        )
        return m

    def per_layer(self):
        traced = self.good(True)
        untraced = self.good(False)
        per_pass = []
        for data in traced:
            gaps = data["coverage_gaps"]
            if gaps:
                self.problems.append("unwrapped import sites: %s" % ", ".join(gaps))
            self.problems += span_self_checks(self.invs, data["spans"])
            reports = [r["report"] for r in data["invocations"]]
            per_pass.append(spans.layer_metrics(data["spans"], reports))
        if not per_pass:
            self.problems.append("no traced pass succeeded")
            return {name: 0.0 for name, _ in spans.PER_LAYER}
        for p in per_pass[1:]:
            for name in spans.EXACT:
                if p[name] != per_pass[0][name]:
                    self.problems.append("%s drifted between passes" % name)
        self.exact = {name: per_pass[0][name] for name in spans.EXACT}
        m = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        tv = statistics.median(d["verify_s"] for d in traced)
        uv = statistics.median(d["verify_s"] for d in untraced) if untraced else tv
        m["trace.verify_s"] = tv
        m["trace.untraced_verify_s"] = uv
        m["trace.overhead_s"] = tv - uv
        self.write_spans(traced)
        for name, unit in spans.PER_LAYER:
            self.lines.append("%-40s %s %s" % (name, _fmt(m[name]), unit))
        self.lines.append(
            "tracing overhead: %.4f s on %.4f s untraced (%d traced, %d untraced passes)"
            % (tv - uv, uv, len(traced), len(untraced))
        )
        return m

    def check_against_earlier_runs(self, reports):
        """Report hashes and exact counts must equal those stored by earlier
        runs of identical code on the same input in this checkout."""
        path = os.path.join(OUT, "exact-counts.json")
        try:
            with open(path, encoding="utf-8") as fh:
                store = json.load(fh)
        except (OSError, ValueError):
            store = {}
        old = store.setdefault("%s:%s:%s" % (code_digest(), self.workload, self.variant), {})
        for name, value in dict(reports, **self.exact).items():
            if old.setdefault(name, value) != value:
                self.problems.append(
                    "%s differs from an earlier run of this code: %r -> %r" % (name, old[name], value)
                )
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)

    def write_spans(self, traced):
        path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (self.workload, self.seed))
        with open(path, "w", encoding="utf-8") as fh:
            for k, data in enumerate(traced, start=1):
                for s in data["spans"]:
                    fh.write(json.dumps(dict(s, trace="pass%d-inv%d" % (k, s["trace"]))) + "\n")
        self.lines.append("spans written to %s" % os.path.relpath(path, ROOT))


def _fmt(x):
    return "%d" % x if isinstance(x, int) else "%.6g" % x


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "queerhom", "__init__.py")):
        print("error: no program at %s; run from the repository root" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    reports = run.check_determinism()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    run.check_against_earlier_runs(reports)
    units = dict(spans.PER_LAYER if args.trace else END_TO_END)
    attempted, failed = run.attempted_failed()
    correct = failed == 0 and not run.problems

    print(
        "env: python %(python)s, nproc %(nproc)s, cpu %(cpu)s, loadavg at start %(loadavg_at_start)s"
        % env
    )
    print("not done: %s" % NOT_DONE)
    print(
        "workload %s (seed %d, %s): %s; closed loop, one client, %d invocation(s) per pass"
        % (args.workload, args.seed, run.variant, workloads.WHY[args.workload], len(run.invs))
    )
    for inv in run.invs:
        print("  verify %s" % " ".join(inv.argv))
    for line in run.lines:
        print(line)
    for problem in run.problems:
        print("PROBLEM: %s" % problem)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(
        os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(dict(result, environment=env, problems=run.problems), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The wayfinder benchmark.

Run from the root of a wayfinder checkout:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

A run builds the CLI and the benchmark's own programs (tracer.ml, the traced
runner, and calib.ml, the host-speed probe) with dune, then:

  --trace 0  runs the workload's `wayfinder run` steps through the real CLI
             binary, untraced, followed by the read commands (`analyze --json
             --series`, `compare` when there are two ledgers, `watch --once`,
             `fsck --json`), repeating the whole workload until --seconds have
             been spent, then times the set-up path (a zero-iteration run, or a
             resume with a budget equal to the checkpoint's) after each one.
             It prints the end-to-end metrics of BENCHMARK.json: medians
             over the repetitions, with every time converted to a reference
             host speed by the probe run around each repetition.  Above the
             JSON line it also prints the run's best score and crash fraction,
             which are exact for a seed.
  --trace 1  runs the workload once through the CLI and then, until --seconds
             have been spent, through tracer.exe, which replays the same steps
             in one process and times every call into each layer from outside.
             It prints the per-layer metrics of BENCHMARK.json (medians over
             the traced passes) and leaves the spans of the last pass, in the
             obs JSONL trace schema, at .perfbench_work/<workload>/spans.jsonl.

Every child command runs under a time limit; a hang, a non-zero exit, an
unsealed ledger, a corrupt artifact reported by fsck, or a behaviour digest
(the ledger bytes without the wall-clock decide_s field and the fin crc) that
differs between repetitions or between the CLI and the traced run counts as a
failed operation.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every check passed.

--out FILE appends the run's full record (median, quartiles and sample count
of every metric, raw wall time, probe time, behaviour) as one JSON line;
`compare` reads two such files and prints one row per workload and end-to-end
metric, with the medians and quartiles over runs and a verdict.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
RUN_LIMIT_S = 170.0  # every child command of one run must end within this
SETUP_SAMPLES = 4  # per repetition
# Reference speed: a host on which the calib.exe probe takes this long.
CAL_REF_S = 0.14
SMOKE_SETUP_SAMPLES = 1
WORK = ".perfbench_work"
BUILT = os.path.join("_build", "default")
WAYFINDER = os.path.join(BUILT, "bin", "wayfinder.exe")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def checkout_root():
    root = os.getcwd()
    for need in ("dune-project", os.path.join("bin", "wayfinder.ml"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, need)):
            die("run from the root of a wayfinder checkout (%s is missing)" % need)
    return root


def bench_exe(root, name):
    """Path, relative to the checkout, of one of the benchmark's own programs."""
    return os.path.join(os.path.relpath(HERE, root), name + ".exe")


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "bin/wayfinder.exe", bench_exe(root, "tracer"),
             bench_exe(root, "calib")],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


# ---------------------------------------------------------------------------
# Child commands and correctness bookkeeping
# ---------------------------------------------------------------------------

class Session:
    """Runs child commands one at a time under a shared time limit and
    counts attempted and failed operations."""

    def __init__(self, root):
        self.root = root
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures = []

    def fail(self, what):
        self.failures.append(what)
        print("perfbench: FAILED: " + what, file=sys.stderr)

    def cmd(self, argv, cwd, label):
        """Run one command; return (ok, wall seconds, stdout, stderr)."""
        self.attempted += 1
        left = self.deadline - time.monotonic()
        if left <= 0:
            self.fail("%s: no time left in the run" % label)
            return False, 0.0, "", ""
        env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
        exe = os.path.join(self.root, argv[0])
        t = time.perf_counter()
        try:
            r = subprocess.run([exe] + argv[1:], cwd=cwd, env=env, capture_output=True,
                               text=True, timeout=left)
        except subprocess.TimeoutExpired:
            self.fail("%s: timed out after %.0f s (hang)" % (label, left))
            return False, time.perf_counter() - t, "", ""
        wall = time.perf_counter() - t
        if r.returncode != 0:
            self.fail("%s: exit %d: %s" % (label, r.returncode, r.stderr.strip()[-400:]))
            return False, wall, r.stdout, r.stderr
        return True, wall, r.stdout, r.stderr

    def calibrate(self, cwd):
        """Seconds the host-speed probe takes right now, or None."""
        ok, _, out, _ = self.cmd([os.path.join(BUILT, bench_exe(self.root, "calib"))], cwd,
                                 "host-speed probe")
        try:
            return float(out.split()[0]) if ok else None
        except (ValueError, IndexError):
            self.check(False, "host-speed probe printed no time")
            return None

    def check(self, cond, what):
        self.attempted += 1
        if not cond:
            self.fail(what)
        return cond


def top_heap_mb(stderr):
    m = re.search(r"top_heap_words: (\d+)", stderr)
    return int(m.group(1)) * 8 / 1e6 if m else 0.0


def child_cpu():
    """User + system CPU seconds of every waited-for child so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def expand(template, seed, n):
    subst = {"{seed}": str(seed), "{n}": str(n), "{half}": str(n // 2)}
    return [subst.get(a, a) for a in template]


def flag_values(args, flag):
    return [args[i + 1] for i, a in enumerate(args[:-1]) if a == flag]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Behaviour: digest, best score, crash fraction
# ---------------------------------------------------------------------------

def normalise(line):
    # The normalisation CI's byte-diff uses: drop the wall-clock decide_s
    # field and the fin seal's crc, first occurrence on each line.
    line = re.sub(r'"decide_s":[0-9.e+-]*', "", line, count=1)
    return re.sub(r'"crc":"[0-9a-f]*"', "", line, count=1)


def behaviour(s, ledgers, n):
    """Digest, best score and crash fraction of a workload's ledgers;
    checks that each is fin-sealed and that they hold n iterations.
    None when a ledger cannot be read."""
    digest = hashlib.sha256()
    values, rows, crashes, maximize = [], 0, 0, True
    for path in ledgers:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
            recs = [json.loads(l) for l in lines if l.strip()]
            maximize = next(r for r in recs if r.get("type") == "meta")["maximize"]
        except (OSError, ValueError, StopIteration, KeyError) as e:
            s.check(False, "%s: unreadable ledger: %s" % (os.path.basename(path), e))
            return None
        for line in lines:
            digest.update(normalise(line).encode() + b"\n")
        iters = [r for r in recs if r.get("type") == "iter"]
        fin = recs[-1]
        s.check(fin.get("type") == "fin" and fin.get("rows") == len(iters),
                "%s is not fin-sealed" % os.path.basename(path))
        rows += len(iters)
        crashes += sum(1 for r in iters if r.get("failure_class") == "deterministic")
        values += [r["value"] for r in iters if r.get("value") is not None]
    s.check(rows == n, "ledgers hold %d iterations, expected %d" % (rows, n))
    best = (max(values) if maximize else -min(values)) if values else 0.0
    return {"digest": digest.hexdigest(), "best_score": best,
            "crash_frac": crashes / rows if rows else 0.0}


# ---------------------------------------------------------------------------
# One untraced repetition through the CLI
# ---------------------------------------------------------------------------

def cli_rep(s, wl, seed, n, d, snapshot=None):
    """Run every step and read command of the workload in directory d.
    Returns the repetition's measurements, or None after a failure."""
    steps = [expand(t, seed, n) for t in wl["steps"]]
    cpu0 = child_cpu()
    run_wall = read_wall = heap = 0.0
    for i, args in enumerate(steps):
        ok, wall, _, err = s.cmd([WAYFINDER] + args, d, "run step %d" % i)
        run_wall += wall
        heap = max(heap, top_heap_mb(err))
        if not ok:
            return None
        if snapshot is not None and wl["setup"]["checkpoint_of_step"] == i:
            ck = flag_values(args, "--checkpoint")[0]
            for f in os.listdir(d):
                if f.startswith(ck):
                    shutil.copy(os.path.join(d, f), snapshot)
    ledgers = [v for args in steps for v in flag_values(args, "--ledger")]
    reads = [["analyze", "--json", "--series", l + ".series.csv", l] for l in ledgers]
    if len(ledgers) >= 2:
        reads.append(["compare"] + ledgers)
    reads += [["watch", "--once", l] for l in ledgers]
    reads.append(["fsck", "--json", "."])
    for args in reads:
        ok, wall, out, err = s.cmd([WAYFINDER] + args, d, args[0])
        read_wall += wall
        heap = max(heap, top_heap_mb(err))
        if not ok:
            return None
        if args[0] in ("analyze", "fsck"):
            try:
                report = json.loads(out)
            except ValueError:
                s.check(False, "%s printed no JSON report" % args[0])
                return None
            if args[0] == "fsck":
                s.check(report.get("corrupt") == 0, "fsck reports corrupt artifacts")
    beh = behaviour(s, [os.path.join(d, l) for l in ledgers], n)
    if beh is None:
        return None
    return dict(beh,
                wall_s=run_wall + read_wall,
                cpu_s=child_cpu() - cpu0,
                iters_per_s=n / run_wall,
                read_s=read_wall,
                peak_heap_mb=heap,
                run_wall=run_wall)


def setup_times(s, wl, seed, n, base, snapshot, samples):
    """Time the set-up path: a zero-iteration run, or a resume from the
    first step's checkpoint with a budget equal to its iteration count."""
    times = []
    for _ in range(samples):
        d = fresh_dir(os.path.join(base, "setup"))
        if wl["setup"]["checkpoint_of_step"] is not None:
            for f in os.listdir(snapshot):
                shutil.copy(os.path.join(snapshot, f), d)
        ok, wall, _, _ = s.cmd([WAYFINDER] + expand(wl["setup"]["args"], seed, n), d, "setup")
        if not ok:
            break
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summary(values):
    """Median, first and third quartile, and count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def consistent(s, reps, what):
    for key in ("digest", "best_score", "crash_frac"):
        s.check(len({r[key] for r in reps}) == 1, "%s differs between %s" % (key, what))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def keep_going(start, walls, seconds):
    """Start another repetition while it is expected to end no later than
    half a repetition past the measuring time."""
    est = statistics.median(walls)
    return time.monotonic() - start + 0.5 * est < seconds


def at_reference_speed(rep, scale):
    """A repetition's times converted to the reference host speed."""
    out = dict(rep, iters_per_s=rep["iters_per_s"] / scale)
    for k in ("wall_s", "cpu_s", "read_s"):
        out[k] = rep[k] * scale
    return out


def run_untraced(s, bench, name, wl, seed, seconds, n, setup_samples):
    """Repeat the workload, timing the set-up path after each repetition,
    until the measuring time is spent, and report medians.

    The host's speed drifts by tens of percent over minutes with other
    tenants' load, which no statistic over one run can remove.  So the
    host-speed probe runs before and after every repetition, and each
    repetition's times are scaled by CAL_REF_S over the mean of the two
    probe times: seconds on a host where the probe takes CAL_REF_S.  The
    probe shares no code with the repository, so a change to the program
    moves these times by the same proportion as raw ones."""
    base = os.path.join(s.root, WORK, name)
    snapshot = fresh_dir(os.path.join(base, "snapshot"))
    reps, raw_walls, setups, probes = [], [], [], []
    start = time.monotonic()
    cal = s.calibrate(base)
    while cal is not None:
        d = fresh_dir(os.path.join(base, "rep"))
        rep = cli_rep(s, wl, seed, n, d, snapshot if not reps else None)
        if rep is None:
            break
        setup = setup_times(s, wl, seed, n, base, snapshot, setup_samples)
        cal_next = s.calibrate(base)
        if cal_next is None:
            break
        scale = CAL_REF_S / ((cal + cal_next) / 2)
        reps.append(at_reference_speed(rep, scale))
        setups += [t * scale for t in setup]
        raw_walls.append(rep["wall_s"])
        probes.append(cal_next)
        cal = cal_next
        if not keep_going(start, raw_walls, seconds):
            break
    if not reps:
        return None
    consistent(s, reps, "repetitions of one seed")
    metrics = {}
    for m in bench["end_to_end"]:
        values = setups if m["name"] == "setup_s" else [r[m["name"]] for r in reps]
        if values:
            metrics[m["name"]] = dict(summary(values), unit=m["unit"])
    beh = {k: reps[0][k] for k in ("digest", "best_score", "crash_frac")}
    host = {"raw_wall_s": statistics.median(raw_walls), "probe_s": statistics.median(probes)}
    return metrics, beh, host


def run_traced(s, bench, name, wl, seed, seconds, n):
    base = os.path.join(s.root, WORK, name)
    cli = cli_rep(s, wl, seed, n, fresh_dir(os.path.join(base, "rep")))
    if cli is None:
        return None
    steps = [expand(t, seed, n) for t in wl["steps"]]
    argv = [os.path.join(BUILT, bench_exe(s.root, "tracer")), "--spans", "spans.jsonl"]
    for i, args in enumerate(steps):
        argv += (["::"] if i else []) + args
    ledgers = [v for args in steps for v in flag_values(args, "--ledger")]
    passes, walls, start = [], [], time.monotonic()
    while True:
        d = fresh_dir(os.path.join(base, "traced"))
        ok, wall, out, _ = s.cmd(argv, d, "traced run")
        if not ok:
            break
        try:
            layer = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            s.check(False, "traced run printed no metrics")
            break
        s.check(layer.pop("analytics.fsck_corrupt") == 0, "fsck (traced) found corrupt artifacts")
        beh = behaviour(s, [os.path.join(d, l) for l in ledgers], n)
        if beh is None:
            break
        consistent(s, [cli, beh], "the CLI run and the traced run")
        if not passes:
            s.cmd([WAYFINDER, "profile", "spans.jsonl"], d, "profile of the traced spans")
        layer["trace.overhead_frac"] = layer["trace.wall_s"] / cli["run_wall"] - 1
        layer["search.best_score"] = beh["best_score"]
        layer["search.crash_frac"] = beh["crash_frac"]
        passes.append(layer)
        walls.append(wall)
        if not keep_going(start, walls, seconds):
            break
    if not passes:
        return None
    shutil.copy(os.path.join(base, "traced", "spans.jsonl"), os.path.join(base, "spans.jsonl"))
    metrics = {}
    for m in bench["per_layer"]:
        values = [p[m["name"]] for p in passes if m["name"] in p]
        if s.check(len(values) == len(passes), "per-layer metric %s missing" % m["name"]):
            metrics[m["name"]] = dict(summary(values), unit=m["unit"])
    return metrics, {k: cli[k] for k in ("digest", "best_score", "crash_frac")}, {}


def measure(root, bench, workloads, name, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the full record."""
    wl = workloads[name]
    n = wl["smoke_iterations"] if smoke else wl["iterations"]
    s = Session(root)
    if trace:
        got = run_traced(s, bench, name, wl, seed, seconds, n)
    else:
        got = run_untraced(s, bench, name, wl, seed, seconds, n,
                           SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES)
    metrics, beh, host = got if got is not None else ({}, {}, {})
    wanted = bench["per_layer" if trace else "end_to_end"]
    for m in wanted:
        s.check(m["name"] in metrics, "metric %s was not measured" % m["name"])
    return {"workload": name, "seed": seed, "trace": int(trace), "iterations": n,
            "correct": not s.failures, "attempted": s.attempted,
            "failed": len(s.failures), "failures": s.failures,
            "metrics": metrics, "behaviour": beh, "host": host}


def report(record, bench):
    """Human-readable lines, then the one-line JSON result."""
    print("workload %s  seed %d  trace %d  iterations %d" %
          (record["workload"], record["seed"], record["trace"], record["iterations"]))
    for name, m in record["metrics"].items():
        print("  %-34s %14.6g %-8s  [q1 %.6g, q3 %.6g]  n=%d" %
              (name, m["value"], m["unit"], m["q1"], m["q3"], m["n"]))
    beh = record["behaviour"]
    if beh:
        print("  %-34s %14.6g %-6s  (exact per seed)" % ("best_score", beh["best_score"], "score"))
        print("  %-34s %14.6g %-6s  (exact per seed)" % ("crash_frac", beh["crash_frac"],
                                                          "frac"))
        print("  behaviour digest %s" % beh["digest"])
    host = record["host"]
    if host:
        print("  raw wall_s median %.6g s; host-speed probe median %.6g s (reference %g s)" %
              (host["raw_wall_s"], host["probe_s"], CAL_REF_S))
    for f in record["failures"]:
        print("  FAILED: " + f)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}}))
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def verdict(parent, change, better, bound):
    """better / worse / same / unresolved for two lists of per-run values."""
    def gain(c, p):
        return c > p if better == "higher" else c < p
    pm, cm = statistics.median(parent), statistics.median(change)
    ps = summary(parent)
    spread = ps["q3"] - ps["q1"]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(c, p))
    if pairs and gain(cm, pm) and wins >= 0.9 * len(pairs) and abs(cm - pm) > spread:
        return "better"
    if all(gain(c, p) for c in change for p in parent):
        return "better"
    if pm and spread / abs(pm) > bound:
        return "unresolved"
    worse_by = (pm - cm if better == "higher" else cm - pm) / abs(pm) if pm else 0.0
    return "worse" if worse_by > bound else "same"


def compare(bench, parent_path, change_path):
    def load(path):
        with open(path) as f:
            return [json.loads(l) for l in f if l.strip()]
    parent, change = load(parent_path), load(change_path)
    names = sorted({r["workload"] for r in parent + change if not r["trace"]})
    print("%-16s %-14s %26s %26s  %s" % ("workload", "metric", "parent median [q1,q3]",
                                         "change median [q1,q3]", "verdict"))
    for w in names:
        pr = [r for r in parent if r["workload"] == w and not r["trace"]]
        cr = [r for r in change if r["workload"] == w and not r["trace"]]
        for m in bench["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in pr if m["name"] in r["metrics"]]
            cv = [r["metrics"][m["name"]]["value"] for r in cr if m["name"] in r["metrics"]]
            if not pv or not cv:
                print("%-16s %-14s %s" % (w, m["name"], "missing on one side"))
                continue
            p, c = summary(pv), summary(cv)
            print("%-16s %-14s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g]  %s (n=%d/%d, bound %g)" %
                  (w, m["name"], p["value"], p["q1"], p["q3"], c["value"], c["q1"], c["q3"],
                   verdict(pv, cv, m["better"], m["bound"]), len(pv), len(cv), m["bound"]))
        # Behaviour is exact per seed: same seed, same ledgers, unless the
        # change altered what the search does.
        for side, recs in (("parent", pr), ("change", cr)):
            for seed in sorted({r["seed"] for r in recs}):
                if len({r["behaviour"].get("digest") for r in recs if r["seed"] == seed}) > 1:
                    print("%-16s digest differs between runs of seed %d on the %s side" %
                          (w, seed, side))
        pb = {r["seed"]: r["behaviour"] for r in pr if r["behaviour"]}
        cb = {r["seed"]: r["behaviour"] for r in cr if r["behaviour"]}
        common = sorted(set(pb) & set(cb))
        changed = [sd for sd in common if pb[sd]["digest"] != cb[sd]["digest"]]
        print("%-16s behaviour: %d of %d common seeds changed%s" %
              (w, len(changed), len(common),
               "".join("; seed %d best %.6g -> %.6g, crash %.4f -> %.4f" %
                       (sd, pb[sd]["best_score"], cb[sd]["best_score"],
                        pb[sd]["crash_frac"], cb[sd]["crash_frac"]) for sd in changed)))


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------

def smoke(root, bench, workloads):
    ok = True
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for n in names:
        if not NAME_RE.match(n):
            print("smoke: bad name %r" % n)
            ok = False
    for w in bench["workloads"]:
        for trace in (0, 1):
            rec = measure(root, bench, workloads, w["name"],
                          workloads[w["name"]]["default_seed"], 0, trace, smoke=True)
            wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
            missing = [m for m in wanted if m not in rec["metrics"]]
            good = rec["correct"] and not missing
            print("smoke: %-16s trace %d  %s  (%d operations%s)" %
                  (w["name"], trace, "ok" if good else "FAILED", rec["attempted"],
                   "; missing " + ", ".join(missing) if missing else ""))
            for f in rec["failures"]:
                print("smoke:   " + f)
            ok = ok and good
    return ok


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            die("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        compare(load_json(os.path.join(checkout_root(), "BENCHMARK.json")), argv[1], argv[2])
        return 0
    ap = argparse.ArgumentParser(description="wayfinder benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full run record to this JSONL file")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload with tiny budgets and check every metric")
    a = ap.parse_args(argv)
    root = checkout_root()
    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    build(root)
    if a.smoke:
        return 0 if smoke(root, bench, workloads) else 1
    if a.workload not in workloads:
        die("--workload must be one of: " + ", ".join(workloads))
    seed = a.seed if a.seed is not None else workloads[a.workload]["default_seed"]
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    record = measure(root, bench, workloads, a.workload, seed, seconds, a.trace)
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    report(record, bench)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: serve, mobility and compute workloads.

    python3 perfbench/run.py --workload serve|mobility|compute \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload, tiny sizes

Run from the root of a checkout. The first call builds the runtime, the
tycod/tycoload tools and the in-process harness into .bench_build (or
$CARGO_TARGET_DIR). With --trace 0 the last stdout line carries every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer one.
perfbench/README.md describes the workloads, metrics and known defects.
"""
import argparse
import hashlib
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "mobility", "compute")
PHASES = ("rpc", "rpc_peak", "churn")
BUILD_TYPE = "Release"

# serve: one tycod, one pb_load connection per session, open loop. The
# peak rate sits well below the highest swept rate that met p99 <= 2 ms
# with nothing shed (README.md, "Choosing the peak rate"). A closed-loop
# `sat` session with SAT_INFLIGHT requests in flight ends each cycle:
# its throughput is what the daemon sustains.
SERVE_RATES = {"rpc": 4000, "rpc_peak": 12000, "churn": 4000}
SAT_INFLIGHT = 32
SERVE_SETUPS = 3  # daemon boots per run; setup_s is their median
SERVE_CYCLES = 6  # each phase runs once per cycle


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


# -- build -------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    for need in ("src/core/network.hpp", "tools/tycod.cpp",
                 "tools/tycoload.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("cannot build: %s is missing (run from a full checkout)" %
                need)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "tycod",
           "tycoload", "pb_load", "pb_harness"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return bdir


def environment():
    """What a result depends on besides the code (ROADMAP aim 1)."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for ln in f:
                if ln.startswith("model name"):
                    model = ln.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cpus = sorted(os.sched_getaffinity(0))
    mask = sum(1 << c for c in cpus)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"nproc": os.cpu_count(), "affinity": hex(mask),
            "affinity_cpus": len(cpus), "cpu_model": model,
            "build_type": BUILD_TYPE, "commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


# -- spans (serve: recorded around the processes this script drives) ---

class Spans:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name, op=0):
        self.spans.append({"name": name, "start_ns": time.monotonic_ns(),
                           "end_ns": 0,
                           "parent": self.stack[-1] if self.stack else -1,
                           "op": op})
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()]["end_ns"] = time.monotonic_ns()

    def self_ms(self):
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end_ns"] - s["start_ns"]
        out = {}
        for i, s in enumerate(self.spans):
            layer = s["name"].split(".")[0]
            dur = s["end_ns"] - s["start_ns"] - child[i]
            out[layer] = out.get(layer, 0.0) + dur / 1e6
        return out


# -- serve ---------------------------------------------------------------

def read_line_matching(stream, pattern, deadline):
    """Read `stream` line by line until one matches; None on timeout/EOF."""
    buf = b""
    fd = stream.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.05)
        if not ready:
            continue
        chunk = os.read(fd, 1)
        if not chunk:
            return None
        buf += chunk
        if chunk == b"\n":
            text = buf.decode(errors="replace")
            buf = b""
            m = re.search(pattern, text)
            if m:
                return m
    return None


def pin(client):
    """preexec_fn placing a child on the last of this process's CPUs (the
    client) or on all the others (the daemon), so the two do not migrate
    onto each other's cores."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None
    mine = {cpus[-1]} if client else set(cpus[:-1])
    return lambda: os.sched_setaffinity(0, mine)


def wait_idle(pid):
    """Wait until the daemon has used no CPU for 0.3 s: its Network::run()
    has returned (the threads of a running one poll) and the failure
    detector has buried the clients that left, which takes about a
    second. Returns the seconds waited."""
    t0 = time.monotonic()
    quiet = 0
    while quiet < 3 and time.monotonic() - t0 < 3.0:
        c0 = cpu_ticks(pid)
        time.sleep(0.1)
        quiet = quiet + 1 if cpu_ticks(pid) == c0 else 0
    return time.monotonic() - t0


def peak_rss_kb(pid):
    """VmHWM of a live process. (A child's rusage maxrss cannot be used:
    it starts from this Python process's size at fork.)"""
    with open("/proc/%d/status" % pid) as f:
        for ln in f:
            if ln.startswith("VmHWM:"):
                return int(ln.split()[1])
    return 0


def cpu_ticks(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


class Daemon:
    """One tycod hosting the name service and the echo site. Its output
    goes to files, so a large --stats dump can never block its exit."""

    def __init__(self, bdir, program, log, idle_exit_ms, serve_ms,
                 stats=False):
        cmd = [os.path.join(bdir, "tycod"), "--listen", "127.0.0.1:0",
               "--idle-exit-ms", str(idle_exit_ms), "--serve-ms",
               str(serve_ms)] + (["--stats"] if stats else []) + [program]
        self.log = log
        self.t0 = time.monotonic()
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                         preexec_fn=pin(client=False))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and self.proc.poll() is None:
            with open(log + ".out", errors="replace") as f:
                m = re.search(r"listening on [^:]+:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
                return
            time.sleep(0.001)
        self.kill()
        die("tycod did not come up", 1)

    def wait(self, timeout):
        """Reap the daemon; returns (exit code, stdout, stderr)."""
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return None, "", "tycod did not exit within %.0fs" % timeout
        with open(self.log + ".out", errors="replace") as o, \
                open(self.log + ".err", errors="replace") as e:
            return code, o.read(), e.read()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    # As a context manager, a daemon left running by an error is killed.
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()


def load(bdir, port, self_id, scenario, rate, duration_ms, increment,
         on_ready=None, closed=0):
    """One pb_load process, open loop at `rate` or closed loop with
    `closed` requests in flight; returns its JSON report."""
    cmd = [os.path.join(bdir, "pb_load"), "--join", "127.0.0.1:%d" % port,
           "--self", str(self_id), "--scenario", scenario, "--rate",
           str(rate), "--duration-ms", str(duration_ms), "--increment",
           str(increment), "--closed", str(closed)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         preexec_fn=pin(client=True))
    m = read_line_matching(p.stderr, r"pb_load: ready", time.monotonic() + 30)
    if on_ready:
        on_ready(m is not None)
    try:
        out, _ = p.communicate(timeout=duration_ms / 1000 + 30)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        return None
    lines = [ln for ln in out.decode(errors="replace").splitlines()
             if ln.startswith("{")]
    return json.loads(lines[-1]) if p.returncode == 0 and lines else None


def increment(seed):
    return 1 + seed % 97


def echo_program(run_dir, seed):
    """The daemon's program; the seed picks the echo increment, which
    pb_load checks on every reply."""
    path = os.path.join(run_dir, "echo.dtc")
    with open(path, "w") as f:
        f.write("site echo { export new svc in def Serve(self) = "
                "self?{ val(x, r) = (r![x + %d] | Serve[self]) } in "
                "Serve[svc] }\n" % increment(seed))
    return path


def serve_setup_sample(bdir, program, seed, self_id, spans):
    """Daemon boot until the first import has resolved, in seconds."""
    spans.begin("core.daemon_boot")
    with Daemon(bdir, program, os.path.join(os.path.dirname(program), "probe"),
                idle_exit_ms=200, serve_ms=30000) as d:
        stamp = {}
        rep = load(bdir, d.port, self_id, "rpc", 1000, 1, increment(seed),
                   on_ready=lambda ok: stamp.update(t=time.monotonic(), ok=ok))
        spans.end()
        code, _, err = d.wait(30)
    if not stamp.get("ok") or rep is None or code != 0:
        die("serve set-up probe failed: %s" % err.strip()[-300:], 1)
    return stamp["t"] - d.t0


def run_serve_phases(bdir, program, seed, phase_ms, spans, stats=False,
                     client_ids=1000):
    """Boot the measured daemon, drive SERVE_CYCLES cycles of the three
    phases and the `sat` session (one pb_load session each), reap it.
    Cycling spreads every phase over the whole run, so a slow stretch of
    the host does not land on one phase alone."""
    tick = os.sysconf("SC_CLK_TCK")
    spans.begin("core.daemon_boot")
    with Daemon(bdir, program, os.path.join(os.path.dirname(program),
                                            "tycod-%d" % client_ids),
                idle_exit_ms=1500,
                serve_ms=4 * SERVE_CYCLES * phase_ms + 60000,
                stats=stats) as d:
        spans.end()
        sessions = {name: [] for name in PHASES + ("sat",)}
        cpu0 = cpu_ticks(d.proc.pid)
        sat_ticks = 0
        pauses = []
        for cycle in range(SERVE_CYCLES):
            for k, name in enumerate(PHASES + ("sat",)):
                sat = name == "sat"
                spans.begin("core.serve_phase", op=4 * cycle + k + 1)
                if sat:
                    c0 = cpu_ticks(d.proc.pid)
                sessions[name].append(load(
                    bdir, d.port, client_ids + 4 * cycle + k,
                    "churn" if name == "churn" else "rpc",
                    SERVE_RATES["rpc" if sat else name], phase_ms,
                    increment(seed), closed=SAT_INFLIGHT if sat else 0))
                if sat:
                    sat_ticks += cpu_ticks(d.proc.pid) - c0
                spans.end()
            # Let the daemon's Network::run() reach quiescence: one
            # stretch of continuous load must stay under tycod's 10 s run
            # cap. run_cap_probe() shows what happens past it.
            pauses.append(wait_idle(d.proc.pid))
        # Daemon CPU over the open-loop phases only.
        cpu_s = (cpu_ticks(d.proc.pid) - cpu0 - sat_ticks) / tick
        hwm_kb = peak_rss_kb(d.proc.pid)
        idle = None
        if stats:  # daemon CPU over one idle second
            c0 = cpu_ticks(d.proc.pid)
            time.sleep(1.0)
            idle = (cpu_ticks(d.proc.pid) - c0) * 1000.0 / tick
        code, out, err = d.wait(30)
    return {"sessions": sessions, "pauses_s": pauses, "code": code,
            "out": out, "err": err,
            "cpu_s": cpu_s, "idle_cpu_ms_per_s": idle, "hwm_kb": hwm_kb}


def phase_stats(sessions):
    """Per phase: medians over the 1000-request windows of its sessions
    (p50 and p99), completed requests and load seconds. Each session's
    first window is left out: it holds the connection's start and the
    daemon's restart of Network::run() after the pause."""
    out = {}
    for name in PHASES:
        reps = [r for r in sessions[name] if r]
        p50s = [w for r in reps for w in r["window_p50s"][1:]]
        p99s = [w for r in reps for w in r["window_p99s"][1:]]
        if not p50s:  # sessions too short for windows (smoke runs)
            p50s = [r["p50_us"] for r in reps]
            p99s = [r["p99_us"] for r in reps]
        out[name] = {
            "p50_us": statistics.median(p50s) if p50s else 0.0,
            "p99_us": statistics.median(p99s) if p99s else 0.0,
            "completed": sum(r["completed"] for r in reps),
            "load_s": sum(r["load_s"] for r in reps)}
    return out


def check_serve(res, errors):
    """Daemon exits cleanly; every sent request is accounted for and got
    the right reply."""
    attempted = failed = completed = 0
    for name, reps in res["sessions"].items():
        for rep in reps:
            if rep is None:
                errors.append("%s: pb_load produced no report" % name)
                continue
            intended = rep["sent"] + rep["shed"]
            attempted += intended
            failed += rep["failed"]
            completed += rep["completed"]
            if rep["completed"] + rep["timeouts"] + rep["bad_replies"] != \
                    rep["sent"]:
                errors.append("%s: completed + failed != sent" % name)
            if rep["failed"]:
                errors.append("%s: %d of %d requests failed (%d wrong "
                              "replies)" % (name, rep["failed"], intended,
                                            rep["bad_replies"]))
    if res["code"] != 0:
        errors.append("tycod exited with %s" % res["code"])
    if "error:" in res["err"]:
        errors.append("tycod runtime errors: " + res["err"].strip()[-300:])
    if "-- quiescent" not in res["out"]:
        errors.append("tycod did not end quiescent")
    return attempted, failed, completed


def run_cap_probe(bdir, run_dir):
    """The run-cap defect, shown rather than sized away: tycod's default
    --timeout-ms caps one Network::run() at 10 s, so 12 s of continuous
    tycoload traffic breaks its serve loop. Returns the counts, which are
    recorded but not gated (README.md, "Known defects")."""
    probe_dir = os.path.join(run_dir, "runcap")
    os.makedirs(probe_dir, exist_ok=True)
    program = echo_program(probe_dir, 0)
    with Daemon(bdir, program, os.path.join(probe_dir, "tycod"),
                idle_exit_ms=1500, serve_ms=60000) as d:
        p = subprocess.run([os.path.join(bdir, "tycoload"), "--join",
                            "127.0.0.1:%d" % d.port, "--import", "echo:svc",
                            "--rate", "2000", "--duration-ms", "12000",
                            "--json"], capture_output=True, text=True,
                           timeout=60)
        code, out, _ = d.wait(60)
    lines = p.stdout.strip().splitlines()
    rep = json.loads(lines[-1]) if lines else {}
    sent = rep.get("sent", 0)
    return {"defect.run_cap_sent": sent,
            "defect.run_cap_failed": rep.get("failed", 0),
            "defect.run_cap_fail_frac": rep.get("failed", 0) / max(sent, 1),
            "defect.run_cap_budget_exhausted": "BUDGET EXHAUSTED" in out,
            "defect.run_cap_tycod_exit": code}


def serve(bdir, args, run_dir, spans, smoke):
    program = echo_program(run_dir, args.seed)
    phase_ms = max(100, int(args.seconds * 1000 / (4 * SERVE_CYCLES)))
    setup = [serve_setup_sample(bdir, program, args.seed, 900 + i, spans)
             for i in range(SERVE_SETUPS)]
    errors = []
    if args.trace:  # two measured daemons: each takes half the time
        phase_ms //= 2
    res = run_serve_phases(bdir, program, args.seed, phase_ms, spans)
    attempted, failed, _ = check_serve(res, errors)
    stats = phase_stats(res["sessions"])
    completed = sum(p["completed"] for p in stats.values())
    sat = [r["completed"] / r["load_s"] for r in res["sessions"]["sat"] if r]
    e2e = {"setup_s": (statistics.median(setup), "s"),
           "ops_per_s": (statistics.median(sat) if sat else 0.0, "1/s")}
    for name in PHASES:
        e2e[name + "_p50_us"] = (stats[name]["p50_us"], "us")
        e2e[name + "_p99_us"] = (stats[name]["p99_us"], "us")
    e2e["cpu_us_per_op"] = (res["cpu_s"] * 1e6 / max(completed, 1), "us")
    e2e["peak_rss_mb"] = (res["hwm_kb"] / 1024.0, "MB")
    info = {"phase_ms": phase_ms, "cycles": SERVE_CYCLES,
            "rates": SERVE_RATES, "sat_inflight": SAT_INFLIGHT,
            "setup_samples_s": setup, "pauses_s": res["pauses_s"],
            "sessions": res["sessions"],
            "tycod_cpu_s": res["cpu_s"]}
    if not smoke:  # the probe needs more than 10 s
        info.update(run_cap_probe(bdir, run_dir))
    if not args.trace:
        return e2e, None, attempted, failed, errors, info

    # A second daemon with --stats: its counters give the per-operation
    # counts, and it is left idle for a second at the end.
    counted = run_serve_phases(bdir, program, args.seed, phase_ms, spans,
                               stats=True, client_ids=2000)
    a2, f2, done2 = check_serve(counted, errors)
    attempted += a2
    failed += f2
    layers = harness_layers(bdir, program, args, run_dir, errors)
    instr = re.search(r"-- quiescent, (\d+) instructions", counted["out"])
    instr_per_op = int(instr.group(1)) / max(done2, 1) if instr else 0.0
    layers["vm.instr_per_op"] = (instr_per_op, "count")

    def stat(name):
        m = re.search(r"^%s\S* (\d+)" % name, counted["out"], re.M)
        return int(m.group(1)) if m else 0
    frames = stat("tcp_frames_in") + stat("tcp_frames_out")
    layers["core.wire.packets_per_op"] = (frames / max(done2, 1), "count")
    # tycod counts only the bytes it receives: inbound bytes per operation.
    layers["core.wire.bytes_per_op"] = (stat("tcp_bytes_in") / max(done2, 1),
                                        "bytes")
    layers["core.idle_cpu_ms_per_s"] = (counted["idle_cpu_ms_per_s"], "ms/s")
    # Residual of one rpc request: what the timed layers do not cover.
    covered = (layers["net.tcp_rtt_us"][0] +
               2 * layers["core.wire.msg_codec_ns"][0] / 1e3 +
               layers["vm.ns_per_instr"][0] * instr_per_op / 1e3)
    rpc_p50 = phase_stats(counted["sessions"])["rpc"]["p50_us"]
    layers["core.sched_wait_us"] = (rpc_p50 - covered, "us")
    for layer, ms in spans.self_ms().items():
        key = layer + ".self_ms"
        if key in layers:
            layers[key] = (layers[key][0] + ms, "ms")
    return e2e, layers, attempted, failed, errors, info


def harness_layers(bdir, program, args, run_dir, errors):
    out = run_harness(bdir, ["--workload", "serve", "--layers", "--program",
                             program, "--seed", str(args.seed), "--trace-out",
                             os.path.join(run_dir, "harness_spans.json")])
    errors.extend(out["errors"])
    return {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}


# -- mobility / compute ----------------------------------------------------

def run_harness(bdir, extra):
    """Run pb_harness; returns its JSON document."""
    p = subprocess.run([os.path.join(bdir, "pb_harness")] + extra,
                       stdout=subprocess.PIPE, timeout=170)
    lines = [ln for ln in p.stdout.decode(errors="replace").splitlines()
             if ln.startswith("{")]
    if p.returncode != 0 or not lines:
        die("pb_harness %s failed (exit %s)" % (" ".join(extra),
                                                p.returncode), 1)
    return json.loads(lines[-1])


def in_process(bdir, args, run_dir, smoke):
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-out", os.path.join(run_dir, "harness_spans.json")]
    doc = run_harness(bdir, extra + (["--smoke"] if smoke else []))
    metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
    _, layer_names = benchmark_spec()
    e2e = {k: v for k, v in metrics.items() if k not in layer_names}
    layers = ({k: v for k, v in metrics.items() if k in layer_names}
              if args.trace else None)
    return (e2e, layers, doc["attempted"], doc["failed"], doc["errors"],
            doc["info"])


# -- one run ---------------------------------------------------------------

def run_once(args, bdir, smoke=False):
    run_dir = os.path.join(bdir, "runs", "%s-seed%d-trace%d" %
                           (args.workload, args.seed, args.trace))
    os.makedirs(run_dir, exist_ok=True)
    spans = Spans()
    if args.workload == "serve":
        e2e, layers, attempted, failed, errors, info = serve(
            bdir, args, run_dir, spans, smoke)
    else:
        e2e, layers, attempted, failed, errors, info = in_process(
            bdir, args, run_dir, smoke)
    if errors and failed == 0:
        failed = attempted  # a failed check counts the run's operations
    e2e_names, layer_names = benchmark_spec()
    names = layer_names if args.trace else e2e_names
    shown = layers if args.trace else e2e
    missing = [n for n in names if n not in shown]
    if missing:
        die("metrics not produced: " + ", ".join(missing), 1)
    for name, (value, unit) in e2e.items():
        print("%-10s %-28s %14.4f %s" % (args.workload, name, value, unit))
    print("%-10s %-28s %14.6f %s" % (args.workload, "fail_frac",
                                     failed / max(attempted, 1), "ratio"))
    for name in sorted(k for k in info if k.startswith("defect.")):
        print("%-10s %-28s %14s (known defect, not gated)" % (
            args.workload, name, info[name]))
    if layers:
        for name in layer_names:
            print("%-10s %-28s %14.4f %s" % (args.workload, name,
                                             layers[name][0], layers[name][1]))
    for e in errors:
        print("CHECK FAILED: " + e)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": shown[n][0], "unit": shown[n][1]}
                          for n in names}}
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": env, "info": info, "errors": errors,
                   "end_to_end": {k: v[0] for k, v in e2e.items()},
                   "result": result}, f, indent=1)
    if spans.spans:
        with open(os.path.join(run_dir, "spans.json"), "w") as f:
            json.dump(spans.spans, f)
    print(json.dumps(result))
    return result


def smoke(bdir):
    """Every workload at tiny size, both modes: outputs checked and every
    named metric emitted."""
    ok = True
    for w in WORKLOADS:
        for t in (0, 1):
            args = argparse.Namespace(workload=w, seed=7, seconds=1.0, trace=t)
            r = run_once(args, bdir, smoke=True)
            ok = ok and r["correct"] and r["failed"] == 0
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (args.smoke or args.workload):
        ap.error("--workload or --smoke is required")
    bdir = build()
    if args.smoke:
        return smoke(bdir)
    run_once(args, bdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

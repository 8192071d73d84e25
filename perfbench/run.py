#!/usr/bin/env python3
"""Softcache benchmark: three `srun` workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload solo_thrash --seed 1 --seconds 30 --trace 0

The first call configures and builds the repository (tools/srun) and the
helpers in perfbench/ under .bench_build/. Every measured run is one `srun`
process; its guest results are checked against references computed on the
same seeded input. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced run
(perfbench/ledger for the solo workloads, `srun --metrics` for the fleet)
alongside untraced runs and reports the per-layer metrics. See
perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
HELPER_BUILD = os.path.join(BUILD, "perfbench")
SRUN = os.path.join(REPO_BUILD, "tools", "srun")
GEN_INPUT = os.path.join(HELPER_BUILD, "gen_input")
LEDGER = os.path.join(HELPER_BUILD, "ledger")
SPEED_PROBE = os.path.join(HELPER_BUILD, "speed_probe")

CHILD_TIMEOUT_S = 120
# Measured runs per invocation, whatever --seconds says.
MIN_SAMPLES = 3
# Environment variables that silently change the measured program.
SCRUBBED_ENV_PREFIX = "SOFTCACHE_"


@dataclass(frozen=True)
class Workload:
    program: str      # workloads:: registry name
    scale: int        # workloads::MakeInput scale
    tcache: int       # --tcache bytes
    clients: int
    fleet_flags: tuple = ()


WORKLOADS = {
    # Hot set resident in the default 16 KB tcache: host time is VM dispatch.
    "solo_hot": Workload("mpeg2enc", 4, 16384, 1),
    # Working set far above a 2 KB tcache: host time is the miss path.
    "solo_thrash": Workload("cjpeg", 4, 2048, 1),
    # 16 clients sharing one sharded server with coalesced replies, on
    # srun's default deterministic round-robin scheduler. `--threads=4`
    # turns host CPU steal into 5-6x wall-time swings (README finding c).
    "fleet_thrash": Workload("cjpeg", 1, 2048, 16,
                             ("--shared-reply", "--shards=4")),
}


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# --- build -----------------------------------------------------------------

def run_build_step(cmd, log):
    with open(log, "ab") as out:
        out.write(("$ " + " ".join(cmd) + "\n").encode())
        out.flush()
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT)
    if code != 0:
        with open(log, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        die(f"build step failed ({' '.join(cmd[:3])} ...):\n{tail}")


def read_cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def refuse_sanitized(cache):
    """Timing a sanitizer build measures the sanitizer, not the program."""
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS",
        "CMAKE_CXX_FLAGS_RELWITHDEBINFO"))
    if cache.get("SOFTCACHE_SANITIZE", "OFF").upper() not in ("OFF", ""):
        die("refusing a sanitizer build (SOFTCACHE_SANITIZE="
            f"{cache['SOFTCACHE_SANITIZE']})")
    if "sanitize" in flags:
        die(f"refusing a sanitizer build (flags: {flags.strip()})")
    if cache.get("CMAKE_BUILD_TYPE") not in ("RelWithDebInfo", "Release"):
        die(f"refusing build type {cache.get('CMAKE_BUILD_TYPE')!r}")
    with open(SRUN, "rb") as f:
        binary = f.read()
    if b"__asan_init" in binary or b"__tsan_init" in binary:
        die("refusing a sanitizer-instrumented srun")


def build(with_ledger):
    for required in ("CMakeLists.txt", "tools/srun.cpp",
                     "src/workloads/workloads.h", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die(f"{required} is missing: run from a full source checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(REPO_BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", ROOT, "-B", REPO_BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        "-DSOFTCACHE_SANITIZE=OFF"], log)
    run_build_step(["cmake", "--build", REPO_BUILD, "--target", "srun",
                    "-j", jobs], log)
    cache = read_cmake_cache(REPO_BUILD)
    refuse_sanitized(cache)
    libs = sorted(glob.glob(os.path.join(REPO_BUILD, "src", "**", "*.a"),
                            recursive=True))
    if not libs:
        die("no static libraries found in the repository build")
    run_build_step(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                    "-B", HELPER_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    f"-DCMAKE_CXX_COMPILER={cache.get('CMAKE_CXX_COMPILER', 'c++')}",
                    f"-DSC_REPO_DIR={ROOT}", "-DSC_LIBS=" + ";".join(libs)], log)
    targets = ["gen_input", "speed_probe"] + (["ledger"] if with_ledger
                                              else [])
    run_build_step(["cmake", "--build", HELPER_BUILD, "--target", *targets,
                    "-j", jobs], log)
    return cache


def environment_record(cache):
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    # The checkout the benchmark runs in need not be a git repository, so
    # the sources that make up srun are also identified by content.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": version,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "scrubbed_env": sorted(k for k in os.environ
                               if k.startswith(SCRUBBED_ENV_PREFIX)),
    }


def host_cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux. Steal is time
    a hypervisor ran other guests on this machine's CPUs: it inflates
    elapsed times, so it is taken out of each child's and recorded."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


# --- child processes -------------------------------------------------------

CHILD_ENV = {k: v for k, v in os.environ.items()
             if not k.startswith(SCRUBBED_ENV_PREFIX)}


CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: str
    # Spawn to reap less host steal (busy_wall_s): what the program
    # took, not what other guests took from it.
    wall_s: float
    rss_mb: float
    elapsed_s: float  # spawn to reap, as a clock on the wall sees it
    stolen_s: float   # host steal over all CPUs while the process ran


def busy_wall_s(elapsed_s, stolen_s, cpu_s):
    """Elapsed time less steal, but never less than the child's own CPU
    time: steal is summed over all CPUs, and the part of it taken from
    other CPUs than the child's can only be told apart this way. A child
    that kept more than one CPU busy on average gets no correction."""
    return max(min(cpu_s, elapsed_s), elapsed_s - stolen_s)


def run_child(cmd, work):
    """Runs one process to completion; times it from spawn to reap."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        lock = threading.Lock()
        reaped = False
        ticks_before = host_cpu_ticks()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=CHILD_ENV,
                                cwd=work)

        def on_timeout():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
        elapsed = time.perf_counter() - start
        ticks_after = host_cpu_ticks()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stolen = (ticks_after[0] - ticks_before[0]) / CLK_TCK \
        if ticks_before and ticks_after else 0.0
    wall = busy_wall_s(elapsed, stolen, usage.ru_utime + usage.ru_stime)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024,
                 elapsed, stolen)


def stat(stderr, label):
    m = re.search(rf"^{label}:\s+(\d+)", stderr, re.M)
    return int(m.group(1)) if m else None


# --- references and checks -------------------------------------------------

@dataclass
class Reference:
    """Guest results every measured run must reproduce."""
    stdout: bytes
    code: int                # srun's exit status: the guest exit code & 0xff
    native_cycles: int
    # The same softcache command on the interpreter engine: per client
    # (exit, instructions, cycles, translations), then the link's bytes.
    guest: tuple


@dataclass
class RunCheck:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, clients, bad, reason=None):
        self.attempted += clients
        self.failed += bad
        if bad and reason and len(self.reasons) < 20:
            self.reasons.append(reason)


def srun_command(wl, input_path, extra=(), engine="threaded"):
    cmd = [SRUN, f"--workload={wl.program}", f"--input={input_path}",
           "--softcache", f"--engine={engine}", "--style=sparc",
           "--prefetch=off", f"--tcache={wl.tcache}", "--stats"]
    if wl.clients > 1:
        cmd += [f"--clients={wl.clients}", *wl.fleet_flags]
    return cmd + list(extra)


def wire_bytes_from_metrics(path):
    """Exact link bytes from a solo run's metrics export, which is then
    removed so that the next run must write its own; None if missing."""
    try:
        with open(path) as f:
            counters = json.load(f)["counters"]
        os.remove(path)
        return counters["net.channel.bytes_to_client"] + \
            counters["net.channel.bytes_to_server"]
    except (OSError, ValueError, KeyError):
        return None


CLIENT_LINE = re.compile(
    r"^client \d+: exit=(-?\d+) instrs=(\d+) cycles=(\d+) translated=(\d+)$",
    re.M)


def guest_results(wl, child, metrics_path):
    """A softcache run's guest results in Reference.guest form, from its
    --stats (and, for one client, its metrics export); None if missing."""
    if wl.clients == 1:
        client = (child.code, stat(child.stderr, "instructions"),
                  stat(child.stderr, "cycles"),
                  stat(child.stderr, "blocks translated"))
        wire = wire_bytes_from_metrics(metrics_path)
        return None if None in client or wire is None else ((client,), wire)
    clients = CLIENT_LINE.findall(child.stderr)
    wire = re.search(r"^shared-reply: .* wire_bytes=(\d+)", child.stderr, re.M)
    if len(clients) != wl.clients or wire is None:
        return None
    return (tuple(tuple(int(x) for x in c) for c in clients),
            int(wire.group(1)))


def make_reference(wl, input_path, work):
    # Native run: the program's own output and exit status.
    native = run_child([SRUN, f"--workload={wl.program}",
                        f"--input={input_path}", "--engine=threaded",
                        "--stats"], work)
    native_cycles = stat(native.stderr, "cycles")
    if native_cycles is None:
        die(f"native reference run failed:\n{native.stderr[-2000:]}")
    # The measured command on the interpreter engine, the differential
    # oracle: both engines must give bit-identical guest results, and the
    # round-robin fleet repeats them exactly too.
    metrics = os.path.join(work, "reference.metrics.json")
    ref = run_child(srun_command(wl, input_path, [f"--metrics={metrics}"],
                                 engine="interp"), work)
    guest = guest_results(wl, ref, metrics)
    if ref.code != native.code or ref.stdout != native.stdout or guest is None:
        die(f"softcache reference run disagrees with the native run:\n"
            f"{ref.stderr[-2000:]}")
    return Reference(native.stdout, native.code, native_cycles, guest)


def check_guest(wl, code, stdout, guest, ref, check, what):
    """Gates one run's guest results; True when every client matched."""
    if code != ref.code or stdout != ref.stdout or guest is None:
        check.record(wl.clients, wl.clients,
                     f"{what}: exit {code}, stdout {len(stdout)} B, stats "
                     f"{'missing' if guest is None else 'present'}; reference "
                     f"exit {ref.code}, stdout {len(ref.stdout)} B")
        return False
    clients, wire = guest
    bad = sum(got != want for got, want in zip(clients, ref.guest[0]))
    if wire != ref.guest[1]:
        bad = wl.clients
    check.record(wl.clients, bad,
                 f"{what}: guest results {guest} != reference {ref.guest}")
    return bad == 0


def check_run(wl, child, ref, check, metrics_path=None):
    """Checks one full srun run against the reference.

    Returns the run's end-to-end sample, or None when it failed."""
    guest = guest_results(wl, child, metrics_path)
    if not check_guest(wl, child.code, child.stdout, guest, ref, check,
                       "srun run"):
        return None
    clients, wire = guest
    return {"instructions": sum(c[1] for c in clients),
            "cycles": [c[2] for c in clients], "wire_bytes": wire}


def end_to_end_sample(wl, child, sample, ref):
    return {
        "wall_s": child.wall_s,
        "instructions": sample["instructions"],
        "peak_rss_mb": child.rss_mb,
        "guest_slowdown": statistics.fmean(sample["cycles"]) / ref.native_cycles,
        "wire_bytes_per_client": sample["wire_bytes"] / wl.clients,
    }


def check_setup(wl, child, check):
    """A 1-instruction run: set-up plus one guest instruction per client."""
    if wl.clients == 1:
        ok = child.code == 0 and stat(child.stderr, "instructions") == 1
    else:
        clients = CLIENT_LINE.findall(child.stderr)
        ok = child.code == 0 and len(clients) == wl.clients and all(
            c[1] == "1" for c in clients)
    check.record(wl.clients, 0 if ok else wl.clients,
                 None if ok else f"setup run failed: {child.stderr[-300:]}")
    return ok


# --- the two kinds of invocation ---------------------------------------------

# speed_probe's CPU nanoseconds per step on the reference core that
# reported times are scaled to: about the median reading on the 4-vCPU
# Xeon virtual machine the benchmark was tuned on.
REFERENCE_NS_PER_STEP = 20.0


def probe_speed(work):
    """One speed_probe sample: ns per step, or None if it failed."""
    probe = run_child([SPEED_PROBE], work)
    try:
        return float(probe.stdout.split()[0]) if probe.code == 0 else None
    except (IndexError, ValueError):
        return None


def measure_end_to_end(wl, input_path, ref, seconds, work, check):
    metrics_path = os.path.join(work, "run.metrics.json")
    extra = [f"--metrics={metrics_path}"] if wl.clients == 1 else []
    cmd = srun_command(wl, input_path, extra)
    setup_cmd = srun_command(wl, input_path, ["--max-instr=1"])
    # Warm-up: the first run in a fresh checkout pays cold page-cache and
    # allocator costs users see once; it is checked but not reported.
    warmup = run_child(cmd, work)
    check_run(wl, warmup, ref, check, metrics_path)
    samples, setups, clocks, probes = [], [], [], []
    start = time.perf_counter()
    iterations = 0
    while time.perf_counter() - start < seconds or iterations < MIN_SAMPLES:
        iterations += 1
        probes.append(probe_speed(work))
        setup = run_child(setup_cmd, work)
        if check_setup(wl, setup, check):
            setups.append(setup.wall_s)
        probes.append(probe_speed(work))
        child = run_child(cmd, work)
        sample = check_run(wl, child, ref, check, metrics_path)
        if sample is not None:
            samples.append(end_to_end_sample(wl, child, sample, ref))
        clocks.append({"setup_elapsed_s": setup.elapsed_s,
                       "setup_stolen_s": setup.stolen_s,
                       "elapsed_s": child.elapsed_s,
                       "stolen_s": child.stolen_s})
        if check.failed and not samples:
            break
    probes.append(probe_speed(work))
    return samples, setups, clocks, probes, warmup.wall_s


def end_to_end_values(samples, setups, probes):
    """The end-to-end metrics of one call.

    On a shared host the speed of a core swings by half within minutes,
    with its clock and with what other guests run on its hyperthread
    sibling: far more than any bound. So times are scaled to the
    reference core, by REFERENCE_NS_PER_STEP ÷ the mean speed_probe
    reading, sampled before every set-up and measured run. Means, not
    medians: the core flips between fast and slow states from second to
    second, and the means of runs and probes both follow the share of
    time spent in each, where a median snaps to one state."""
    speeds = [p for p in probes if p is not None]
    if not samples or not setups or not speeds:
        return {}
    scale = REFERENCE_NS_PER_STEP / statistics.fmean(speeds)
    wall_s = statistics.fmean(s["wall_s"] for s in samples) * scale
    instructions = statistics.median(s["instructions"] for s in samples)
    values = {"wall_s": wall_s, "guest_mips": instructions / wall_s / 1e6,
              "setup_s": statistics.fmean(setups) * scale}
    for name in ("peak_rss_mb", "guest_slowdown", "wire_bytes_per_client"):
        values[name] = statistics.median(s[name] for s in samples)
    return values


def fleet_layer_metrics(path, wall_s):
    """Per-layer numbers from a fleet run's `srun --metrics` export."""
    with open(path) as f:
        registry = json.load(f)
    counters, hists = registry["counters"], registry["histograms"]

    def per_client(name):
        return sum(v for k, v in counters.items()
                   if re.fullmatch(rf"c\d+\.{re.escape(name)}", k))

    misses = per_client("cc.tcmiss_traps") + per_client("cc.hash_lookups")
    lookups = counters["mc.translates"] + counters["mc.translate_memo_hits"]
    return {
        "vm.sb.fills": per_client("vm.sb.fills"),
        "vm.sb.invalidations": per_client("vm.sb.invalidations"),
        "cc.misses": misses,
        "cc.evictions": per_client("cc.evictions"),
        "cc.patch_only_frac": per_client("cc.patch_only_misses") / misses,
        "link.calls": per_client("net.channel.messages_to_server"),
        "link.retries": per_client("net.link.retries"),
        "link.bytes": per_client("net.channel.bytes_to_client") +
                      per_client("net.channel.bytes_to_server"),
        "mc.translates": counters["mc.translates"],
        "mc.memo_hit_rate": counters["mc.translate_memo_hits"] / lookups,
        "loop.frames": counters["mc.loop.requests_enqueued"],
        "loop.frames_per_s": counters["mc.loop.requests_enqueued"] / wall_s,
        "loop.queue_wait_ns.p50": hists["mc.loop.queue_wait_ns"]["p50"],
        "loop.queue_wait_ns.p99": hists["mc.loop.queue_wait_ns"]["p99"],
        "loop.max_queue_depth": counters["mc.loop.max_queue_depth"],
        "shared.digest_reply_frac":
            counters["mc.digest_replies"] / counters["mc.requests_served"],
        "shared.store_misses": per_client("shared.digest_misses"),
        **shard_metrics(hists),
    }


def merged_percentile(hists, names, p):
    """Percentile of the union of equal-bucket histograms, interpolated
    inside the crossing bucket as util::Histogram::Percentile does."""
    buckets = [b["lo"] for b in hists[names[0]]["buckets"]]
    counts = [sum(hists[n]["buckets"][i]["count"] for n in names)
              for i in range(len(buckets))]
    total = sum(counts)
    if total == 0:
        return 0.0
    width = buckets[1] - buckets[0]
    target = p / 100 * total
    seen = 0
    for lo, count in zip(buckets, counts):
        if count and seen + count >= target:
            return lo + width * (target - seen) / count
        seen += count
    return buckets[-1] + width


def shard_metrics(hists):
    """Server shard service time and load skew (max ÷ mean shard frames)
    from a registry export's mc.shard<i>.service_ns histograms."""
    shards = [k for k in hists if re.fullmatch(r"mc\.shard\d+\.service_ns", k)]
    frames = [hists[k]["total"] for k in shards]
    return {
        "mc.shard_service_ns.p50": merged_percentile(hists, shards, 50),
        "mc.shard_service_ns.p99": merged_percentile(hists, shards, 99),
        "mc.shard_skew": max(frames) / statistics.fmean(frames),
    }


def solo_server_metrics(path):
    """Shard metrics of a solo run's `srun --metrics` export (one shard, no
    event loop, no snooping); None if the export is missing."""
    try:
        with open(path) as f:
            return shard_metrics(json.load(f)["histograms"])
    except (OSError, ValueError, KeyError):
        return None


# Per-layer metric -> unit, in the order README.md's map lists them.
PER_LAYER = {
    "minicc.compile_s": "s", "vm.init_s": "s", "vm.self_s": "s",
    "vm.self_mips": "MIPS", "vm.sb.fills": "count",
    "vm.sb.invalidations": "count", "cc.misses": "count",
    "cc.miss_ns.p50": "ns", "cc.miss_ns.p99": "ns", "cc.self_s": "s",
    "cc.evictions": "count", "cc.patch_only_frac": "ratio",
    "link.calls": "count", "link.self_ns.p50": "ns", "link.self_s": "s",
    "link.retries": "count", "link.bytes": "B", "mc.handle_ns.p50": "ns",
    "mc.handle_ns.p99": "ns", "mc.self_s": "s", "mc.translates": "count",
    "mc.memo_hit_rate": "ratio", "loop.frames": "count",
    "loop.frames_per_s": "frames/s", "loop.queue_wait_ns.p50": "ns",
    "loop.queue_wait_ns.p99": "ns", "loop.max_queue_depth": "count",
    "mc.shard_service_ns.p50": "ns", "mc.shard_service_ns.p99": "ns",
    "mc.shard_skew": "ratio", "shared.digest_reply_frac": "ratio",
    "shared.store_misses": "count", "obs.trace_overhead_frac": "ratio",
}


def traced_run(wl, input_path, ref, work, check):
    """One traced run. Returns (wall_s, per-layer dict) or None."""
    if wl.clients == 1:
        out = os.path.join(work, "ledger.json")
        child = run_child([LEDGER, f"--workload={wl.program}",
                           f"--input={input_path}", f"--tcache={wl.tcache}",
                           f"--out={out}"], work)
        try:
            with open(out) as f:
                layers = json.load(f)
            os.remove(out)
            guest = (((child.code, *(int(layers[k]) for k in (
                "instructions", "cycles", "blocks_translated"))),),
                     int(layers["wire_bytes"]))
        except (OSError, ValueError, KeyError):
            guest = None
        if not check_guest(wl, child.code, child.stdout, guest, ref, check,
                           "traced run"):
            return None
        return child.wall_s, layers
    metrics_path = os.path.join(work, "traced.metrics.json")
    child = run_child(srun_command(wl, input_path,
                                   [f"--metrics={metrics_path}"]), work)
    if check_run(wl, child, ref, check) is None:
        return None
    return child.wall_s, fleet_layer_metrics(metrics_path, child.wall_s)


def measure_layers(wl, input_path, ref, seconds, work, check):
    metrics_path = os.path.join(work, "run.metrics.json")
    extra = [f"--metrics={metrics_path}"] if wl.clients == 1 else []
    cmd = srun_command(wl, input_path, extra)
    check_run(wl, run_child(cmd, work), ref, check, metrics_path)  # warm-up
    untraced, traced, layers, server = [], [], [], []
    start = time.perf_counter()
    iterations = 0
    while time.perf_counter() - start < seconds or iterations < MIN_SAMPLES:
        iterations += 1
        # Alternate, so drift on the host moves both sides alike.
        child = run_child(cmd, work)
        # Read before check_run, which consumes the solo metrics export.
        shard = solo_server_metrics(metrics_path) if wl.clients == 1 else None
        if check_run(wl, child, ref, check, metrics_path) is not None:
            untraced.append(child.wall_s)
            if shard is not None:
                server.append(shard)
        result = traced_run(wl, input_path, ref, work, check)
        if result is not None:
            traced.append(result[0])
            layers.append(result[1])
        if check.failed and not traced:
            break
    if not traced or not untraced:
        return None
    merged = {}
    for name in PER_LAYER:
        values = [d[name] for d in layers + server if name in d]
        merged[name] = statistics.median(values) if values else 0.0
    if wl.clients > 1:
        # Fleet set-up cannot be timed inside srun; time the same steps
        # (compile, one Machine + image load per client) in the ledger.
        setup = []
        for _ in range(3):
            out = os.path.join(work, "setup.json")
            child = run_child([LEDGER, f"--workload={wl.program}",
                               f"--setup-clients={wl.clients}",
                               f"--out={out}"], work)
            if child.code == 0:
                with open(out) as f:
                    setup.append(json.load(f))
        for name in ("minicc.compile_s", "vm.init_s"):
            if setup:
                merged[name] = statistics.median(d[name] for d in setup)
    merged["obs.trace_overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1
    return merged


END_TO_END_UNITS = {
    "wall_s": "s", "guest_mips": "MIPS", "setup_s": "s", "peak_rss_mb": "MB",
    "guest_slowdown": "x", "wire_bytes_per_client": "B",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    cache = build(with_ledger=args.trace == 1)
    env = environment_record(cache)
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        input_path = os.path.join(work, "input.bin")
        seed = args.seed % 2**64
        gen = run_child([GEN_INPUT, wl.program, str(wl.scale), str(seed),
                         input_path], work)
        if gen.code != 0:
            die(f"gen_input failed: {gen.stderr}")
        ref = make_reference(wl, input_path, work)
        check = RunCheck()
        ticks_before = host_cpu_ticks()
        if args.trace == 0:
            samples, setups, clocks, probes, warmup_s = measure_end_to_end(
                wl, input_path, ref, args.seconds, work, check)
            values = end_to_end_values(samples, setups, probes)
            raw = {"warmup_wall_s": warmup_s, "runs": samples,
                   "setup_s": setups, "clocks": clocks,
                   "probe_ns_per_step": probes}
            units = END_TO_END_UNITS
        else:
            values = measure_layers(wl, input_path, ref, args.seconds, work,
                                    check) or {}
            raw = {}
            units = PER_LAYER
        ticks_after = host_cpu_ticks()
        if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
            env["host_steal_frac"] = ((ticks_after[0] - ticks_before[0]) /
                                      (ticks_after[1] - ticks_before[1]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = check.failed == 0 and set(values) == set(units)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for line in check.reasons:
        print(f"perfbench: mismatch: {line}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "correct": correct, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics, "raw": raw}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

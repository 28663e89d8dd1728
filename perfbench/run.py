#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of MiniCost, with a per-layer ledger.

Run from the root of a MiniCost checkout:

    python3 perfbench/run.py --workload plan-minicost --seed 1 --seconds 10 --trace 0

It builds `minicost`, `tracepack` and the benchmark's own `mcbench` driver
(perfbench/tracer) into .bench_build/, writes a seeded synthetic store, runs
the workload through the entry points a user calls, checks every bill, and
prints one metrics table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
ledger of a traced run that must reproduce the end-to-end bills byte for
byte. Every metric is described in perfbench/METRICS.md.

Other modes:
    --scale X            multiply every workload's file count by X
    --recheck-seed M     run the workload again on seed M and compare, so a
                         gain can be checked on a seed not used to write it
    --make-agent         retrain the fixed agent checkpoint (maintainers)
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
AGENT_CKPT = os.path.join(BENCH_DIR, "agent", "minicost_agent.ckpt")
AGENT_META = os.path.join(BENCH_DIR, "agent", "agent.json")

WORKLOADS = {
    "plan-minicost": "one-shot `minicost plan --policy rl` with the fixed "
                     "trained agent: featurize and forward dominate",
    "plan-baselines": "one-shot `minicost plan --policy hot,cold,greedy,optimal`: "
                      "no network; decode, billing and merge dominate",
    "serve-replan": "resident `minicost plan --serve --decision-cache on`: "
                    "closed-loop touch+replan requests on small shards",
    "train": "A3CAgent::train for a fixed episode count, then the held-out "
             "window planned: the only workload that runs the trainer",
}

# Files per workload at --scale 1 (62 days each; the last 35 are planned).
FILES = {"plan-minicost": 30000, "plan-baselines": 30000,
         "serve-replan": 20000, "train": 10000}
DAYS = 62
WINDOW_DAYS = 35
SERVE_SHARD_FILES = 2048
SERVE_TOUCH_MAX = 64
SERVE_WARMUP = 5  # replans checked but not timed
SETUP_REPEATS = 9
# A child is killed after this long plus twice --seconds (the server and
# `mcbench train` live through the whole timed loop).
CHILD_TIMEOUT_S = 150
BUILD_TYPE = "RelWithDebInfo"

POLICIES = ["minicost", "hot", "cold", "greedy", "optimal"]
SPANS = (["store.open", "store.materialize", "store.release", "core.static_initial"]
         + ["core.prepare." + p for p in POLICIES]
         + ["core.decide." + p for p in POLICIES]
         + ["core.merge", "rl.load", "rl.featurize", "rl.act", "rl.train",
            "sim.bill", "traced", "unattributed", "tracing_overhead"])
VALUES = ["store.decoded_gb_per_s", "store.encoded_bytes", "core.replanned_shards",
          "core.cache.hit_rate", "core.cache.dedup_ratio", "core.cache.resident_mib",
          "rl.rows", "sim.file_days_per_s", "rl.train.rollout_s", "rl.train.grad_s",
          "rl.train.opt_step_s", "rl.train.sync_wait_s", "rl.train.lock_wait_s",
          "rl.train.env_steps"]
# Derived rows have no meaningful cores_used.
NO_CORES = {"unattributed", "tracing_overhead"}


class Refused(Exception):
    """The run cannot produce trustworthy metrics; exit without a result."""


def span_names(span):
    """Metric names (wall, cpu, cores) of a ledger span."""
    if span.startswith(("core.prepare.", "core.decide.")):
        base, policy = span.rsplit(".", 1)
        return (f"{base}_s.{policy}", f"{base}_cpu_s.{policy}",
                f"{base}.{policy}.cores_used")
    return f"{span}_s", f"{span}_cpu_s", f"{span}.cores_used"


def per_layer_catalogue():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for span in SPANS:
        wall, cpu, cores = span_names(span)
        out += [(wall, "s"), (cpu, "s")]
        if span not in NO_CORES:
            out.append((cores, "cores"))
    units = {"store.decoded_gb_per_s": "GB/s", "store.encoded_bytes": "bytes",
             "core.replanned_shards": "count", "core.cache.hit_rate": "ratio",
             "core.cache.dedup_ratio": "ratio", "core.cache.resident_mib": "MiB",
             "rl.rows": "count", "sim.file_days_per_s": "1/s",
             "rl.train.env_steps": "count"}
    out += [(v, units.get(v, "s")) for v in VALUES]
    return out


E2E_UNITS = {"setup_s": "s", "file_days_per_cpu_s": "1/s", "request_cpu_ms": "ms",
             "cost_vs_optimal": "ratio", "peak_rss_mib": "MiB"}


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """(label, value) of the highest of p99.9, p99 and p90 (nearest rank)
    with at least 10 samples beyond it; callers keep >= 110 samples."""
    ordered = sorted(samples)
    for label, beyond in (("p999", 1000), ("p99", 100), ("p90", 10)):
        if len(ordered) // beyond >= 10:
            return label, ordered[-(len(ordered) // beyond) - 1]
    raise ValueError(f"{len(ordered)} samples are too few for a tail percentile")


# ------------------------------------------------------------------ children --

class Child:
    """A child process whose peak RSS and CPU time are read back with wait4."""

    def __init__(self, argv, cwd, env, stdin=False, timeout=CHILD_TIMEOUT_S):
        self.log = open(os.path.join(cwd, "stderr.log"), "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self.log,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL, text=True,
            bufsize=1)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        self.wall = self.cpu = self.rss_mib = 0.0

    def finish(self):
        """Reads stdout to EOF, reaps the child; returns the unread stdout."""
        out = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        self.log.close()
        self.wall = time.perf_counter() - self.start
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0
        if self.proc.returncode != 0:
            raise RuntimeError(f"{os.path.basename(self.proc.args[0])} exited "
                               f"{self.proc.returncode}; see stderr.log")
        return out

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.timer.cancel()
        if not self.log.closed:
            self.log.close()

    def cpu_so_far(self):
        """utime + stime of the running child, from /proc."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Bench:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.build = os.path.join(self.root, ".bench_build", "minicost")
        self.work = os.path.join(self.root, ".bench_build", "work",
                                 f"{args.workload}-{os.getpid()}")
        # Children (the compiler included) keep their temporary files inside
        # the checkout too.
        self.tmp = os.path.join(self.root, ".bench_build", "tmp")
        self.env = dict(os.environ, MINICOST_OUT=os.path.join(self.work, "reports"),
                        TMPDIR=self.tmp)
        self.requests = {}  # request key -> every check on it passed
        self.errors = []
        self.extra = {}  # human-only rows: (value, unit)

    # -- build ---------------------------------------------------------------
    def check_checkout(self):
        for path in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/minicost_cli.cpp"):
            if not os.path.isfile(os.path.join(self.root, path)):
                raise Refused(f"{path} not found: run from the root of a MiniCost "
                              "checkout")

    def configured(self):
        """True when the build tree exists for this checkout and build type."""
        try:
            with open(os.path.join(self.build, "CMakeCache.txt")) as cache:
                lines = set(cache.read().splitlines())
        except OSError:
            return False
        return (f"CMAKE_HOME_DIRECTORY:INTERNAL={self.root}" in lines
                and f"CMAKE_BUILD_TYPE:STRING={BUILD_TYPE}" in lines)

    def compile(self):
        if not self.configured():
            subprocess.run(["rm", "-rf", self.build], check=False)
        os.makedirs(self.build, exist_ok=True)
        os.makedirs(self.tmp, exist_ok=True)
        log_path = os.path.join(self.root, ".bench_build", "build.log")
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps = [["cmake", "-S", self.root, "-B", self.build,
                  f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                  "-DMINICOST_BUILD_TESTS=OFF", "-DMINICOST_BUILD_BENCH=OFF",
                  "-DMINICOST_BUILD_EXAMPLES=OFF",
                  "-DCMAKE_PROJECT_minicost_INCLUDE="
                  + os.path.join(BENCH_DIR, "tracer", "hook.cmake")],
                 ["cmake", "--build", self.build, "-j", jobs, "--target",
                  "minicost_cli", "tracepack", "mcbench"]]
        if self.configured():
            steps = steps[1:]
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=self.env, timeout=850).returncode != 0:
                    raise Refused(f"build failed; see {log_path}")
        self.minicost = os.path.join(self.build, "tools", "minicost")
        self.tracepack = os.path.join(self.build, "tools", "tracepack")
        self.mcbench = os.path.join(self.build, "mcbench")

    def fingerprint_env(self):
        out = subprocess.run([self.mcbench, "env"], capture_output=True, text=True,
                             env=self.env, check=True, timeout=60).stdout
        env = json.loads(out)
        if (not env["optimized"] or env["sanitized"] or env["sanitize"]
                or env["build_type"] == "Debug"):
            raise Refused(f"refusing to report metrics from a {env['build_type']} "
                          f"build (sanitize='{env['sanitize']}')")
        env.update(nproc=len(os.sched_getaffinity(0)),
                   minicost_obs=os.environ.get("MINICOST_OBS", "1 (default)"),
                   seed=self.args.seed, scale=self.args.scale,
                   workload=self.args.workload, trace=self.args.trace)
        self.fingerprint = env

    def check_agent(self):
        with open(AGENT_META) as meta:
            expected = json.load(meta)["decision_fingerprint"]
        out = subprocess.run([self.mcbench, "fingerprint", "--agent", AGENT_CKPT],
                             capture_output=True, text=True, env=self.env, timeout=60)
        got = json.loads(out.stdout)["decision_fingerprint"] if out.returncode == 0 else None
        if got != expected:
            raise Refused(f"agent checkpoint fingerprint {got} != recorded {expected}")

    # -- helpers -------------------------------------------------------------
    def files(self):
        return max(100, int(FILES[self.args.workload] * self.args.scale))

    def write_store(self, seed, path):
        Child([self.tracepack, "generate", "--files", str(self.files()),
               "--days", str(DAYS), "--seed", str(seed), "--codec", "delta",
               "--integral-counts", "true", "--out", path],
              self.work, self.env).finish()

    def mcbench_json(self, *argv):
        child = Child([self.mcbench, *argv], self.work, self.env)
        return json.loads(child.finish())

    def expect(self, request, ok, message):
        """Records one check of a request; a request fails if any check does."""
        self.requests[request] = self.requests.get(request, True) and ok
        if not ok:
            self.errors.append(message)

    def run_plan_cli(self, store, policies):
        argv = [self.minicost, "plan", store, "--policy", policies, "--format", "csv"]
        if "rl" in policies:
            argv += ["--agent", AGENT_CKPT]
        child = Child(argv, self.work, self.env)
        rows = {}
        for line in child.finish().splitlines():
            cells = line.split(",")
            if cells[0] == "plan" and len(cells) == 11:
                rows[cells[1]] = (cells[9], int(cells[10]))
        return child, rows

    # -- workloads -----------------------------------------------------------
    def plan_workload(self, policies):
        store = os.path.join(self.work, "store.mct")
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.write_store(self.args.seed, store)
            setups.append(time.perf_counter() - start)

        tracing = self.args.trace == 1
        budget = self.args.seconds * (0.4 if tracing else 1.0)
        # The first plan warms the page cache and the CPU; it is checked but
        # not timed.
        runs = [self.run_plan_cli(store, policies)]
        deadline = time.perf_counter() + budget
        while len(runs) < (3 if tracing else 4) or time.perf_counter() < deadline:
            runs.append(self.run_plan_cli(store, policies))
        timed = runs[1:]

        reference_policies = policies if "optimal" in policies else policies + ",optimal"
        traced = []
        if tracing:
            deadline = time.perf_counter() + self.args.seconds * 0.6
            while not traced or time.perf_counter() < deadline:
                traced.append(self.mcbench_json("plan", store, "--policy", policies,
                                                 "--agent", AGENT_CKPT))
        reference = self.mcbench_json("plan", store, "--policy", reference_policies,
                                      "--agent", AGENT_CKPT)["bills"]

        # Correctness: every CLI bill and every traced bill equals the library
        # reference as %.17g text; Optimal undercuts every policy.
        for i, (child, rows) in enumerate(runs):
            for name, (total, changes) in rows.items():
                ref = reference.get(name, {})
                self.expect(("plan", i),
                            total == ref.get("total") and changes == ref.get("tier_changes"),
                            f"{name}: CLI bill {total} != library {ref.get('total')}")
            self.expect(("plan", i), len(rows) == len(policies.split(",")),
                        f"CLI printed {len(rows)} plan rows")
        for i, run in enumerate(traced):
            for name, bill in run["bills"].items():
                self.expect(("traced", i), bill["total"] == reference[name]["total"],
                            f"{name}: traced bill {bill['total']} != end-to-end "
                            f"{reference[name]['total']}")
        optimal = float(reference["Optimal"]["total"])
        for name, bill in reference.items():
            self.expect(("reference",), optimal <= float(bill["total"]),
                        f"Optimal {optimal} above {name} {bill['total']}")

        walls = [child.wall for child, _ in timed]
        cpus = [child.cpu for child, _ in timed]
        file_days = self.files() * WINDOW_DAYS * len(policies.split(","))
        non_optimal = [float(b["total"]) for n, b in reference.items()
                       if n != "Optimal" and n in runs[0][1]]
        e2e = {"setup_s": median(setups),
               "file_days_per_cpu_s": median([file_days / c for c in cpus]),
               "request_cpu_ms": 1000 * median(cpus),
               "cost_vs_optimal": min(non_optimal) / optimal,
               "peak_rss_mib": median([child.rss_mib for child, _ in timed])}
        self.extra["file_days_per_s"] = (median([file_days / w for w in walls]), "1/s")
        self.extra["request_p50_ms"] = (1000 * median(walls), "ms")
        self.extra["plans"] = (len(timed), "count")
        e2e_wall = median(walls)
        e2e_cpu = median([child.cpu for child, _ in timed])
        return e2e, [self.ledger_metrics(t["ledger"], t["wall"], t["cpu"],
                                         e2e_wall, e2e_cpu) for t in traced]

    def start_server(self, store):
        server = Child([self.minicost, "plan", store, "--serve", "true", "--policy",
                        "rl", "--decision-cache", "on", "--shard-files",
                        str(SERVE_SHARD_FILES), "--agent", AGENT_CKPT],
                       self.work, self.env, stdin=True,
                       timeout=CHILD_TIMEOUT_S + 2 * self.args.seconds)
        if not server.proc.stdout.readline().startswith("event,"):
            server.kill()
            raise RuntimeError("serve: no header row")
        return server

    def request(self, server, line, prefix):
        """Sends command lines; returns the first reply row starting with prefix."""
        server.proc.stdin.write(line)
        server.proc.stdin.flush()
        while True:
            row = server.proc.stdout.readline()
            if not row:
                raise RuntimeError("serve: server closed its output")
            if row.startswith(prefix):
                return row.strip().split(",")
            if row.startswith("error,"):
                raise RuntimeError("serve: " + row.strip())

    def serve_workload(self):
        store = os.path.join(self.work, "store.mct")
        setups = []
        server = None
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.kill()
                start = time.perf_counter()
                self.write_store(self.args.seed, store)
                server = self.start_server(store)
                warm = self.request(server, "plan\n", "plan,")
                setups.append(time.perf_counter() - start)
            warm_total = warm[9]

            tracing = self.args.trace == 1
            rng = random.Random(self.args.seed * 1_000_003 + 17)
            n = self.files()
            requests, latencies, totals, replan_files = [], [], [], []
            budget = self.args.seconds * (0.4 if tracing else 1.0)
            cpu_before = server.cpu_so_far()
            deadline = time.perf_counter() + budget
            while (len(latencies) < SERVE_WARMUP + 110
                   or time.perf_counter() < deadline):
                if len(latencies) == SERVE_WARMUP:
                    cpu_timed = server.cpu_so_far()
                count = rng.randint(1, SERVE_TOUCH_MAX)
                first = rng.randint(0, n - count)
                start = time.perf_counter()
                row = self.request(server, f"touch {first} {count}\nreplan\n", "replan,")
                latencies.append(time.perf_counter() - start)
                requests.append((first, count))
                totals.append(row[9])
                # The shards holding the touched files are exactly the ones
                # the replan must redo.
                shards = range(first // SERVE_SHARD_FILES,
                               (first + count - 1) // SERVE_SHARD_FILES + 1)
                self.expect(("replan", len(totals) - 1), int(row[4]) == len(shards),
                            f"replan redid {row[4]} shards, not {len(shards)}")
                replan_files.append(sum(min(SERVE_SHARD_FILES, n - s * SERVE_SHARD_FILES)
                                        for s in shards))
                if len(latencies) >= 5000:
                    break
            cpu_after = server.cpu_so_far()
            cpu_loop = cpu_after - cpu_before
            cpu_timed = cpu_after - cpu_timed
            timed = latencies[SERVE_WARMUP:]
            server.proc.stdin.write("quit\n")
            server.proc.stdin.flush()
            server.finish()
        finally:
            if server is not None:
                server.kill()

        traced = []
        if tracing:
            # Replay a prefix of the same requests through the traced loop.
            path = os.path.join(self.work, "requests.txt")
            replay = requests[:max(20, int(len(requests) * 0.6))]
            with open(path, "w") as out:
                out.writelines(f"{f} {c}\n" for f, c in replay)
            run = self.mcbench_json("serve", store, "--agent", AGENT_CKPT,
                                    "--shard-files", str(SERVE_SHARD_FILES),
                                    "--requests", path)
            for i, total in enumerate(run["totals"] + [run["warm_total"]]):
                self.expect(("traced", i), total == warm_total,
                            f"traced replan bill {total} != served {warm_total}")
            share = len(replay) / len(requests)
            traced.append(self.ledger_metrics(run["ledger"], run["wall"], run["cpu"],
                                              sum(latencies[:len(replay)]),
                                              cpu_loop * share))
        reference = self.mcbench_json("plan", store, "--policy", "rl,optimal",
                                      "--agent", AGENT_CKPT)["bills"]
        self.expect(("plan",), warm_total == reference["MiniCost"]["total"],
                    f"warm plan {warm_total} != library {reference['MiniCost']['total']}")
        for i, total in enumerate(totals):
            self.expect(("replan", i), total == warm_total,
                        f"replan bill {total} != warm plan {warm_total}")
        optimal = float(reference["Optimal"]["total"])
        self.expect(("reference",), optimal <= float(warm_total),
                    f"Optimal {optimal} above MiniCost")

        # The server's CPU time is read in clock ticks, too coarse for one
        # replan, so the CPU metrics are totals over the timed requests.
        timed_file_days = sum(replan_files[SERVE_WARMUP:]) * WINDOW_DAYS
        e2e = {"setup_s": median(setups),
               "file_days_per_cpu_s": timed_file_days / cpu_timed,
               "request_cpu_ms": 1000 * cpu_timed / len(timed),
               "cost_vs_optimal": float(warm_total) / optimal,
               "peak_rss_mib": server.rss_mib}
        self.extra["file_days_per_s"] = (median([f * WINDOW_DAYS / t for f, t in
                                                 zip(replan_files[SERVE_WARMUP:], timed)]),
                                         "1/s")
        self.extra["replan_p50_ms"] = (1000 * median(timed), "ms")
        label, tail = tail_percentile(timed)
        self.extra[f"replan_{label}_ms"] = (1000 * tail, "ms")
        self.extra["replans"] = (len(timed), "count")
        return e2e, traced

    def train_workload(self):
        store = os.path.join(self.work, "store.mct")
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.write_store(self.args.seed, store)
            setups.append(time.perf_counter() - start)
        # The tool ends with one decomposed round: it is the library
        # reference the end-to-end rounds' bills are checked against.
        child = Child([self.mcbench, "train", store, "--split-seed", str(self.args.seed),
                       "--seconds", str(self.args.seconds)],
                      self.work, self.env, timeout=CHILD_TIMEOUT_S + 2 * self.args.seconds)
        out = json.loads(child.finish())
        traced = out["traced"]
        for i, r in enumerate(out["rounds"]):
            self.expect(("round", i), r["total"] == traced["total"],
                        f"round bill {r['total']} != traced {traced['total']}")
        optimal = float(out["optimal_total"])
        self.expect(("traced",), optimal <= float(traced["total"]),
                    "Optimal above MiniCost")
        rounds = out["rounds"][1:]  # the first round warms up; it is not timed

        walls = [r["wall"] for r in rounds]
        plan_file_days = out["test_files"] * out["window_days"]
        e2e = {"setup_s": median(setups),
               "file_days_per_cpu_s": median([(r["env_steps"] + plan_file_days) / r["cpu"]
                                              for r in rounds]),
               "request_cpu_ms": 1000 * median([r["cpu"] for r in rounds]),
               "cost_vs_optimal": float(traced["total"]) / optimal,
               "peak_rss_mib": child.rss_mib}
        self.extra["file_days_per_s"] = (median([(r["env_steps"] + plan_file_days)
                                                 / r["wall"] for r in rounds]), "1/s")
        self.extra["request_p50_ms"] = (1000 * median(walls), "ms")
        self.extra["episodes_per_s"] = (median([out["episodes"] / r["train_wall"]
                                                for r in rounds]), "1/s")
        self.extra["rounds"] = (len(rounds), "count")
        ledgers = []
        if self.args.trace == 1:
            ledgers.append(self.ledger_metrics(
                traced["ledger"], traced["wall"], traced["cpu"],
                out["load_seconds"] + median(walls),
                median([r["cpu"] for r in rounds])))
        return e2e, ledgers

    # -- ledger --------------------------------------------------------------
    def ledger_metrics(self, ledger, traced_wall, traced_cpu, e2e_wall, e2e_cpu):
        spans = ledger["spans"]
        values = ledger["values"]
        top_wall = sum(s["wall"] for s in spans.values() if s["top"])
        top_cpu = sum(s["cpu"] for s in spans.values() if s["top"])
        spans = dict(spans)
        spans["traced"] = {"wall": traced_wall, "cpu": traced_cpu}
        spans["unattributed"] = {"wall": traced_wall - top_wall,
                                 "cpu": traced_cpu - top_cpu}
        spans["tracing_overhead"] = {"wall": traced_wall - e2e_wall,
                                     "cpu": traced_cpu - e2e_cpu}
        out = {}
        for span in SPANS:
            s = spans.get(span, {"wall": 0.0, "cpu": 0.0})
            wall, cpu, cores = span_names(span)
            out[wall] = s["wall"]
            out[cpu] = s["cpu"]
            if span not in NO_CORES:
                out[cores] = s["cpu"] / s["wall"] if s["wall"] > 0 else 0.0
        materialize = spans.get("store.materialize", {}).get("wall", 0.0)
        bill = spans.get("sim.bill", {}).get("wall", 0.0)
        derived = {
            "store.decoded_gb_per_s": (values.get("store.decoded_bytes", 0.0) / 1e9
                                       / materialize if materialize > 0 else 0.0),
            "sim.file_days_per_s": (values.get("sim.file_days", 0.0) / bill
                                    if bill > 0 else 0.0)}
        for name in VALUES:
            out[name] = derived.get(name, values.get(name, 0.0))
        return out

    # -- driver --------------------------------------------------------------
    def run(self):
        os.makedirs(self.work, exist_ok=True)
        workload = self.args.workload
        if workload == "plan-minicost":
            e2e, ledgers = self.plan_workload("rl")
        elif workload == "plan-baselines":
            e2e, ledgers = self.plan_workload("hot,cold,greedy,optimal")
        elif workload == "serve-replan":
            e2e, ledgers = self.serve_workload()
        else:
            e2e, ledgers = self.train_workload()
        if self.args.trace == 1:
            metrics = {name: (median([l[name] for l in ledgers]), unit)
                       for name, unit in per_layer_catalogue()}
        else:
            metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
        return e2e, metrics


def print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>18.6g} {unit}")


def run_once(args):
    """Runs one workload; returns (result dict, exit code)."""
    bench = Bench(args)
    bench.check_checkout()
    bench.compile()
    bench.fingerprint_env()
    bench.check_agent()
    try:
        try:
            e2e, metrics = bench.run()
        except (RuntimeError, KeyError, ValueError, OSError) as error:
            # A request that errors is a failed request; no metrics survive it.
            bench.expect(("run",), False, str(error))
            e2e, metrics = {}, {}
    finally:
        subprocess.run(["rm", "-rf", bench.work], check=False)
    attempted = len(bench.requests)
    failed = sum(not ok for ok in bench.requests.values())
    bench.extra["error_rate"] = (failed / attempted, "ratio")
    print("env: " + json.dumps(bench.fingerprint, sort_keys=True))
    print_table(f"{args.workload} seed={args.seed} scale={args.scale} "
                f"trace={args.trace}: end-to-end",
                {k: (v, E2E_UNITS[k]) for k, v in e2e.items()})
    print_table("  workload-specific", bench.extra)
    if args.trace == 1 and metrics:
        print_table("  per-layer ledger", metrics)
    for error in bench.errors[:20]:
        print("error: " + error, file=sys.stderr)
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = os.path.join(bench.root, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as out:
        json.dump({"env": bench.fingerprint, "result": result,
                   "extra": bench.extra, "errors": bench.errors}, out, indent=1)
    return result, 0 if result["correct"] else 1


def make_agent(args):
    """Retrains the fixed checkpoint plan-minicost and serve-replan deploy."""
    bench = Bench(args)
    bench.check_checkout()
    bench.compile()
    # The recipe (files, seed, episodes) is fixed in mcbench, which prints
    # it with the fingerprint.
    out = subprocess.run([bench.mcbench, "make-agent", "--out", AGENT_CKPT],
                         capture_output=True, text=True, env=bench.env,
                         check=True).stdout
    meta = dict(json.loads(out), command="mcbench make-agent")
    with open(AGENT_META, "w") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")
    print(json.dumps(meta))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--recheck-seed", type=int)
    parser.add_argument("--make-agent", action="store_true")
    args = parser.parse_args()
    try:
        if args.make_agent:
            return make_agent(args)
        if args.workload is None:
            parser.error("--workload is required")
        result, code = run_once(args)
        if args.recheck_seed is not None:
            first, first_seed = result, args.seed
            args.seed = args.recheck_seed
            result, second_code = run_once(args)
            code = code or second_code
            print(f"recheck: seed {first_seed} vs held-out seed {args.seed}")
            for name, metric in result["metrics"].items():
                before = first["metrics"].get(name, {}).get("value")
                print(f"  {name:<40} {before!s:>22} {metric['value']!s:>22} "
                      f"{metric['unit']}")
        print(json.dumps(result))
        return code
    except Refused as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

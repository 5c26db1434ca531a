#!/usr/bin/env python3
"""End-to-end benchmark of the depsurf CLI, with per-layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. It builds `depsurf` and the benchmark's
tracer from source (perfbench/CMakeLists.txt, at the repository's default
build type, into $CARGO_TARGET_DIR or .bench_build), drives the CLI from
this one process, checks the outputs outside the timed region, and prints
one JSON object as the last line of stdout.

Workloads (the seed picks the inputs; the program only sees generated inputs):
  build-lts   op = `study build --scale=1.0` of the 5 LTS images + `dataset
              migrate` to v2.
  serve-mix   op = one connection to a long-lived `serve --socket` over the
              17-version dataset at --scale=0.25, carrying one 32-request
              batch (closed loop, one client).
  fix-corpus  op = one `fix OBJ --against=DS17.v2 --json --out=F` process,
              objects in seeded corpus order, one after another.
A run does a fixed number of ops, sized from --seconds (see NOMINAL_OP_SECONDS).

Set-up: emitting the 53 corpus objects, and for serve-mix and fix-corpus
also building the 17-image dataset and migrating it to v2; serve-mix also
starts the server. It is repeated at least three times per run; setup_s is
the median user CPU time of a set-up's processes (the wall time is printed
as setup_wall_s).

End-to-end metrics (--trace 0), the same on every workload: setup_s,
op_user_cpu_ms (median user CPU time of an op, over the CLI processes; on
serve-mix the server's user CPU over the session divided by batches) and
peak_rss_mb. The text report above the JSON line also prints each
workload's wall-clock and system-CPU figures under its own names (build_s,
serve_qps, serve_batch_p50_ms, fix_p50_ms, ...), tails at the highest
percentile with at least ten samples beyond it. Those are not gated: on a
shared 4-vCPU VM, host contention moved wall time and system time (page
faults, thread creation) between runs far more than user time. Failed
operations and failed output checks are `failed` out of `attempted` in the
JSON line (the error rate).

--trace 1 runs part of the workload through the CLI untraced and the same
work in-process through perfbench_trace, and reports the per-layer metrics:
span totals per layer, executor figures from study.executor.*, the
remainder no layer span explains (*.unattributed_ms: untraced op wall minus
the traced layers), and trace.overhead_ms (traced op wall minus untraced op
wall; negative when the CLI's process or socket cost exceeds the tracing
cost). On serve-mix and fix-corpus the 17-image dataset is built in-process
under the tracer, so the extraction layers report that set-up build.
"""

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

SETUP_REPEATS = 3         # at least this many set-ups per run,
SETUP_MIN_SECONDS = 3.0   # and more until this much set-up time is measured
# A run does a fixed number of operations, sized from --seconds by the
# nominal op time on a 4-vCPU host: the work depends only on the seed and
# --seconds, and a slow host takes longer instead of doing less. The minimums
# keep the output checks and the tail percentile possible: two builds for the
# byte-identity check, and enough samples for a tail with 10 beyond it.
NOMINAL_OP_SECONDS = {"build-lts": 13.0, "serve-mix": 0.005, "fix-corpus": 0.25}
MIN_OPS = {"build-lts": 2, "serve-mix": 1000, "fix-corpus": 20}
HERE = os.path.dirname(os.path.abspath(__file__))

# A finished child process: exit code, stdout, wall seconds, user and system
# CPU seconds, peak RSS in MB, and the runner's own peak RSS when it spawned
# the child (see peak_rss_mb).
Child = collections.namedtuple("Child", "rc out wall user sys rss floor")


class Bench:
    """One run: the binaries, a scratch directory and the failure ledger."""

    def __init__(self, root, seconds):
        self.seconds = seconds
        self.jobs = len(os.sched_getaffinity(0))
        out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.build_dir = os.path.join(out, "perfbench")
        self.depsurf = os.path.join(self.build_dir, "depsurf", "src", "tools", "depsurf")
        self.tracer = os.path.join(self.build_dir, "perfbench_trace")
        self.work = os.path.join(out, "work", f"run-{os.getpid()}")
        self.attempted = 0
        self.failures = []
        self.children = []
        self.child_user_s = 0.0  # user CPU of every child run() has waited for

    # ---- processes ----------------------------------------------------

    def run(self, args, stdin=None, check=True):
        """Runs a child in the scratch dir and waits for it."""
        stdin_file = open(os.path.join(self.work, stdin), "rb") if stdin else subprocess.DEVNULL
        with tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=self.work, stdin=stdin_file,
                                    stdout=subprocess.PIPE, stderr=err)
            floor = runner_peak_rss_mb()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_user_s += usage.ru_utime
            proc.stdout.close()
            if stdin:
                stdin_file.close()
            if check and proc.returncode != 0:
                err.seek(0)
                raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: "
                                   f"{err.read().decode(errors='replace')[-2000:]}")
        return Child(proc.returncode, out, wall, usage.ru_utime, usage.ru_stime,
                     usage.ru_maxrss / 1024.0, floor)

    def fail(self, message):
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def cli(self, *args, **kw):
        return self.run([self.depsurf, *args], **kw)

    def path(self, name):
        return os.path.join(self.work, name)

    # ---- build and inputs ---------------------------------------------

    def build(self):
        os.makedirs(self.build_dir, exist_ok=True)
        # Compilers and the program write temporaries under $TMPDIR; keep
        # them inside the checkout too.
        os.environ["TMPDIR"] = os.path.join(self.build_dir, "tmp")
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        log = os.path.join(self.build_dir, "build.log")
        with open(log, "ab") as out:
            if not os.path.exists(os.path.join(self.build_dir, "CMakeCache.txt")):
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                subprocess.run(["cmake", "-S", HERE, "-B", self.build_dir, *generator],
                               stdout=out, stderr=out, check=True)
            subprocess.run(["cmake", "--build", self.build_dir, "-j", str(self.jobs),
                            "--target", "depsurf_cli", "perfbench_trace"],
                           stdout=out, stderr=out, check=True)

    def emit_corpus(self):
        os.makedirs(self.path("objs"), exist_ok=True)
        programs = self.cli("progs").out.decode().split()
        for name in programs:
            self.cli("emit", name, f"--out=objs/{name}.o")
        return programs

    def build_ds17(self, seed):
        self.cli("study", "build", *ds17_args(seed), f"--jobs={self.jobs}", "--strict",
                 "--out=ds17.dds")
        self.cli("dataset", "migrate", "ds17.dds", "ds17.v2.dds")
        return digest(self.path("ds17.v2.dds"))

    def depsets(self, programs):
        out = self.run([self.tracer, "depsets", *[f"objs/{p}.o" for p in programs]]).out
        return out.decode().splitlines()

    def timed_setups(self, seed, with_dataset, serve_batches=0):
        """Repeated set-ups; returns (median user CPU s, median wall s, programs, server).

        A set-up emits the corpus objects, builds the 17-image dataset when
        `with_dataset`, and starts a server for `serve_batches` connections
        when that is nonzero (else the server is None). The last set-up is
        the one measured against. Its cost is the user CPU its processes
        use: on a shared host the wall time of these short processes moved
        by up to a third between runs.
        """
        cpu, wall, digests, server = [], [], set(), None
        while len(wall) < SETUP_REPEATS or sum(wall) < SETUP_MIN_SECONDS:
            if server:
                server.kill()
            user_before = self.child_user_s
            start = time.perf_counter()
            programs = self.emit_corpus()
            if with_dataset:
                digests.add(self.build_ds17(seed))
            if serve_batches:
                server = Server(self, serve_batches)
            wall.append(time.perf_counter() - start)
            cpu.append(self.child_user_s - user_before +
                       (server.cpu_seconds()[0] if server else 0.0))
        self.attempted += 1
        if len(digests) > 1:
            self.fail("the 17-image v2 dataset differs between set-ups of one seed")
        return statistics.median(cpu), statistics.median(wall), programs, server


def runner_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(children):
    """The largest peak RSS of `children`, each of which must be its own.

    Linux folds the spawning process's peak RSS into a child's ru_maxrss
    (the memory it had before exec), so a child's figure is its own only
    when it exceeds the runner's peak at spawn time (`floor`).
    """
    for child in children:
        if child.rss <= child.floor:
            raise RuntimeError(f"a child's peak RSS ({child.rss:.1f} MB) is masked by the "
                               f"runner's own ({child.floor:.1f} MB)")
    return max(child.rss for child in children)


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):  # in pieces: the runner's own RSS stays small
            h.update(chunk)
    return h.hexdigest()


def ms(ns):
    return ns / 1e6


def med(values):
    return statistics.median(values) if values else 0.0


# ---- span forest of a tracer dump ---------------------------------------


def walk(spans):
    for span in spans:
        yield span
        yield from walk(span["children"])


def durations(dump, name, roots_only=False):
    spans = dump["spans"] if roots_only else walk(dump["spans"])
    return [s["dur_ns"] for s in spans if s["name"] == name]


def self_ns(span):
    return span["dur_ns"] - sum(c["dur_ns"] for c in span["children"])


def build_layers(dump):
    """Per-layer figures of one traced corpus build (span totals over its images)."""
    total = lambda name: ms(sum(durations(dump, name)))  # noqa: E731
    spans = list(walk(dump["spans"]))
    c, g, h = dump["counters"], dump["gauges"], dump["histograms"]
    hits, misses = c.get("dataset.intern_hits", 0), c.get("dataset.intern_misses", 0)
    window, wall = g.get("study.build_dataset.window", 0), g.get("study.build_dataset.wall_ms", 0)
    busy = sum(v for k, v in g.items() if k.startswith("study.executor.worker"))
    build = next(s for s in spans if s["name"] == "study.build_dataset")
    extract_end = max(s["start_ns"] + s["dur_ns"] for s in spans if s["name"] == "surface.extract")
    kernelgen_cpu = sum(s["cpu_ns"] for s in spans if s["name"] == "kernelgen.build_image")
    return {
        "kernelgen.build_image_ms": total("kernelgen.build_image"),
        "kernelgen.cpu_share": kernelgen_cpu / dump["values"]["op_cpu_ns"],
        "elf.parse_ms": total("elf.parse"),
        "btf.decode_ms": total("btf.decode"),
        "dwarf.decode_ms": total("dwarf.decode"),
        "surface.extract_ms": total("surface.extract"),
        "surface.tracepoints_ms": total("surface.tracepoints"),
        "surface.classify_functions_ms": total("surface.classify_functions"),
        "surface.dwarf_self_ms": ms(sum(self_ns(s) for s in spans if s["name"] == "surface.dwarf")),
        "surface.btf_self_ms": ms(sum(self_ns(s) for s in spans if s["name"] == "surface.btf")),
        "surface.syscalls_ms": total("surface.syscalls"),
        "dataset.distill_ms": total("dataset.distill"),
        "dataset.intern_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "study.lane_busy_ratio": busy / (window * wall) if window and wall else 0.0,
        "study.queue_wait_ms": h.get("study.executor.queue_wait_us", {}).get("sum", 0) / 1e3,
        "study.serialize_stall_ms": c.get("study.executor.serialize_stall_us", 0) / 1e3,
        "study.distill_tail_ms": max(0.0, ms(build["start_ns"] + build["dur_ns"] - extract_end)),
        "dataset_io.save_v1_ms": total("dataset_io.save_v1"),
        "dataset_io.migrate_ms": total("dataset_io.migrate"),
        "dataset_io.free_ms": total("dataset_io.free"),
    }


def op_spans(dump):
    """(wall ns, attributed ns) of every bench.op root: attributed = its children's sum."""
    return [(s["dur_ns"], sum(c["dur_ns"] for c in s["children"]))
            for s in dump["spans"] if s["name"] == "bench.op"]


def traced_build(bench, seed_args, name):
    bench.attempted += 1
    dump = json.loads(bench.run([bench.tracer, "build", *seed_args, f"--jobs={bench.jobs}",
                                 f"--name={name}"]).out)
    return dump, build_layers(dump)


# ---- workloads -----------------------------------------------------------


def lts_args(seed):
    return [f"--scale={gen.LTS_SCALE}", f"--seed={gen.derived_seed(seed, 'lts')}"]


def lts_op(bench, seed, tag):
    """One untraced study build + migrate, as one Child with summed times and the peak RSS."""
    bench.attempted += 1
    build = bench.cli("study", "build", *lts_args(seed), f"--jobs={bench.jobs}", "--strict",
                      f"--out=lts{tag}.dds")
    migrate = bench.cli("dataset", "migrate", f"lts{tag}.dds", f"lts{tag}.v2.dds")
    return Child(0, b"", build.wall + migrate.wall, build.user + migrate.user,
                 build.sys + migrate.sys, peak_rss_mb([build, migrate]), 0.0)


def check_lts(bench, programs, tags):
    """v2 bytes identical across ops; v1 heap and v2 mmap readers agree on all depsets."""
    bench.attempted += 1
    if len({digest(bench.path(f"lts{t}.v2.dds")) for t in tags}) != 1:
        bench.fail("LTS v2 bytes differ between builds of one seed")
    with open(bench.path("depsets.ndjson"), "w") as f:
        for i, line in enumerate(bench.depsets(programs)):
            f.write('{"id": %d, %s\n' % (i, line[1:]))
    answers = []
    for name in (f"lts{tags[0]}.dds", f"lts{tags[0]}.v2.dds"):
        out = bench.cli("serve", "--oneshot", "--jobs=1", f"--against={name}",
                        stdin="depsets.ndjson").out.decode()
        answers.append([normalize(line, name) for line in out.splitlines()])
    if answers[0] != answers[1] or len(answers[0]) != len(programs):
        bench.fail("v1 heap and v2 mmap readers disagree on the corpus dependency sets")


def op_count(workload, seconds):
    return max(MIN_OPS[workload], math.ceil(seconds / NOMINAL_OP_SECONDS[workload]))


def run_build_lts(bench, seed, trace):
    if trace:
        programs = bench.emit_corpus()
        wall = lts_op(bench, seed, 0).wall
        dump, layers = traced_build(bench, lts_args(seed), "lts1")
        ((op_wall, attributed),) = op_spans(dump)
        check_lts(bench, programs, [0, 1])
        layers["build.unattributed_ms"] = wall * 1e3 - ms(attributed)
        layers["trace.overhead_ms"] = ms(op_wall) - wall * 1e3
        return layers, []
    setup_s, setup_wall_s, programs, _ = bench.timed_setups(seed, with_dataset=False)
    ops = [lts_op(bench, seed, i) for i in range(op_count("build-lts", bench.seconds))]
    check_lts(bench, programs, list(range(len(ops))))
    walls = [op.wall for op in ops]
    user = med([op.user for op in ops])
    rss = peak_rss_mb(ops)
    report = [("setup_s", setup_s, "s"), ("setup_wall_s", setup_wall_s, "s"),
              ("build_s", med(walls), "s"),
              ("build_images_per_s", gen.LTS_IMAGES * len(ops) / sum(walls), "1/s"),
              ("build_cpu_s", med([op.user + op.sys for op in ops]), "s"),
              ("build_user_cpu_s", user, "s"), ("build_sys_cpu_s", med([op.sys for op in ops]), "s"),
              ("build_peak_rss_mb", rss, "MB"), ("builds", len(ops), "count")]
    return {"setup_s": setup_s, "op_user_cpu_ms": user * 1e3, "peak_rss_mb": rss}, report


class Server:
    """A `depsurf serve --socket` session for `batches` batches.

    The session takes one more, empty, connection: finish() reads the
    server's peak RSS while it waits for that one, then ends the session.
    """

    def __init__(self, bench, batches):
        self.sock = os.path.relpath(bench.path("serve.sock"))
        self.proc = subprocess.Popen(
            [bench.depsurf, "serve", "--socket=serve.sock", "--against=ds17.v2.dds",
             f"--jobs={bench.jobs}", f"--max-connections={batches + 1}",
             "--report-out=serve_report.json"],
            cwd=bench.work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        bench.children.append(self.proc)
        line = self.proc.stderr.readline().decode()
        if not line.startswith("serving"):
            raise RuntimeError(f"serve did not start: {line}")

    def send(self, lines):
        """One connection carrying one batch; returns (seconds, response lines)."""
        payload = "".join(line + "\n" for line in lines).encode()
        start = time.perf_counter()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(self.sock)
            s.sendall(payload)
            s.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := s.recv(1 << 16):
                chunks.append(chunk)
        return time.perf_counter() - start, b"".join(chunks).decode().splitlines()

    def cpu_seconds(self):
        """(user, sys) CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        tick = os.sysconf("SC_CLK_TCK")
        return int(fields[11]) / tick, int(fields[12]) / tick

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stderr.close()

    def finish(self):
        """Ends the session; returns its Child record (no stdout).

        The peak RSS is the server's own VmHWM, read while it is idle: its
        ru_maxrss would include the runner's (see peak_rss_mb).
        """
        with open(f"/proc/{self.proc.pid}/status") as f:
            hwm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        self.send([])
        self.proc.stderr.read()
        self.proc.stderr.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(self.proc.returncode, b"", 0.0, usage.ru_utime, usage.ru_stime,
                     hwm_kb / 1024.0, 0.0)


def normalize(response, dataset):
    """A response without its id and cache marker, and with the dataset path unnamed."""
    body = response[response.index('"ok": '):]
    return body.replace(f'"dataset": "{dataset}", "format": "v{2 if "v2" in dataset else 1}"',
                        '"dataset": ""')


def serve_session(bench, seed, programs, server, batches):
    """Closed loop over the seeded batch stream; returns (latencies, requests sent, answers)."""
    depsets = bench.depsets(programs)
    stream = gen.serve_batches(seed, depsets, [f"objs/{p}.o" for p in programs])
    latencies, sent, answers = [], [], {}
    for batch in itertools.islice(stream, batches):
        bench.attempted += len(batch)
        seconds, responses = server.send([line for _, line in batch])
        latencies.append(seconds)
        sent.extend(line for _, line in batch)
        if len(responses) != len(batch):
            bench.fail(f"batch of {len(batch)} got {len(responses)} responses")
            continue
        for (key, _), response in zip(batch, responses):
            if '"ok": true' not in response:
                bench.fail(f"request failed: {response[:200]}")
                continue
            h = hashlib.sha256(normalize(response, "ds17.v2.dds").encode()).hexdigest()
            if answers.setdefault(key, h) != h:
                bench.fail(f"two answers to one request: {key[:200]}")
    return latencies, sent, answers


def check_serve(bench, answers, returncode):
    """Session exit, report lint, and every distinct answer against a v1 oneshot."""
    bench.attempted += 1
    if returncode != 0:
        bench.fail(f"serve exited {returncode}")
    if bench.cli("metrics", "lint", "serve_report.json", "--kind=serve", check=False).rc != 0:
        bench.fail("serve report fails metrics lint --kind=serve")
    keys = sorted(answers)
    with open(bench.path("distinct.ndjson"), "w") as f:
        for key in keys:
            f.write('{"id": 0, %s\n' % key[1:])
    out = bench.cli("serve", "--oneshot", "--jobs=1", "--against=ds17.dds",
                    stdin="distinct.ndjson").out.decode().splitlines()
    wrong = sum(1 for key, line in zip(keys, out)
                if hashlib.sha256(normalize(line, "ds17.dds").encode()).hexdigest()
                != answers[key])
    if len(out) != len(keys) or wrong:
        bench.fail(f"{wrong} of {len(keys)} distinct serve answers differ from the v1 oneshot")


def ds17_args(seed):
    return [f"--versions={gen.DS17_VERSIONS}", f"--scale={gen.DS17_SCALE}",
            f"--seed={gen.derived_seed(seed, 'ds17')}"]


def run_serve_mix(bench, seed, trace):
    batches = op_count("serve-mix", bench.seconds)
    if trace:
        programs = bench.emit_corpus()
        _, layers = traced_build(bench, ds17_args(seed), "ds17")
        batches = max(MIN_OPS["serve-mix"], batches // 2)
        server = Server(bench, batches)
        latencies, sent, answers = serve_session(bench, seed, programs, server, batches)
        check_serve(bench, answers, server.finish().rc)
        with open(bench.path("sent.ndjson"), "w") as f:
            f.write("\n".join(sent) + "\n")
        dump = json.loads(bench.run(
            [bench.tracer, "serve", "--against=ds17.v2.dds", "--requests=sent.ndjson",
             f"--batch={gen.BATCH_SIZE}", f"--jobs={bench.jobs}"]).out)
        batch_ns = [c["dur_ns"] for s in dump["spans"] if s["name"] == "bench.batch"
                    for c in s["children"] if c["name"] == "serve.batch"]
        solo = durations(dump, "serve.request", roots_only=True)
        v = dump["values"]
        layers.update({
            "dataset_io.mmap_open_us": med(durations(dump, "dataset_io.mmap_open")) / 1e3,
            "serve.batch_ms": ms(med(batch_ns)),
            "serve.request_us_p50": med(solo) / 1e3,
            "serve.request_us_p99": gen.percentile(solo, 99) / 1e3,
            "serve.cache_hit_ratio": v["cache_hits"] / (v["cache_hits"] + v["cache_misses"]),
            "analyze.program_us": med(durations(dump, "analyze.program", True)) / 1e3,
            "bpf.parse_us": med(durations(dump, "bpf.parse", True)) / 1e3,
            "deps.extract_us": med(durations(dump, "deps.extract", True)) / 1e3,
            "serve.unattributed_ms": med(latencies) * 1e3 - ms(med(batch_ns)),
            "trace.overhead_ms": ms(med(durations(dump, "bench.batch"))) - med(latencies) * 1e3,
        })
        return layers, []
    setup_s, setup_wall_s, programs, server = bench.timed_setups(seed, with_dataset=True,
                                                                 serve_batches=batches)
    user_before, sys_before = server.cpu_seconds()
    latencies, sent, answers = serve_session(bench, seed, programs, server, batches)
    session = server.finish()
    check_serve(bench, answers, session.rc)
    rss = peak_rss_mb([session])
    user = (session.user - user_before) / batches
    p, tail = gen.tail(latencies)
    report = [("setup_s", setup_s, "s"), ("setup_wall_s", setup_wall_s, "s"),
              ("serve_qps", len(sent) / sum(latencies), "1/s"),
              ("serve_batch_p50_ms", med(latencies) * 1e3, "ms"),
              (f"serve_batch_p{p:g}_ms", tail * 1e3, "ms"),
              ("serve_user_cpu_per_batch_ms", user * 1e3, "ms"),
              ("serve_sys_cpu_per_batch_ms", (session.sys - sys_before) / batches * 1e3, "ms"),
              ("serve_peak_rss_mb", rss, "MB"), ("batches", batches, "count"),
              ("distinct_requests", len(answers), "count")]
    return {"setup_s": setup_s, "op_user_cpu_ms": user * 1e3, "peak_rss_mb": rss}, report


def fix_loop(bench, seed, programs, count):
    """`fix --against` per object in seeded order; returns (objects, Child records, docs)."""
    os.makedirs(bench.path("fixed"), exist_ok=True)
    done = gen.object_order(seed, programs, count)
    ops, docs = [], {}
    for name in done:
        bench.attempted += 1
        op = bench.cli("fix", f"objs/{name}.o", "--against=ds17.v2.dds", "--json",
                       f"--out=fixed/{name}.o", check=False)
        if op.rc not in (0, 2):
            bench.fail(f"fix {name} exited {op.rc}")
            continue
        ops.append(op)
        docs[name] = op.out
    return done, ops, docs


def check_fix(bench, docs):
    """Every remediation document lints; no fixable unguarded reloc survives the fix."""
    for name, doc in sorted(docs.items()):
        bench.attempted += 1
        with open(bench.path("remediation.json"), "wb") as f:
            f.write(doc)
        if bench.cli("metrics", "lint", "remediation.json", "--kind=remediation",
                     check=False).rc != 0:
            bench.fail(f"{name}: remediation JSON fails metrics lint")
        plan = json.loads(doc)
        fixable = {(r["finding"]["program"], r["struct"], r["field"])
                   for r in plan["remediations"] if r["fixable"]}
        analyzed = bench.cli("analyze", f"fixed/{name}.o", "--json", check=False)
        if analyzed.rc not in (0, 2):
            bench.fail(f"{name}: analyze of the fixed object exited {analyzed.rc}")
            continue
        analysis = json.loads(analyzed.out)
        relocs = analysis["relocs"]
        left = {(f["program"], relocs[f["reloc"]]["struct"], relocs[f["reloc"]]["field"])
                for f in analysis["findings"] if f["kind"] == "unguarded-reloc"}
        if left & fixable:
            bench.fail(f"{name}: fixable unguarded relocs survive the fix: {sorted(left & fixable)}")


def run_fix_corpus(bench, seed, trace):
    count = op_count("fix-corpus", bench.seconds)
    if trace:
        programs = bench.emit_corpus()
        _, layers = traced_build(bench, ds17_args(seed), "ds17")
        done, fixes, docs = fix_loop(bench, seed, programs, max(MIN_OPS["fix-corpus"], count // 2))
        walls = [op.wall for op in fixes]
        check_fix(bench, docs)
        # One tracer process per object, as the CLI runs one per request, so
        # the traced layers pay the same cold-process costs.
        dumps = [json.loads(bench.run([bench.tracer, "fix", "--against=ds17.v2.dds",
                                       f"objs/{n}.o"]).out) for n in done]
        dump = {"spans": [s for d in dumps for s in d["spans"]]}
        ops = op_spans(dump)
        v = {k: sum(d["values"][k] for d in dumps) for k in ("findings", "fixable")}
        per = lambda name: med(durations(dump, name)) / 1e3  # noqa: E731
        layers.update({
            "dataset_io.load_ms": ms(med(durations(dump, "dataset_io.load"))),
            "dataset_io.free_ms": ms(med(durations(dump, "dataset_io.free"))),
            "bpf.parse_us": per("bpf.parse"),
            "deps.extract_us": per("deps.extract"),
            "bpf.rewrite_us": per("bpf.rewrite"),
            "bpf.encode_us": per("bpf.encode"),
            "analyze.object_us": per("analyze.object"),
            "analyze.program_us": per("analyze.program"),
            "remediation.plan_us": per("remediation.plan"),
            "remediation.verify_us": per("remediation.verify"),
            "remediation.fixable_ratio": v["fixable"] / v["findings"] if v["findings"] else 0.0,
            "fix.unattributed_ms": med(walls) * 1e3 - ms(med([a for _, a in ops])),
            "trace.overhead_ms": ms(med([w for w, _ in ops])) - med(walls) * 1e3,
        })
        return layers, []
    setup_s, setup_wall_s, programs, _ = bench.timed_setups(seed, with_dataset=True)
    _, ops, docs = fix_loop(bench, seed, programs, count)
    check_fix(bench, docs)
    walls = [op.wall for op in ops]
    user = med([op.user for op in ops])
    rss = peak_rss_mb(ops)
    p, tail = gen.tail(walls)
    report = [("setup_s", setup_s, "s"), ("setup_wall_s", setup_wall_s, "s"),
              ("fix_objects_per_s", len(ops) / sum(walls), "1/s"),
              ("fix_p50_ms", med(walls) * 1e3, "ms"), (f"fix_p{p:g}_ms", tail * 1e3, "ms"),
              ("fix_user_cpu_ms", user * 1e3, "ms"),
              ("fix_sys_cpu_ms", med([op.sys for op in ops]) * 1e3, "ms"),
              ("fix_peak_rss_mb", rss, "MB"), ("fix_processes", len(ops), "count")]
    return {"setup_s": setup_s, "op_user_cpu_ms": user * 1e3, "peak_rss_mb": rss}, report


RUNNERS = {"build-lts": run_build_lts, "serve-mix": run_serve_mix, "fix-corpus": run_fix_corpus}


def run_workload(root, workload, seed, seconds, trace):
    """Runs one workload; returns the result object of the JSON line."""
    bench = Bench(root, seconds)
    bench.build()
    os.makedirs(bench.work)
    try:
        values, report = RUNNERS[workload](bench, seed, trace)
    except Exception as e:  # noqa: BLE001 - any failure is reported as a failed run
        bench.fail(f"{workload}: {e}")
        values, report = {}, []
    finally:
        for proc in bench.children:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(bench.work, ignore_errors=True)
    for name, value, unit in report:
        print(f"{workload:<11} {name:<24} {value:>14.4f} {unit}")
    error_rate = len(bench.failures) / max(1, bench.attempted)
    print(f"{workload:<11} {'error_rate':<24} {error_rate:>14.4f} ratio")
    spec = gen.load_spec()
    table = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for name, unit in table:
        value = values.get(name, 0.0 if trace else None)
        if value is None:
            continue
        metrics[name] = {"value": value, "unit": unit}
        if trace:
            print(f"{workload:<11} {name:<32} {value:>14.4f} {unit}")
    complete = len(metrics) == len(table)
    return {"correct": not bench.failures and complete,
            "attempted": max(1, bench.attempted),
            "failed": len(bench.failures) if complete else max(1, bench.attempted),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=gen.load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.selftest:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
        return 0 if unittest.TextTestRunner().run(suite).wasSuccessful() else 1
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "tools"))):
        print("perfbench: run from the root of a depsurf checkout (no src/ here)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.all:
        # Each run in its own process, so no run's memory inflates the next
        # one's peak RSS (see peak_rss_mb).
        ok = True
        for workload in RUNNERS:
            for trace in (0, 1):
                out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                                      workload, "--seed", str(args.seed), "--seconds",
                                      str(args.seconds), "--trace", str(trace)],
                                     stdout=subprocess.PIPE, text=True).stdout
                print(out, end="", flush=True)
                lines = out.splitlines()
                ok = ok and bool(lines) and json.loads(lines[-1])["correct"]
        return 0 if ok else 1
    if not args.workload:
        parser.error("--workload, --all or --selftest is required")
    result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

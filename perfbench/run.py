"""The repository benchmark: paper studies cold and store-warm, and a
served drain.  See README.md in this directory.

    python3 perfbench/run.py --workload ranking_cold --seed 1 \
        --seconds 50 --trace 0

``BENCHMARK.json`` lists ``ranking_cold`` and ``serve_drain``;
``ranking_warm`` runs the same way but is not listed (README.md says why).

Run from the root of a checkout.  Every measured process is a fresh
interpreter that imports ``repro`` from ``src/``; all working files live
under ``.perfbench/`` in the checkout and are removed at exit.  The last
stdout line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import csv
import http.client
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as _tracer  # noqa: E402

ROOT = Path.cwd()
CHILD = str(HERE / "child.py")
PYTHON = sys.executable

WORKLOADS = ("ranking_cold", "ranking_warm", "serve_drain")
END_TO_END = (
    ("wall_s", "s"), ("interactions_per_s", "1/s"), ("setup_s", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(_tracer.per_layer_names()) + (
    ("http.poll_p50_ms", "ms"), ("http.poll_p90_ms", "ms"),
    ("trace.overhead_s", "s"),
)

#: Untraced repetitions a run makes at least, whatever ``--seconds`` says.
MIN_REPS = 2
#: ``ranking_*``: a repetition runs the matrix in one process per root
#: seed ``seed + k * SEED_STRIDE``, k < SEEDS_PER_PASS (warm: each with
#: its own pinned store).  Convergence times have long tails and a
#: lockstep batch waits for its slowest lane, so one root seed's
#: interactions and time vary widely; summing over several root seeds
#: averages them out.
SEEDS_PER_PASS = 5
SEED_STRIDE = 1_000_000
#: ``ranking_warm``: fill and top-up passes a store may take before its
#: check pass must change nothing.
MAX_FILL_PASSES = 16
#: ``serve_drain``: worker processes (one per core) and the fixed pause
#: between the closed-loop progress polls of the single client.
WORKERS = os.cpu_count() or 2
POLL_INTERVAL_S = 0.05
#: Per-process time limits; a process that exceeds one fails the run.
PROCESS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A failure that invalidates the run (no result is printed)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env(table_store=None) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_TABLE_CACHE", None)
    if table_store is not None:
        env["REPRO_TABLE_CACHE"] = str(table_store)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Proc:
    """A child process; stdout lines are timestamped as they arrive and
    :meth:`reap` returns the process's own CPU time and peak RSS."""

    def __init__(self, argv, env, stderr_path):
        self._stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.launched = time.monotonic()
        self.popen = subprocess.Popen(
            [str(arg) for arg in argv], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.lines = []
        self.usage = None
        self.expected_code = 0
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.popen.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            with self._cond:
                self.lines.append((time.monotonic(), line))
                self._cond.notify_all()

    def wait_line(self, prefix, timeout):
        """``(time, line)`` of the first stdout line starting with
        ``prefix``."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for stamp, line in self.lines:
                    if line.startswith(prefix):
                        return stamp, line
                left = deadline - time.monotonic()
                if left <= 0 or self.popen.poll() is not None:
                    raise BenchError(
                        f"no {prefix!r} line from {self.popen.args[:4]}: "
                        f"{self.stderr_tail()}"
                    )
                self._cond.wait(min(left, 0.05))

    def reap(self, timeout=PROCESS_TIMEOUT_S) -> dict:
        """Wait for exit (killing after ``timeout``); returns usage."""
        if self.usage is not None:
            return self.usage
        timer = threading.Timer(timeout, self.popen.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(self.popen.pid, 0)
        finally:
            timer.cancel()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join(timeout=10.0)
        self.popen.stdout.close()
        self._stderr.close()
        self.usage = {
            "code": self.popen.returncode,
            "exited": time.monotonic(),
            "cpu_s": rusage.ru_utime + rusage.ru_stime,
            "rss_mb": rusage.ru_maxrss / 1024.0,
        }
        return self.usage

    def kill(self) -> None:
        if self.usage is None:
            self.popen.kill()
            self.reap()

    def stderr_tail(self) -> str:
        try:
            return Path(self._stderr_path).read_text()[-2000:]
        except OSError:
            return ""

    def last_json(self) -> dict:
        for _, line in reversed(self.lines):
            if line.startswith("{"):
                return json.loads(line)
        raise BenchError(f"no result from {self.popen.args[:4]}: "
                         f"{self.stderr_tail()}")


def run_child(argv, env, stderr_path) -> tuple:
    """Run ``child.py`` to completion; returns ``(proc, result)``."""
    proc = Proc([PYTHON, CHILD] + argv, env, stderr_path)
    try:
        usage = proc.reap()
    except BaseException:
        proc.kill()
        raise
    if usage["code"] != 0:
        raise BenchError(
            f"child.py {argv[0]} exited {usage['code']}: {proc.stderr_tail()}"
        )
    return proc, proc.last_json()


def stragglers(marker: str) -> list:
    """Pids of live processes whose command line mentions ``marker``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            state = (entry / "stat").read_text().split(") ", 1)[1][:1]
        except OSError:
            continue
        if marker.encode() in cmdline and state != "Z":
            found.append(int(entry.name))
    return found


# ----------------------------------------------------------------------
# Row checks
# ----------------------------------------------------------------------
def read_rows(directory) -> list:
    path = Path(directory) / "rows.jsonl"
    return path.read_text().splitlines() if path.exists() else []


class Checks:
    """Correctness checks attempted and failed, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def attempt(self, count=1) -> None:
        self.attempted += count

    def fail(self, reason) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def check_rows(checks, label, cells, lines, expected=None) -> tuple:
    """``(interactions, canonical rows by cell key)`` for one matrix.

    A cell fails when it has no row, more than one row, a row that is not
    converged, or (given ``expected``: cell key -> canonical JSON) a row
    that differs from the expected one.  Rows outside the matrix fail too.
    """
    by_key = {}
    for line in lines:
        row = json.loads(line)
        key = (row["variant"], int(row["n"]), int(row["seed_index"]))
        by_key.setdefault(key, []).append(row)
    wanted = {tuple(cell) for cell in cells}
    checks.attempt(len(wanted))
    for key in by_key:
        if key not in wanted:
            checks.fail(f"{label}: row {key} is outside the matrix")
    interactions = 0
    canonical = {}
    for key in sorted(wanted):
        rows = by_key.get(key, [])
        if len(rows) != 1:
            checks.fail(f"{label}: {len(rows)} rows for cell {key}")
            continue
        if not rows[0]["converged"]:
            checks.fail(f"{label}: cell {key} did not converge")
            continue
        canonical[key] = json.dumps(rows[0], sort_keys=True)
        interactions += int(rows[0]["interactions"])
        if expected is not None and expected.get(key) != canonical[key]:
            checks.fail(f"{label}: cell {key} differs from the reference")
    return interactions, canonical


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        self.checks = Checks()

    def prepare(self) -> None:
        pass

    def rep(self, index, traced) -> dict:
        raise NotImplementedError

    def spans_dir(self, index) -> Path:
        directory = self.work / f"spans-{index}"
        directory.mkdir()
        return directory

    def layer_metrics(self, directory) -> dict:
        spans, processes = _tracer.read_spans(sorted(directory.iterdir()))
        return _tracer.layer_metrics(spans, processes)

    def summarize(self, samples) -> dict:
        """The end-to-end metrics: each the median over the repetitions."""
        return {name: median([sample[name] for sample in samples])
                for name, _ in END_TO_END}


def changed_presets(result) -> list:
    """The presets of a ``child.py ranking`` result that spilled pairs to
    or discarded artifacts from the table store."""
    return [study["preset"] for study in result["studies"]
            if study["pairs_spilled"] or study["artifacts_discarded"]]


class Ranking(Workload):
    """Three paper presets in fresh ``Study.run`` processes, one process
    per root seed."""

    def __init__(self, name, seed, work, warm):
        super().__init__(name, seed, work)
        self.warm = warm
        self.root_seeds = [seed + k * SEED_STRIDE
                           for k in range(SEEDS_PER_PASS)]
        #: (root seed number, preset) -> the canonical rows every later
        #: pass must reproduce.
        self.expected = {}
        #: ``ranking_warm``: passes each store took to fill and check.
        self.fill_passes = []

    def launch(self, number, tag, presets=None, spans=None) -> tuple:
        """Run one study process for root seed ``number``; a warm process
        is pinned to that seed's own table store."""
        argv = ["ranking", "--out", self.work / tag / str(number),
                "--seed", self.root_seeds[number]]
        if presets:
            argv += ["--presets", ",".join(presets)]
        if spans is not None:
            argv += ["--trace-file", spans / f"ranking-{number}.jsonl",
                     "--run-id", f"{self.name}-{self.seed}-{tag}"]
        table_store = (self.work / "tables" / str(number)
                       if self.warm else None)
        return run_child(argv, child_env(table_store),
                         self.work / f"{tag}-{number}.err")

    def check(self, number, tag, proc, result) -> dict:
        """Check one process's rows against the reference (the first rows
        seen for each study become it); returns its sample."""
        interactions = 0
        for study in result["studies"]:
            expected = self.expected.setdefault((number, study["preset"]), {})
            count, rows = check_rows(
                self.checks, f"{tag}-{number}", study["cells"],
                read_rows(study["dir"]), expected or None,
            )
            interactions += count
            if not expected:
                expected.update(rows)
        shutil.rmtree(self.work / tag / str(number), ignore_errors=True)
        return {
            "wall_s": result["done"] - result["ready"],
            "setup_s": result["ready"] - proc.launched,
            "cpu_s": proc.usage["cpu_s"],
            "peak_rss_mb": proc.usage["rss_mb"],
            "interactions": interactions,
        }

    def fill(self, number, stop) -> list:
        """Fill root seed ``number``'s pinned store; returns the passes
        ``(tag, proc, result)`` in order, the last one a full check pass.

        The lockstep engine's groups reach a fixed point in one pass, but
        a plain ``array`` engine pass over a filled store still tabulates
        (and spills) a few new pairs, fewer on every pass.  Top-up passes
        re-run just the presets that spilled until none does; then a full
        check pass must spill and discard nothing."""
        passes = []
        presets = None
        for attempt in range(MAX_FILL_PASSES):
            if stop.is_set():
                raise BenchError("preparation interrupted")
            tag = f"fill-{attempt}"
            proc, result = self.launch(number, tag, presets)
            passes.append((tag, proc, result))
            spilled = changed_presets(result)
            full = len(result["studies"]) == len(passes[0][2]["studies"])
            if full and attempt > 0 and not spilled:
                return passes
            # The next pass is a top-up, or the full check pass once
            # nothing spilled.
            presets = spilled or None
        raise BenchError(
            f"root seed {self.root_seeds[number]}: the table store still "
            f"changed after {MAX_FILL_PASSES} fill passes"
        )

    def prepare(self) -> None:
        # Cold: the first repetition's rows are the reference every later
        # repetition must reproduce byte for byte.  Warm: the fill pass is a cold
        # pass, so its rows are the reference; the pinned stores are
        # filled in parallel, one thread per core (untimed).
        if not self.warm:
            return
        results = [None] * len(self.root_seeds)
        errors = []  # in the order they happened: the first stopped the rest
        pending = list(range(len(self.root_seeds)))
        lock = threading.Lock()
        stop = threading.Event()
        slots = min(WORKERS, len(pending))
        done = [threading.Event() for _ in range(slots)]

        def filler(slot):
            try:
                while not stop.is_set():
                    with lock:
                        if not pending:
                            return
                        number = pending.pop(0)
                    try:
                        results[number] = self.fill(number, stop)
                    except BaseException as error:  # re-raised below
                        with lock:
                            errors.append(error)
                        stop.set()
            finally:
                done[slot].set()

        threads = [threading.Thread(target=filler, args=(slot,))
                   for slot in range(slots)]
        for thread in threads:
            thread.start()
        # Wait on events, not on Thread.join: a join that SIGTERM's
        # SystemExit interrupts marks the thread finished while it runs.
        try:
            for event in done:
                event.wait()
        finally:
            # On SIGTERM each thread finishes its current process, then
            # stops, so no child outlives the run.
            stop.set()
            for event in done:
                event.wait()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        if None in results:
            raise BenchError("preparation interrupted")
        for number, passes in enumerate(results):
            self.fill_passes.append(len(passes))
            for tag, proc, result in passes:
                self.check(number, tag, proc, result)

    def rep(self, index, traced) -> dict:
        spans = self.spans_dir(index) if traced else None
        tag = f"rep-{index}"
        procs = []
        for number in range(len(self.root_seeds)):
            proc, result = self.launch(number, tag, spans=spans)
            if self.warm:
                # A timed warm pass must neither tabulate nor discard.
                self.checks.attempt()
                changed = changed_presets(result)
                if changed:
                    self.checks.fail(f"{tag}: root seed "
                                     f"{self.root_seeds[number]} changed "
                                     f"the store in {changed}")
            procs.append(self.check(number, tag, proc, result))
        sample = {"procs": procs,
                  "wall_s": sum(proc["wall_s"] for proc in procs)}
        if traced:
            sample["layers"] = self.layer_metrics(spans)
        return sample

    def summarize(self, samples) -> dict:
        """Per root seed, the median over repetitions; then summed over the
        seeds (times, CPU), maxed (RSS: the processes run one after
        another) or, for set-up, the median over every process."""
        per_seed = [[sample["procs"][number] for sample in samples]
                    for number in range(len(self.root_seeds))]

        def seed_medians(name):
            return [median([proc[name] for proc in procs])
                    for procs in per_seed]

        wall = sum(seed_medians("wall_s"))
        return {
            "wall_s": wall,
            "interactions_per_s": sum(seed_medians("interactions")) / wall,
            "setup_s": median([proc["setup_s"] for procs in per_seed
                               for proc in procs]),
            "cpu_s": sum(seed_medians("cpu_s")),
            "peak_rss_mb": max(seed_medians("peak_rss_mb")),
        }


class Client:
    """One HTTP client issuing requests one after another; every request
    is a check that fails unless the reply is 2xx with a parseable body."""

    def __init__(self, port, checks):
        self.port = port
        self.checks = checks

    def request(self, method, path, payload=None, parse=json.loads):
        """``(seconds, parsed body)``; the body is ``None`` on failure."""
        self.checks.attempt()
        body = None if payload is None else json.dumps(payload).encode()
        start = time.monotonic()
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=60
        )
        try:
            connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = connection.getresponse()
            data = response.read()
            status = response.status
        except OSError as error:
            status, data = 0, str(error).encode()
        finally:
            connection.close()
        elapsed = time.monotonic() - start
        if not 200 <= status < 300:
            self.checks.fail(f"{method} {path}: {status} {data[:200]!r}")
            return elapsed, None
        try:
            return elapsed, parse(data)
        except ValueError as error:
            self.checks.fail(f"{method} {path}: unparseable body ({error})")
            return elapsed, None


def _csv_rows(data: bytes) -> int:
    return len(list(csv.reader(io.StringIO(data.decode())))) - 1


class ServeDrain(Workload):
    """``repro serve`` plus one ``repro worker`` per core draining one
    raw-spec submission, watched by one closed-loop polling client."""

    def __init__(self, name, seed, work):
        super().__init__(name, seed, work)
        self.poll_latencies = []

    def prepare(self) -> None:
        _, result = run_child(
            ["reference", "--out", self.work / "reference", "--seed",
             self.seed],
            child_env(), self.work / "reference.err",
        )
        self.specs = result["specs"]
        self.cells = result["cells"]
        _, self.expected = check_rows(
            self.checks, "reference", self.cells, read_rows(result["dir"])
        )

    def rep(self, index, traced) -> dict:
        root = self.work / f"serve-{index}"
        spans = self.spans_dir(index) if traced else None
        run_id = f"{self.name}-{self.seed}-{index}"
        env = child_env()
        if traced:
            argv = [PYTHON, CHILD, "serve", "--out", root,
                    "--trace-file", spans / "serve.jsonl", "--run-id", run_id]
        else:
            argv = [PYTHON, "-m", "repro", "serve", "--host", "127.0.0.1",
                    "--port", "0", "--out", root, "--quiet"]
        procs = []
        latencies = []
        try:
            server = Proc(argv, env, self.work / f"serve-{index}.err")
            procs.append(server)
            _, line = server.wait_line("repro serve on http://", 60.0)
            address = line.split("http://", 1)[1].split()[0]
            port = int(address.rsplit(":", 1)[1])
            client = Client(port, self.checks)
            client.request("GET", "/")
            submitted = time.monotonic()
            _, summary = client.request(
                "POST", "/studies", {"name": self.name, "specs": self.specs}
            )
            if summary is None:
                raise BenchError("the submission was refused")
            study = summary["study"]

            def start_worker(number, follow):
                if traced:
                    argv = [PYTHON, CHILD, "worker", "--study",
                            summary["directory"], "--trace-file",
                            spans / f"worker-{number}.jsonl",
                            "--run-id", run_id]
                else:
                    argv = [PYTHON, "-m", "repro", "worker", "--study",
                            summary["directory"]]
                worker = Proc(argv + ["--follow"] * follow, env,
                              self.work / f"worker-{index}-{number}.err")
                procs.append(worker)
                return worker

            # The drain runs on --follow workers, which never compact:
            # ResultStore.load() is not safe against a concurrent compact()
            # (README, "Defects these workloads expose"), so no progress
            # poll may overlap one.  Stopped with SIGINT once the study is
            # complete, they must die of it (exit code -SIGINT).
            launched = time.monotonic()
            workers = [start_worker(number, follow=True)
                       for number in range(WORKERS)]
            for worker in workers:
                worker.expected_code = -signal.SIGINT

            deadline = time.monotonic() + PROCESS_TIMEOUT_S
            while True:
                elapsed, progress = client.request("GET", f"/studies/{study}")
                latencies.append(elapsed)
                if progress is not None and progress.get("complete"):
                    break
                if time.monotonic() > deadline:
                    raise BenchError("the served study did not complete")
                time.sleep(POLL_INTERVAL_S)
            for worker in workers:
                worker.popen.send_signal(signal.SIGINT)
            for worker in workers:
                worker.reap()
            # A plain worker finds the queue drained, compacts the shards
            # into rows.jsonl and exits; then the rows are fetched.
            compactor = start_worker(WORKERS, follow=False)
            compactor.reap()
            _, served = client.request("GET", f"/studies/{study}/rows")
            _, csv_rows = client.request(
                "GET", f"/studies/{study}/rows.csv", parse=_csv_rows
            )
            finished = time.monotonic()

            running = max(
                (worker.lines[0][0] if worker.lines
                 else worker.usage["exited"]) for worker in workers
            )
        finally:
            if procs:
                procs[0].popen.send_signal(signal.SIGINT)
                procs[0].reap(timeout=30.0)
            for proc in procs:
                proc.kill()
        for proc in procs:
            self.checks.attempt()
            if proc.usage["code"] != proc.expected_code:
                self.checks.fail(
                    f"{proc.popen.args[2:4]} exited {proc.usage['code']}: "
                    f"{proc.stderr_tail()[-300:]}"
                )
        self.checks.attempt()
        for pid in stragglers(str(root)):
            os.kill(pid, signal.SIGKILL)
            self.checks.fail(f"process {pid} outlived repetition {index}")

        rows = (served or {}).get("rows", [])
        interactions, _ = check_rows(
            self.checks, f"served-{index}", self.cells,
            [json.dumps(row) for row in rows], self.expected,
        )
        self.checks.attempt()
        if csv_rows != len(rows):
            self.checks.fail(
                f"rows.csv has {csv_rows} rows, /rows has {len(rows)}"
            )
        if not traced:
            self.poll_latencies.extend(latencies)

        wall = finished - submitted
        sample = {
            "wall_s": wall,
            "interactions_per_s": interactions / wall,
            "setup_s": (submitted - server.launched) + (running - launched),
            "cpu_s": sum(proc.usage["cpu_s"] for proc in procs),
            # The server runs throughout; the compactor after the workers.
            "peak_rss_mb": server.usage["rss_mb"] + max(
                sum(worker.usage["rss_mb"] for worker in workers),
                compactor.usage["rss_mb"],
            ),
        }
        if traced:
            sample["layers"] = self.layer_metrics(spans)
        shutil.rmtree(root, ignore_errors=True)
        return sample

    def http_percentiles(self) -> dict:
        """p50 and the highest percentile (up to p90) that has at least
        ten polls beyond it."""
        values = sorted(self.poll_latencies)
        count = len(values)
        top = max(50, min(90, 100 * (count - 11) // max(1, count)))

        def pct(p):
            # The value at index p·count/100 has count - 1 - index above it.
            if not values:
                return 0.0
            return 1000.0 * values[min(count - 1, p * count // 100)]

        return {"http.poll_p50_ms": pct(50), "http.poll_p90_ms": pct(top),
                "percentile": top, "polls": len(values)}


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def machine(probe) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, **probe}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, seconds, trace) -> tuple:
    """Repeat the workload for ``seconds``; in a traced run every other
    repetition is traced."""
    plain, traced, durations = [], [], []
    start = time.monotonic()
    index = 0
    while True:
        began = time.monotonic()
        is_traced = trace and index % 2 == 1
        sample = workload.rep(index, is_traced)
        (traced if is_traced else plain).append(sample)
        durations.append(time.monotonic() - began)
        index += 1
        enough = len(plain) >= MIN_REPS and (not trace or traced)
        if enough and (time.monotonic() - start + median(durations)
                       > seconds):
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every child is killed and reaped
    # and the working directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _, probe = run_child(["probe"], child_env(), work / "probe.err")
        info = machine(probe)
        if args.workload == "serve_drain":
            workload = ServeDrain(args.workload, args.seed, work)
        else:
            workload = Ranking(args.workload, args.seed, work,
                               warm=args.workload == "ranking_warm")
        workload.prepare()
        plain, traced = measure(workload, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    print(f"# workload {args.workload} seed {args.seed}: "
          f"{len(plain)} untraced + {len(traced)} traced repetitions")
    print(f"# machine {json.dumps(info, sort_keys=True)}")
    summary = workload.summarize(plain)
    end_to_end = {}
    for name, unit in END_TO_END:
        end_to_end[name] = {"value": summary[name], "unit": unit}
        print(f"{name:<22} {summary[name]:14.6g} {unit:<6} over "
              f"{len(plain)} repetitions")
    print("# wall_s per repetition: "
          + " ".join(f"{sample['wall_s']:.4g}" for sample in plain))
    if getattr(workload, "fill_passes", None):
        print(f"# fill passes per table store: {workload.fill_passes}")
    checks = workload.checks
    failed_frac = checks.failed / max(1, checks.attempted)
    print(f"{'failed_frac':<22} {failed_frac:14.6g} {'':<6} "
          f"{checks.failed} of {checks.attempted} checks")
    for reason in checks.reasons:
        print(f"# failed: {reason}")
    http = {}
    if isinstance(workload, ServeDrain):
        http = workload.http_percentiles()
        print(f"{'http_p50_ms':<22} {http['http.poll_p50_ms']:14.6g} ms     "
              f"of {http['polls']} progress polls")
        print(f"{'http_p90_ms':<22} {http['http.poll_p90_ms']:14.6g} ms     "
              f"(p{http['percentile']}: at least 10 polls beyond it)")

    if args.trace:
        layers = {}
        for name, unit in PER_LAYER:
            if name.startswith("http."):
                value = http.get(name, 0.0)
            elif name == "trace.overhead_s":
                value = (median([s["wall_s"] for s in traced])
                         - summary["wall_s"])
            else:
                value = median([s["layers"][name] for s in traced])
            layers[name] = {"value": value, "unit": unit}
            print(f"{name:<34} {value:14.6g} {unit}")
        metrics = layers
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

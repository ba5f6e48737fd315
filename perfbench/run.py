"""Benchmark of the gt-agkz pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gl3-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload in turn
    python3 perfbench/run.py ... --out results.jsonl       # also append the run's record
    python3 perfbench/run.py --compare old.jsonl new.jsonl
    python3 perfbench/run.py --record-golden               # rewrite golden.json

One client in a closed loop: ops run back to back, one worker process at a
time, each op sent only after the previous one has been answered.  The
seed fixes the order of the ladder weights in every pass and the order of
the session weights; the program sees only the weights.  A pass is one
sweep over the workload's weights, and the run repeats passes until
``--seconds`` have gone by.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones
(see README.md).  Outputs are checked after each op, outside its timed
region; the last line of standard output is the run's JSON result.
"""

import argparse
import hashlib
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
SPANS_DIR = os.path.join(HERE, "out")

GL3_LADDER = ("2,1,0", "4,2,0", "6,3,0", "8,4,0")
GL4_LADDER = ("2,1,0,0", "2,2,1,0", "3,1,0,0")
# Every n = 3, 4 weight with last entry 0 and Weyl dimension <= 15.
SESSION_POOL = (
    "1,0,0", "1,1,0", "2,0,0", "2,1,0", "2,2,0", "3,0,0", "3,1,0", "3,2,0",
    "3,3,0", "4,0,0", "4,4,0", "1,0,0,0", "1,1,0,0", "1,1,1,0", "2,0,0,0",
    "2,1,1,0", "2,2,2,0",
)
WORKLOADS = ("gl3-ladder", "gl4-ladder", "verify-session")

OP_LIMIT_S = 60.0  # an op still running after this is killed and counted as failed
SETUP_LIMIT_S = 30.0  # a worker not ready after this is a broken checkout
RUN_CAP_S = 140.0  # no op runs past this point of a run, so every run ends within 180 s


class SetupError(RuntimeError):
    """A worker process could not start the program."""


class Worker:
    """One worker process; set-up is timed from spawn to its ``ready`` line."""

    def __init__(self, deadline):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._buffer = bytearray()
        try:
            line = self._readline(deadline)
        except EOFError:
            line = None
        if line != b"ready":
            self.kill()
            raise SetupError(f"worker did not start (exit code {self.proc.returncode})")
        self.setup_s = time.perf_counter() - start

    def _readline(self, deadline):
        """One line from the worker, or None when the deadline passes first."""
        fd = self.proc.stdout.fileno()
        while (end := self._buffer.find(b"\n")) < 0:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError("worker closed its output")
            self._buffer += chunk
        line = bytes(self._buffer[:end])
        del self._buffer[: end + 1]
        return line

    def call(self, request, deadline):
        """The worker's reply, or None if it is not back by the deadline."""
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        line = self._readline(deadline)
        return None if line is None else json.loads(line)

    def kill(self):
        self.proc.kill()
        self.proc.wait()

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()


def load_program():
    """The checkout's gtagkz, whose functions check the outputs; exit 2 if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gtagkz", "__init__.py")):
        sys.exit(f"error: no gtagkz package under {src}")
    sys.path.insert(0, src)
    import gtagkz
    import gtagkz.verify

    return gtagkz


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fields_digest(document, fields):
    """Digest of the named fields of every entry."""
    values = [[entry[field] for field in fields] for entry in document["entries"]]
    return digest(json.dumps(values, sort_keys=True, separators=(",", ":")))


SOLUTION_FIELDS = ("shift", "witness", "gamma_series", "agkz_solution")
GT_FIELDS = ("gt_function", "norm_squared")


def gt_digest(document):
    """Digest of the G functions, their norms and the C and S coefficients."""
    return digest(fields_digest(document, GT_FIELDS) + json.dumps(document["coefficients"], sort_keys=True))


def skew_pairs(program, document):
    """(nonzero, total): pairs of published G functions that pair to nonzero."""
    n = document["n"]
    gts = [program.poly_from_json(n, e["gt_function"]) for e in document["entries"]]
    pairs = list(combinations(gts, 2))
    return sum(1 for f, g in pairs if program.pair(f, g) != 0), len(pairs)


def check_basis(program, weight, text, golden):
    """(problems, wrong): every failed check, and those the seed passed."""
    document = json.loads(text)
    seed = golden.get(weight)
    if seed is None:
        return ["no golden record for this weight"], ["no golden record for this weight"]
    wrong = []
    expected = program.weyl_dimension(document["top_row"])
    if document["dimension"] != expected or len(document["entries"]) != expected:
        wrong.append(f"dimension {document['dimension']} != weyl_dimension {expected}")
    if fields_digest(document, SOLUTION_FIELDS) != seed["solutions"]:
        wrong.append("shift/witness/gamma_series/agkz_solution digest differs from golden")
    skew, total = skew_pairs(program, document)
    problems = list(wrong)
    if skew:
        problems.append(f"orthogonality: {skew} of {total} pairs nonzero")
        if seed["orthogonal"]:
            wrong.append(problems[-1] + " (orthogonal at the seed)")
    elif seed["orthogonal"] and gt_digest(document) != seed["gt_functions"]:
        problems.append("gt_function/norm_squared/coefficients digest differs from golden")
        wrong.append(problems[-1])
    return problems, wrong


def check_verify(program, weight, rc, text, golden):
    """(problems, wrong): every FAIL line, and the FAILs of checks the seed passed."""
    lines = [line.split() for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
    failing = [line[1] for line in lines if line[0] == "FAIL"]
    seed_failed = golden.get(weight, {}).get("verify_failed")
    wrong = []
    n = len(weight.split(","))
    if len(lines) != len(program.verify.default_checks(n)):
        wrong.append(f"{len(lines)} check results, not {len(program.verify.default_checks(n))}")
    if rc != (1 if failing else 0):
        wrong.append(f"exit code {rc} with {len(failing)} FAIL lines")
    if seed_failed is None:
        wrong.append("no golden verify record for this weight")
    else:
        wrong += [f"verify FAIL: {name} (passed at the seed)" for name in failing if name not in seed_failed]
    problems = wrong + [f"verify FAIL: {name}" for name in failing if name in (seed_failed or ())]
    return problems, wrong


def document_counts(text):
    """The per-layer counts read from a basis document: its size and widest coefficient."""
    document = json.loads(text)
    bits = 0
    for entry in document["entries"]:
        for field in ("gamma_series", "agkz_solution", "gt_function"):
            for term in entry[field]:
                coef = Fraction(term["coef"])
                bits = max(bits, coef.numerator.bit_length(), coef.denominator.bit_length())
    return {"cli.document_bytes": len(text.encode()), "polyengine.max_coef_bits": bits}


def plan(workload, rng):
    """One pass: groups of (op, weight), each group served by one worker process."""
    if workload == "gl3-ladder":
        return [[("basis", w)] for w in rng.sample(GL3_LADDER, len(GL3_LADDER))]
    if workload == "gl4-ladder":
        return [[("basis", w)] for w in rng.sample(GL4_LADDER, len(GL4_LADDER))]
    order = rng.sample(SESSION_POOL, len(SESSION_POOL))
    return [[(op, w) for w in order for op in ("basis", "verify")]]


class Run:
    """Ops, set-ups and spans of one run of one workload."""

    def __init__(self, program, workload, seed, seconds, trace):
        self.program = program
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        with open(GOLDEN) as handle:
            self.golden = json.load(handle)
        self.ops = []
        self.setups = []
        self.spans = []
        self.checked = {}
        self.start = time.perf_counter()
        self.cap = self.start + RUN_CAP_S
        self.passes = 0
        self.truncated = False

    def execute(self):
        """Run passes while the next one, as long as the longest so far, fits in --seconds."""
        rng = random.Random(self.seed)
        longest = 0.0
        while not self.truncated:
            began = time.perf_counter()
            if self.passes and began + longest > self.start + self.seconds:
                break
            self.passes += 1
            for group in plan(self.workload, rng):
                for traced in (False, True) if self.trace else (False,):
                    self._serve(group, traced)
            longest = max(longest, time.perf_counter() - began)

    def _start_worker(self):
        worker = Worker(time.perf_counter() + SETUP_LIMIT_S)
        self.setups.append(worker.setup_s)
        return worker

    def _serve(self, group, traced):
        worker = None
        try:
            for op, weight in group:
                if time.perf_counter() >= self.cap:
                    self.truncated = True
                    return
                if worker is None:
                    worker = self._start_worker()
                request = {"id": len(self.ops), "op": op, "weight": weight, "traced": traced}
                began = time.perf_counter()
                deadline = min(self.cap, began + OP_LIMIT_S)
                try:
                    reply = worker.call(request, deadline)
                except (EOFError, BrokenPipeError):
                    reply = {"error": f"worker died (exit code {worker.proc.wait()})"}
                    worker = None
                if reply is None:
                    worker.kill()
                    worker = None
                    if deadline == self.cap:  # cut at the run cap, not at the op's own limit
                        self.truncated = True
                    reply = {"error": f"killed after {deadline - began:.1f} s", "timeout": True}
                    reply["seconds"] = time.perf_counter() - began
                self._record(request, reply)
                # A bare set-up after every op spreads the setup_s samples over the run.
                self._start_worker().close()
        finally:
            if worker is not None:
                worker.close()

    def _record(self, request, reply):
        op = dict(request, passno=self.passes)
        op["seconds"] = reply.get("seconds", 0.0)
        op["rss_kb"] = reply.get("rss_kb", 0)
        problems, wrong = [], []
        if reply.get("error"):
            problems.append(reply["error"])
            if not reply.get("timeout"):
                wrong.append(reply["error"])
        elif request["op"] == "basis" and reply["rc"] != 0:
            problems = wrong = [f"exit code {reply['rc']}"]
        elif request["op"] == "basis":
            problems, wrong = self._check_basis(request["weight"], reply["output"])
        else:
            problems, wrong = check_verify(self.program, request["weight"], reply["rc"], reply["output"], self.golden)
        op["digest"] = digest(reply["output"]) if "output" in reply else None
        if request["traced"]:
            op["counts"] = dict(reply.get("counts", {}))
            if request["op"] == "basis" and not wrong:
                op["counts"].update(document_counts(reply["output"]))
            elif request["op"] == "verify":
                lines = reply.get("output", "").splitlines()
                op["counts"]["verify.checks_failed"] = sum(line.startswith("FAIL ") for line in lines)
            op["self_s"] = self_times(reply.get("spans", []))
            self.spans.extend(reply.get("spans", []))
            twin = self._untraced_twin(op)
            op["digest_mismatch"] = bool(twin and twin["digest"] and op["digest"] and twin["digest"] != op["digest"])
            if op["digest_mismatch"]:
                problems = problems + ["traced document digest differs from the untraced one"]
                wrong = wrong + problems[-1:]
        op["problems"], op["wrong"] = problems, bool(wrong)
        self.ops.append(op)
        status = "ok  " if not problems else "FAIL"
        print(
            f"op {op['id']:3d} pass {op['passno']} {'traced ' if request['traced'] else ''}"
            f"{request['op']:6s} {request['weight']:9s} {op['seconds']:8.3f} s  {status} "
            + "; ".join(problems)
        )

    def _check_basis(self, weight, text):
        """check_basis, run once per distinct document of the run."""
        key = (weight, digest(text))
        if key not in self.checked:
            try:
                self.checked[key] = check_basis(self.program, weight, text, self.golden)
            except (ValueError, KeyError, TypeError) as error:
                problem = f"unreadable document: {type(error).__name__}: {error}"
                self.checked[key] = [problem], [problem]
        return self.checked[key]

    def _untraced_twin(self, op):
        key = (op["passno"], op["op"], op["weight"])
        return next(
            (o for o in self.ops if not o["traced"] and (o["passno"], o["op"], o["weight"]) == key), None
        )


def self_times(spans):
    """Seconds per span name, minus the time its child spans cover."""
    totals = {}
    for name, start, end, parent, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent is not None:
            parent_name = spans[parent][0]
            totals[parent_name] = totals.get(parent_name, 0.0) - (end - start)
    return totals


def per_pass(ops, value, combine=sum):
    """Median over passes of combine(value(op) for the pass's ops)."""
    passes = sorted({op["passno"] for op in ops})
    return statistics.median(combine([value(op) for op in ops if op["passno"] == p]) for p in passes) if passes else 0.0


def metrics(run, spec):
    untraced = [op for op in run.ops if not op["traced"]]
    traced = [op for op in run.ops if op["traced"]]
    values = {
        "solve_s": per_pass(untraced, lambda op: op["seconds"]),
        "verify_s": per_pass(untraced, lambda op: op["seconds"] if op["op"] == "verify" else 0.0),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": max(op["rss_kb"] for op in run.ops) / 1024,
        "failed_share": sum(bool(op["problems"]) for op in run.ops) / len(run.ops),
    }
    if traced:
        for name in spec:
            if name.endswith(".s"):
                values[name] = per_pass(traced, lambda op: op["self_s"].get(name[:-2], 0.0))
            elif not name.startswith("trace."):
                combine = max if name == "polyengine.max_coef_bits" else sum
                values[name] = per_pass(traced, lambda op: op["counts"].get(name, 0), combine)
        values["trace.solve_s"] = per_pass(traced, lambda op: op["seconds"])
        values["trace.untraced_solve_s"] = values["solve_s"]
        values["trace.overhead"] = values["trace.solve_s"] / values["solve_s"]
        values["trace.digest_mismatches"] = sum(op["digest_mismatch"] for op in traced)
    return values


def run_workload(program, workload, seed, seconds, trace, out_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    spec = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    run = Run(program, workload, seed, seconds, trace)
    run.execute()
    values = metrics(run, spec)
    failed = sum(bool(op["problems"]) for op in run.ops)
    print(f"passes {run.passes}{' (cut at the run cap)' if run.truncated else ''}, "
          f"{len(run.setups)} processes, {len(run.ops)} ops")
    shown = spec if trace else {"solve_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for name, unit in shown.items():
        print(f"  {name:36s} {values[name]:14.6f} {unit}")
    print(f"  {'failed_share':36s} {values['failed_share']:14.6f} 1  ({failed} failed of {len(run.ops)} attempted)")
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.json")
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": run.spans}, handle)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    result = {
        "correct": not any(op["wrong"] for op in run.ops) and not run.truncated,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec.items()},
    }
    if out_path:
        with open(out_path, "a") as handle:
            record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "result": result}
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return result


def compare(old_path, new_path):
    """One row per workload and metric: medians, quartiles and the bound verdict.

    A first row per workload gives failed over attempted ops on each side; a
    higher failed share in NEW counts as worse, like a metric past its bound.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    def load(path):
        """Metric values per (workload, name), and [failed, attempted] summed per workload."""
        table, counts = {}, {}
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    result = record["result"]
                    for name, metric in result["metrics"].items():
                        table.setdefault((record["workload"], name), []).append(metric["value"])
                    total = counts.setdefault(record["workload"], [0, 0])
                    total[0] += result["failed"]
                    total[1] += result["attempted"]
        return table, counts

    def summary(values):
        if not values:
            return None, "-"
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return q2, f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"

    (old, old_counts), (new, new_counts) = load(old_path), load(new_path)
    worse = 0
    print(f"{'workload':15s} {'metric':36s} {'old median [q1, q3]':32s} {'new median [q1, q3]':32s} verdict")
    for workload in sorted(set(old_counts) | set(new_counts)):
        sides = [counts.get(workload) for counts in (old_counts, new_counts)]
        texts = [f"{f} of {a} ({f / a:.1%})" if a else "-" for f, a in (side or (0, 0) for side in sides)]
        verdict = "-"
        if all(sides):
            rose = sides[1][0] / sides[1][1] > sides[0][0] / sides[0][1]
            verdict = "ROSE" if rose else "not higher"
            worse += rose
        print(f"{workload:15s} {'failed of attempted':36s} {texts[0]:32s} {texts[1]:32s} {verdict}")
    for key in sorted(set(old) | set(new)):
        workload, name = key
        old_median, old_text = summary(old.get(key, []))
        new_median, new_text = summary(new.get(key, []))
        info = meta.get(name, {})
        verdict = "-"
        if "bound" in info and old_median is not None and new_median is not None:
            sign = 1 if info["better"] == "lower" else -1
            change = sign * (new_median - old_median) / old_median if old_median else 0.0
            verdict = f"{change:+.1%} within {info['bound']:.0%}" if change <= info["bound"] else f"{change:+.1%} WORSE than {info['bound']:.0%}"
            worse += change > info["bound"]
        print(f"{workload:15s} {name:36s} {old_text:32s} {new_text:32s} {verdict}")
    return 1 if worse else 0


def record_golden(program):
    """Write golden.json from the current program: what the seed got, per weight.

    For every weight: the digest of the solution fields and whether the G
    functions came out orthogonal; if they did, the digest of the G functions
    and coefficients.  For the session weights also the verify checks that FAIL.
    """
    golden = {}
    for weight in sorted(set(GL3_LADDER + GL4_LADDER + SESSION_POOL)):
        ops = ("basis", "verify") if weight in SESSION_POOL else ("basis",)
        worker = Worker(time.perf_counter() + SETUP_LIMIT_S)
        try:
            replies = [
                worker.call({"id": 0, "op": op, "weight": weight, "traced": False}, time.perf_counter() + OP_LIMIT_S)
                for op in ops
            ]
        finally:
            worker.close()
        document = json.loads(replies[0]["output"])
        orthogonal = skew_pairs(program, document)[0] == 0
        golden[weight] = {"solutions": fields_digest(document, SOLUTION_FIELDS), "orthogonal": orthogonal}
        if orthogonal:
            golden[weight]["gt_functions"] = gt_digest(document)
        if len(replies) > 1:
            lines = replies[1]["output"].splitlines()
            golden[weight]["verify_failed"] = [line.split()[1] for line in lines if line.startswith("FAIL ")]
        print(weight, json.dumps(golden[weight]))
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    program = load_program()
    if args.record_golden:
        record_golden(program)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(program, workload, args.seed, args.seconds, args.trace, args.out)
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

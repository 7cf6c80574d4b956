"""Inputs, calls and output checks of the three benchmark workloads.

A workload is a pair of functions: ``inputs(seed)`` builds everything the
run needs before the clock starts, and ``execute(inputs, scratch)`` makes
the calls once, in a cold process, and returns a :class:`Run` with the
per-request latencies and one ``(name, passed, detail)`` entry per check.
A raised exception is caught and recorded as a failed check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import time

from supertriplet import cli, modular

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# closure: the CLI's smallest numeric cutoff.  At Im(tau) > 0.3 the dropped
# tail |q|^100 is below 1e-80, far under every tolerance of the checks.
CLOSURE_CUTOFF = 100
CLOSURE_MS = (1, 2)

# mde: the criterion 11 search at q-order 40 and the smallest m=2 search,
# which still needs the 248-column exact solve.  Together they take 5-7 s,
# so that a run holds about five processes.
MDE_CALLS = (("m1_q40", 1, 40), ("m2_q2", 2, 2))

# tables: the parameter grid of the request mix and the CSV header of each command.
TABLE_MS = (1, 2, 3)
TABLE_CUTOFFS = (20, 30, 40)
SUITES = ("theta", "characters", "zhu", "fermion")
FAMILY_INDICES = {"RLambda": lambda m: m, "RPi": lambda m: m + 1, "SLambda": lambda m: m + 1, "SPi": lambda m: m}
CSV_HEADERS = {
    "char": ["family", "index", "flavor", "m", "exponent", "coefficient"],
    "classify": ["family", "index", "i_index", "lowest_weight", "top_dim_graded", "g0_squared"],
}

# fixed invocations whose output bytes are pinned in golden.json
GOLDEN_ARGVS = (
    ("char", "--all", "--m", "1", "--cutoff", "30"),
    ("char", "--all", "--m", "1", "--cutoff", "30", "--format", "csv"),
    ("char", "--all", "--m", "2", "--cutoff", "30"),
    ("char", "--all", "--m", "2", "--cutoff", "30", "--format", "csv"),
    ("classify", "--m", "1"),
    ("classify", "--m", "2"),
    ("classify", "--m", "3"),
    ("verify", "--suite", "all", "--m", "1"),
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Run:
    """Latencies and check outcomes of one workload execution."""

    def __init__(self):
        self.latencies_ms: list = []
        self.checks: list = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as one request; an exception fails the check ``name``."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a crash in the program is a failed check
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        return result


# ----------------------------------------------------------------------
# closure
# ----------------------------------------------------------------------


def closure_grids(seed: int) -> dict:
    """``standard_grid(m)`` moved along the real axis: one common shift in
    [-0.05, 0.05] plus a jitter of at most 0.01 per point."""
    rng = random.Random(seed)
    grids = {}
    for m in CLOSURE_MS:
        base = modular.standard_grid(m, CLOSURE_CUTOFF)
        shift = rng.uniform(-0.05, 0.05)
        points = tuple(
            complex(tau.real + shift + rng.uniform(-0.01, 0.01), tau.imag) for tau in base.points
        )
        grids[m] = modular.SampleGrid(points, base.cutoff)
    return grids


def run_closure(grids: dict, scratch: str) -> Run:
    run = Run()
    for m, grid in grids.items():
        expected = 9 * m + 3
        rank = run.timed(f"closure_rank m={m}", modular.closure_rank, m, grid)
        if rank is not None:
            run.check(f"rank m={m}", rank.rank == expected, f"rank {rank.rank}, expected {expected}")
            run.check(f"gap m={m}", rank.gap > 1e6, f"gap {rank.gap:.3e}")
        fit = run.timed(f"closure_under_s_t m={m}", modular.closure_under_s_t, m, grid)
        if fit is not None:
            run.check(f"S residual m={m}", fit.worst_s_residual < 1e-6, f"{fit.worst_s_residual:.3e}")
            run.check(f"T residual m={m}", fit.worst_t_residual < 1e-6, f"{fit.worst_t_residual:.3e}")
            run.check(
                f"negative control m={m}",
                fit.negative_control_residual > 1e-2,
                f"{fit.negative_control_residual:.3e}",
            )
    return run


# ----------------------------------------------------------------------
# mde
# ----------------------------------------------------------------------


def mde_digest(result) -> str:
    return digest(json.dumps(result.to_json(), sort_keys=True).encode())


def mde_inputs(seed: int) -> tuple:
    """The fixed gate inputs: the seed has no effect."""
    return MDE_CALLS, load_golden()["mde"]


def run_mde(inputs: tuple, scratch: str) -> Run:
    calls, golden = inputs
    run = Run()
    for key, m, q_order in calls:
        result = run.timed(f"find_mde {key}", modular.find_mde, m, q_order=q_order, allow_large_m=True)
        if result is None:
            continue
        run.check(f"success {key}", result.success, result.message)
        run.check(f"verified_q_order {key}", result.verified_q_order >= q_order, str(result.verified_q_order))
        run.check(f"negative control {key}", result.negative_control_nonzero)
        run.check(f"golden {key}", mde_digest(result) == golden.get(key), "MdeResult.to_json() digest")
    return run


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------


def table_requests(seed: int) -> list:
    """Seeded closed-loop request stream.

    The mix is fixed, so that the work of a run does not depend on the
    seed: for every m and cutoff, each ``char --all`` format three times,
    five single rows and each suite once; five ``classify`` per m; and every
    golden invocation once.  The seed picks the rows and formats of the
    single-row and ``classify`` requests and shuffles the order, which
    decides which requests meet cold caches.
    """
    rng = random.Random(seed)
    out = list(GOLDEN_ARGVS)
    for m in map(str, TABLE_MS):
        for cutoff in map(str, TABLE_CUTOFFS):
            for fmt in ("json", "csv"):
                out += [("char", "--all", "--m", m, "--cutoff", cutoff, "--format", fmt)] * 3
            for _ in range(5):
                family = rng.choice(sorted(FAMILY_INDICES))
                index = str(rng.randint(1, FAMILY_INDICES[family](int(m))))
                flavor = rng.choice(("character", "supercharacter")) if family.startswith("S") else "character"
                fmt = rng.choice(("json", "csv"))
                out.append(("char", "--m", m, "--family", family, "--index", index,
                            "--flavor", flavor, "--cutoff", cutoff, "--format", fmt))
            out += [("verify", "--suite", suite, "--m", m, "--cutoff", cutoff) for suite in SUITES]
        out += [("classify", "--m", m, "--format", rng.choice(("json", "csv"))) for _ in range(5)]
    rng.shuffle(out)
    return out


def reply_problem(argv, data: bytes):
    """Why a reply is malformed, or None when it parses as its command's format."""
    text = data.decode("utf-8")
    if "csv" in argv:
        rows = list(csv.reader(text.splitlines()))
        if not rows or rows[0] != CSV_HEADERS[argv[0]]:
            return "unexpected CSV header"
        if len(rows) < 2:
            return "CSV without data rows"
        return None
    payload = json.loads(text)
    if payload.get("schema") != "1":
        return "missing schema field"
    if argv[0] == "verify" and payload.get("passed") is not True:
        return "suite reported a failed check"
    return None


def tables_inputs(seed: int) -> tuple:
    return table_requests(seed), load_golden()["cli"]


def run_tables(inputs: tuple, scratch: str) -> Run:
    requests, golden = inputs
    out = os.path.join(scratch, f"reply-{os.getpid()}")
    seen = {}
    run = Run()
    try:
        for argv in requests:
            name = " ".join(argv)
            code = run.timed(name, cli.main, list(argv) + ["--out", out])
            if code is None:
                continue
            with open(out, "rb") as fh:
                data = fh.read()
            try:
                problem = reply_problem(argv, data)
            except ValueError as exc:  # JSON or UTF-8 decoding
                problem = f"unparseable reply: {exc}"
            run.check(f"{name}: exit code", code == 0, f"exit code {code}")
            run.check(f"{name}: reply", problem is None, problem or "")
            h = digest(data)
            if name in golden:
                run.check(f"{name}: golden", h == golden[name], "output digest")
            run.check(f"{name}: repeatable", seen.setdefault(name, h) == h, "differs from earlier reply")
    finally:
        if os.path.exists(out):
            os.remove(out)
    return run


WORKLOADS = {
    "closure": (closure_grids, run_closure),
    "mde": (mde_inputs, run_mde),
    "tables": (tables_inputs, run_tables),
}


def golden_digests(scratch: str) -> dict:
    """Digests of every golden output, computed afresh."""
    out = os.path.join(scratch, f"golden-{os.getpid()}")
    cli_digests = {}
    try:
        for argv in GOLDEN_ARGVS:
            code = cli.main(list(argv) + ["--out", out])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited with {code}")
            with open(out, "rb") as fh:
                cli_digests[" ".join(argv)] = digest(fh.read())
    finally:
        if os.path.exists(out):
            os.remove(out)
    mde = {
        key: mde_digest(modular.find_mde(m, q_order=q_order, allow_large_m=True))
        for key, m, q_order in MDE_CALLS
    }
    return {"cli": cli_digests, "mde": mde}

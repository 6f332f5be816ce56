"""Seeded data and op-stream generators owned by the benchmark.

Nothing here imports ``repro``: the load is a function of ``--seed`` and the
sizes alone, so a change to program code can never change what the program
is asked to do.  Every random stream is a :class:`random.Random` seeded by a
keyed blake2b of the label path (never Python's salted ``hash()``), which
makes streams identical across processes and ``PYTHONHASHSEED`` values.

Rows are plain tuples with ``None`` for a missing value; ops are JSON-able
lists, so a stream's digest is the blake2b of its compact JSON dump.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random

DEFAULT_SEED = 1982

MEASURES = ("INCOME", "AGE", "HOURS_WORKED")
PEOPLE_COLUMNS = ("PERSON_ID", "AGE", "INCOME", "HOURS_WORKED")
EXPLORE_FUNCTIONS = (
    "count", "na_count", "sum", "mean", "var", "std", "min", "max", "median",
)
CLEAN_FUNCTIONS = ("na_count", "count", "mean", "median")
NA_RATE = 0.02

SCAN_COLUMNS = 10
SCAN_GROUPS = 8


def derive_seed(seed: int, *labels: object) -> int:
    """A per-stream seed: keyed blake2b over the label path."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    blob = "\x1f".join(str(label) for label in labels).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8, key=key).digest(), "big")


def stream(seed: int, *labels: object) -> random.Random:
    return random.Random(derive_seed(seed, *labels))


def digest(ops: object) -> str:
    """Digest of a generated stream (any JSON-able structure)."""
    blob = json.dumps(ops, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# -- data ---------------------------------------------------------------------


def people_rows(seed: int, label: str, n: int) -> list[tuple]:
    """Person-level survey rows ``(PERSON_ID, AGE, INCOME, HOURS_WORKED)``
    with ``NA_RATE`` missing values in each measure."""
    rng = stream(seed, "people", label)
    rows = []
    for person in range(n):
        age = min(99, max(0, int(rng.gauss(38, 18))))
        income = round(rng.lognormvariate(10.1, 0.7), 2)
        hours = round(max(0.0, min(80.0, rng.gauss(38, 10))), 2)
        rows.append(
            (
                person,
                None if rng.random() < NA_RATE else age,
                None if rng.random() < NA_RATE else income,
                None if rng.random() < NA_RATE else hours,
            )
        )
    return rows


def correction_value(rng: random.Random, attribute: str) -> float | int:
    """A plausible corrected level for one measure."""
    scale = {"INCOME": 30_000.0, "AGE": 40.0, "HOURS_WORKED": 38.0}[attribute]
    value = round(abs(rng.gauss(scale, scale * 0.25)), 2)
    return int(value) if attribute == "AGE" else value


def scan_rows(seed: int, n: int) -> list[tuple]:
    """``n`` rows of ``(G, C1..C9)``: a group code plus nine float measures,
    2% of C1 missing."""
    rng = stream(seed, "scan_rows")
    rows = []
    for _ in range(n):
        values = [round(rng.uniform(0.0, 1000.0), 1) for _ in range(SCAN_COLUMNS - 1)]
        if rng.random() < NA_RATE:
            values[0] = None
        rows.append((rng.randrange(SCAN_GROUPS), *values))
    return rows


def codebook_rows() -> list[tuple]:
    return [(code, f"group {code}") for code in range(SCAN_GROUPS)]


# -- served op streams --------------------------------------------------------
#
# Ops are lists: ["query", function, attribute], ["update", attribute, row,
# value], ["undo", count], ["checkpoint"].


def _zipf_picker(rng: random.Random, items: list, s: float = 1.1):
    """Draws items with probability proportional to 1/rank^s, ranks shuffled
    by the stream itself so the popular statistic differs between seeds."""
    order = list(items)
    rng.shuffle(order)
    cumulative = []
    total = 0.0
    for rank in range(1, len(order) + 1):
        total += 1.0 / rank**s
        cumulative.append(total)

    def pick():
        return order[bisect.bisect_left(cumulative, rng.random() * total)]

    return pick


def explore_ops(
    seed: int, conn: int, n_ops: int, n_rows: int,
    write_every: int, undo_every: int,
) -> list[list]:
    """Read-dominated exploration: Zipf-skewed scalar queries over 9
    functions x 3 attributes, every ``write_every``-th op a point update and
    every ``undo_every``-th an undo of the last update.  Connections are
    phase-shifted so their writes do not arrive together."""
    rng = stream(seed, "explore", conn)
    pick = _zipf_picker(rng, [(f, a) for f in EXPLORE_FUNCTIONS for a in MEASURES])
    shift = conn * (write_every // 2)
    ops: list[list] = []
    writes = 0
    for i in range(n_ops):
        j = i + shift
        if j % undo_every == undo_every - 1 and writes:
            ops.append(["undo", 1])
            writes -= 1
        elif j % write_every == write_every - 1:
            attribute = rng.choice(MEASURES)
            ops.append(
                ["update", attribute, rng.randrange(n_rows), correction_value(rng, attribute)]
            )
            writes += 1
        else:
            function, attribute = pick()
            ops.append(["query", function, attribute])
    return ops


def clean_ops(
    seed: int, conn: int, n_ops: int, n_rows: int, checkpoint_every: int
) -> list[list]:
    """Write-dominated cleaning.  Connection 0 cleans: every 30 ops hold three
    undo storms (bursts of 2, 3 and 4 updates, each burst then undone and
    followed by one query), three single survey corrections and twelve audit
    queries, the groups in seeded order, and it issues the checkpoints.
    Connection 1 audits its own view with queries alone, so every read it
    makes is a read made while someone else writes.

    One writer, not two: with two, every write, undo and read is a coin toss
    between "ran alone" and "waited for the other writer's GIL slices", and
    the median of such a mixture jumps between its two modes from run to run.

    The seed decides order, rows and values, never how much work there is:
    every seed issues the same number of each kind of op.
    """
    rng = stream(seed, "clean", conn)

    def correction() -> list:
        attribute = rng.choice(MEASURES)
        return ["update", attribute, rng.randrange(n_rows), correction_value(rng, attribute)]

    def audit() -> list:
        return ["query", rng.choice(CLEAN_FUNCTIONS), rng.choice(MEASURES)]

    if conn != 0:
        return [audit() for _ in range(n_ops)]
    ops: list[list] = []
    while len(ops) < n_ops:
        groups: list[list[list]] = []
        for burst in (2, 3, 4):
            groups.append([correction() for _ in range(burst)] + [["undo", burst], audit()])
        groups += [[correction()] for _ in range(3)]
        groups += [[audit()] for _ in range(12)]
        rng.shuffle(groups)
        for group in groups:
            ops.extend(group)
    # Cutting mid-burst leaves trailing updates without their undo, which is
    # still a valid stream.
    del ops[n_ops:]
    for i in range(checkpoint_every // 2, n_ops, checkpoint_every):
        ops[i] = ["checkpoint"]
    return ops


# -- in-process op streams ----------------------------------------------------


def scan_statements() -> list[tuple[str, str]]:
    """The seven statements of one scan cycle.  ``t`` is the plain transposed
    relation, ``ts`` the same rows sharded, ``codes`` the code book.

    The thresholds are fixed: the seed changes the rows, not how selective a
    statement is, so every seed asks for the same amount of work.
    """
    lo, narrow = 200, 930
    return [
        (
            "groupby",
            "SELECT G, count(C1) AS n, sum(C1) AS s, avg(C2) AS a, min(C3) AS mn, "
            f"max(C3) AS mx FROM t WHERE C4 > {lo} GROUP BY G",
        ),
        ("filter", f"SELECT C1, C7 FROM t WHERE C1 > {lo + 200}"),
        ("median", "SELECT G, median(C5) AS m FROM t GROUP BY G"),
        ("wide", f"SELECT * FROM t WHERE C6 > {narrow}"),
        (
            "join",
            "SELECT LABEL, count(C1) AS n, avg(C2) AS a FROM t JOIN codes ON G = CODE "
            f"WHERE C8 > {lo} GROUP BY LABEL",
        ),
        (
            "sharded",
            "SELECT G, count(C1) AS n, sum(C1) AS s, avg(C2) AS a, min(C3) AS mn, "
            f"max(C3) AS mx FROM ts WHERE C4 > {lo} GROUP BY G",
        ),
        ("topk", f"SELECT C2, C9 FROM t WHERE C9 > {narrow} ORDER BY C2 DESC LIMIT 20"),
    ]


def scan_corrections(
    seed: int, cycles: int, bursts: int, burst_size: int, n_rows: int
) -> list[list[list[list]]]:
    """Per cycle, ``bursts`` bursts of ``burst_size`` cell corrections
    ``[row, column_index, value]`` (distinct cells of C2..C9: a transposed
    page cannot grow in place, so the column that holds missing values,
    whose encoding is narrower, is left alone)."""
    rng = stream(seed, "scan_corrections")
    plan = []
    for _ in range(cycles):
        cycle = []
        for _ in range(bursts):
            cells = set()
            while len(cells) < burst_size:
                cells.add((rng.randrange(n_rows), rng.randrange(2, SCAN_COLUMNS)))
            cycle.append(
                [[row, column, round(rng.uniform(0.0, 1000.0), 1)] for row, column in sorted(cells)]
            )
        plan.append(cycle)
    return plan


def estate_updates(seed: int, view: int, n_ops: int, n_rows: int, phase: str) -> list[list]:
    """Logged cleaning ops for one managed view: point updates on the three
    measures with an ``undo(2)`` every tenth op."""
    rng = stream(seed, "estate", phase, view)
    ops: list[list] = []
    for i in range(n_ops):
        if i % 10 == 9:
            ops.append(["undo", 2])
        else:
            attribute = rng.choice(MEASURES)
            ops.append(
                ["update", attribute, rng.randrange(n_rows), correction_value(rng, attribute)]
            )
    return ops


def estate_finds(seed: int, n: int, views: int) -> list[dict]:
    rng = stream(seed, "estate_finds")
    kinds = [
        lambda: {"stat": rng.choice(("mean", "median", "na_count"))},
        lambda: {"stale": rng.random() < 0.5},
        lambda: {"wave": rng.randrange(views)},
        lambda: {"min_high_water_mark": rng.randrange(1, 40)},
    ]
    return [kinds[i % len(kinds)]() for i in range(n)]

"""One benchmark for the whole stack.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` it runs all four (each in its own process, untraced,
then traced with ``--traced``) and prints the tables; ``--repeat 2`` does
that twice and checks the two sets against the bounds; ``--smoke`` shrinks
every op count to 1/20.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import env
import gen
import metrics

RUN_SECONDS = 10
SMOKE_DIVISOR = 20
WORKLOAD_NAMES = [name for name, _ in metrics.WORKLOADS]


def command_for(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> list[str]:
    """This program, for one workload (``seconds`` before any ``--smoke``)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    return command + ["--smoke"] if smoke else command


def run_workload(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload in this process; returns the full result record."""
    env.require_repro()
    import budget
    from spans import NullRecorder, Recorder

    rec = NullRecorder()
    if traced:
        import layers

        rec = Recorder()
        layers.install(rec)
    min_beyond = 1 if smoke else metrics.MIN_BEYOND
    if workload in ("serve_explore", "serve_clean"):
        import served as module
    elif workload == "scan_mix":
        import scan_mix as module
    else:
        import estate as module
    scaled = seconds / SMOKE_DIVISOR if smoke else seconds
    result = module.run(workload, seed, scaled, traced, rec, min_beyond)
    result["workload"] = workload
    result["host"] = env.host_block(seed, result["digests"])
    if traced:
        untraced = command_for(workload, seed, seconds, False, smoke)
        result["per_layer"] = budget.per_layer(workload, result, rec, untraced)
    for leftover in env.OUT.glob(f"{workload}-*"):
        if leftover.is_dir():
            shutil.rmtree(leftover, ignore_errors=True)
    return result


def contract_line(result: dict, traced: bool) -> str:
    """The last line of standard output the driver reads."""
    names = metrics.PER_LAYER_NAMES if traced else metrics.END_TO_END_NAMES
    values = result["per_layer"] if traced else result["end_to_end"]
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                name: {"value": values[name], "unit": metrics.UNITS[name]} for name in names
            },
        }
    )


def print_result(result: dict, traced: bool) -> None:
    print(f"== {result['workload']}  ({'traced' if traced else 'untraced'})")
    print(f"   host: {json.dumps(result['host'])}")
    print(
        f"   attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {result['correct']}  timed phase {result['wall_s']:.2f} s  "
        f"host speed factor {result['host_speed']:.3f}"
    )
    for line in result["complaints"]:
        print(f"   ! {line}")
    if traced:
        for name in metrics.PER_LAYER_NAMES:
            print(f"   {name:<40} {result['per_layer'][name]:>14.6g} {metrics.UNITS[name]}")
    else:
        for name in metrics.END_TO_END_NAMES:
            samples = result["samples"].get(name, "")
            note = f"   (n={samples})" if samples != "" else ""
            print(
                f"   {name:<28} {result['end_to_end'][name]:>14.6g} {metrics.UNITS[name]:<6}{note}"
            )


def save(result: dict, traced: bool) -> None:
    """Keep the printable part of a result under ``bench/out``."""
    env.OUT.mkdir(exist_ok=True)
    kind = "traced" if traced else "untraced"
    record = {
        key: result[key]
        for key in (
            "workload", "host", "host_speed", "correct", "attempted", "failed", "wall_s", "complaints",
            "end_to_end", "samples",
        )
    }
    if traced:
        record["per_layer"] = result["per_layer"]
        record["span_table"] = result.get("span_table", {})
    path = env.OUT / f"{result['workload']}-{kind}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


# -- the whole set, each workload in its own process ---------------------------


def run_child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One workload in its own process (so peak RSS and wrappers are its
    own); returns the record it saved under ``bench/out``."""
    done = subprocess.run(
        command_for(workload, seed, seconds, traced, smoke), stdout=subprocess.PIPE, text=True
    )
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        sys.exit(f"bench: {workload} exited with {done.returncode}")
    kind = "traced" if traced else "untraced"
    return json.loads((env.OUT / f"{workload}-{kind}.json").read_text())


def run_set(seed: int, seconds: float, traced: bool, smoke: bool) -> dict[str, dict]:
    """Every workload untraced, and then (``--traced``) traced."""
    results = {}
    for workload in WORKLOAD_NAMES:
        results[workload] = run_child(workload, seed, seconds, False, smoke)
        if traced:
            run_child(workload, seed, seconds, True, smoke)
    return results


def compare(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """Print both values of every end-to-end metric, their ratio with its
    base, and the bound; False when a pair disagrees by more than its bound
    or the two runs were not given the same op streams."""
    ok = True
    print(
        f"{'workload':<15} {'metric':<28} {'first':>12} {'second':>12} "
        f"{'second/first':>13} {'bound':>6}"
    )
    for workload in WORKLOAD_NAMES:
        a, b = first[workload], second[workload]
        if a["host"]["op_stream_digests"] != b["host"]["op_stream_digests"]:
            ok = False
            print(f"{workload:<15} op-stream digests differ between the two runs")
        for name in metrics.END_TO_END_NAMES:
            base, other = a["end_to_end"][name], b["end_to_end"][name]
            ratio = other / base
            worse = ratio - 1 if metrics.BETTER[name] == "lower" else 1 / ratio - 1
            within = abs(worse) <= metrics.BOUNDS[name]
            ok &= within
            print(
                f"{workload:<15} {name:<28} {base:>12.6g} {other:>12.6g} "
                f"{ratio:>13.4f} {metrics.BOUNDS[name]:>6.2f}{'' if within else '  <-- outside'}"
            )
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="1/20 of the op counts, not gated")
    parser.add_argument("--repeat", type=int, default=1, help="run the whole set N times and compare")
    args = parser.parse_args()
    traced = bool(args.trace) or args.traced

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, traced, args.smoke)
        print_result(result, traced)
        save(result, traced)
        print(contract_line(result, traced))
        sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)

    sets = [run_set(args.seed, args.seconds, traced, args.smoke) for _ in range(args.repeat)]
    agree = all(compare(sets[0], later) for later in sets[1:])
    if not agree:
        sys.exit("bench: two sets of runs of the same code disagree by more than a bound")


if __name__ == "__main__":
    main()

"""Wall-time pairs of a change against its parent, with an A/A control.

    python tests/bench_pairs.py PARENT CHANGE --label pr51 [--rounds 10]
        [--seeds 20141011,1410] [--seconds 30]

PARENT and CHANGE are git revisions of this repository. The script
``git archive``s PARENT twice, as the parent and as a control, and CHANGE
once, into the directories A (parent), B (change) and C (control) of one
temporary directory: names of one length, holding no ``__pycache__``. Each
round runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
unedited in the three trees for every workload and seed, in an order that
rotates with the round, and reads the last JSON line of each run. The
round's parent and change runs are one pair, and so are its parent and
control runs: the control is the parent again, so its move measures the
run-to-run spread on this machine.

It writes ``BENCH_<label>.json`` at the repository root and prints the same
results as a markdown table. For each workload, seed and metric the file
holds every run's value and the summary: the parent's median and
interquartile range, the change's median and its move in %, the pairs in
which the change is better, and the same for the control. It also records
the Python version, ``os.cpu_count()``, ``os.getloadavg()`` before and after,
and the deterministic call-profile totals of ``tests/test_profile.py`` in the
parent and the change. Nothing here imports the engine, and nothing under
``perfbench/`` is edited; pytest does not collect this file (its summary
code is tested in ``tests/test_bench_pairs.py``).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("script-mix", "oracle-fuzz", "deep-witness")
ROLES = ("parent", "change", "control")
TREES = {"parent": "A", "change": "B", "control": "C"}
# a row of ``python tests/test_profile.py``: its name, kernel counts and total
PROFILE_ROW = re.compile(r"^(run_\w+) (\{.*\}) engine calls: (\d+)$", re.M)


def rotation(round_index: int) -> tuple[str, ...]:
    """The roles in the order round ``round_index`` runs them."""
    k = round_index % len(ROLES)
    return ROLES[k:] + ROLES[:k]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _move(base: float, value: float) -> float | None:
    """value's move from base in %; None where base is 0 and value is not."""
    if base == value:
        return 0.0
    return None if base == 0 else 100.0 * (value - base) / base


def summarize(samples: dict[str, list[float]], better: str) -> dict:
    """One metric's runs, {role: one value a round}, summarized; ``better``
    is "higher" or "lower". A pair is better when the change's (or the
    control's) run beats the parent's run of the same round; the change
    clears the spread when its median beats the parent's by more than the
    parent's interquartile range."""
    sign = 1 if better == "higher" else -1
    parent = samples["parent"]
    base = statistics.median(parent)
    q1, q3 = quartiles(parent)
    out = {"better": better, "samples": samples, "parent_median": base,
           "parent_iqr": [q1, q3]}
    for role in ("change", "control"):
        median = statistics.median(samples[role])
        out[f"{role}_median"] = median
        out[f"{role}_move_pct"] = _move(base, median)
        out[f"{role}_pairs_better"] = sum(sign * (x - p) > 0
                                          for p, x in zip(parent, samples[role]))
    out["pairs"] = len(parent)
    out["change_clears_iqr"] = sign * (out["change_median"] - base) > q3 - q1
    out["exact"] = len(parent) > 1 and all(len(set(samples[role])) == 1 for role in ROLES)
    return out


def _pct(move: float | None) -> str:
    return "n/a" if move is None else f"{move:+.1f}%"


def cell(s: dict) -> str:
    """One summary as a table cell: "parent [q1-q3] -> change (move, pairs
    better/pairs; ctl move)", or for a metric every run repeats exactly,
    "parent -> change (move)"."""
    if s["exact"]:
        if s["parent_median"] == s["change_median"]:
            return f"{s['parent_median']:.4g} -> {s['change_median']:.4g} (identical)"
        return (f"{s['parent_median']:.4g} -> {s['change_median']:.4g} "
                f"({_pct(s['change_move_pct'])})")
    q1, q3 = s["parent_iqr"]
    return (f"{s['parent_median']:.4g} [{q1:.4g}-{q3:.4g}] -> {s['change_median']:.4g} "
            f"({_pct(s['change_move_pct'])}, {s['change_pairs_better']}/{s['pairs']}; "
            f"ctl {_pct(s['control_move_pct'])})")


def table(results: dict, seeds: list[int]) -> str:
    """The markdown table of ``results``, {workload: {seed: {metric: summary}}}."""
    lines = ["| workload | metric | " + " | ".join(f"seed {s}" for s in seeds) + " |",
             "| --- | --- | " + " | ".join("---" for _ in seeds) + " |"]
    for workload, by_seed in results.items():
        metrics = by_seed[str(seeds[0])]
        for metric in metrics:
            cells = [cell(by_seed[str(s)][metric]) for s in seeds]
            lines.append(f"| {workload} | {metric} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; return its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                          check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)
    return commit


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one ``perfbench/run.py`` run in ``tree``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree.name} {workload} {seed}: exit {proc.returncode}, "
                           f"no result\n{proc.stderr}")
    return json.loads(lines[-1])


def profile_totals(tree: Path) -> dict | None:
    """{row: {"kernel": counts, "engine_calls": n}} of ``tests/test_profile.py``
    in ``tree``, or None where it fails. It writes no bytecode, so the
    control tree stays like the parent's."""
    proc = subprocess.run([sys.executable, "tests/test_profile.py"], cwd=tree,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:
        return None
    return {name: {"kernel": dict(sorted(ast.literal_eval(kernel).items())),
                   "engine_calls": int(total)}
            for name, kernel, total in PROFILE_ROW.findall(proc.stdout)}


def directions(tree: Path) -> dict[str, str]:
    """Each end-to-end metric's better direction, from BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seeds", default="20141011,1410")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.seconds <= 0:
        parser.error("--rounds and --seconds must be positive")
    seeds = [int(s) for s in args.seeds.split(",")]
    load_before = os.getloadavg()
    runs = {w: {s: {r: [] for r in ROLES} for s in seeds} for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {role: Path(tmp, name) for role, name in TREES.items()}
        commits = {role: export(args.change if role == "change" else args.parent, tree)
                   for role, tree in trees.items()}
        better = directions(trees["change"])
        profiles = {role: profile_totals(trees[role]) for role in ("parent", "change")}
        for k in range(args.rounds):
            for seed in seeds:
                for workload in WORKLOADS:
                    for role in rotation(k):
                        runs[workload][seed][role].append(
                            run_bench(trees[role], workload, seed, args.seconds))
            print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    load_after = os.getloadavg()
    results, failed = {}, {}
    for workload, by_seed in runs.items():
        results[workload], failed[workload] = {}, {}
        for seed, by_role in by_seed.items():
            names = list(by_role["parent"][0]["metrics"])
            results[workload][str(seed)] = {
                name: summarize({role: [run["metrics"][name]["value"] for run in by_role[role]]
                                 for role in ROLES}, better[name])
                for name in names}
            failed[workload][str(seed)] = {
                role: [sum(run["failed"] for run in by_role[role]),
                       sum(run["attempted"] for run in by_role[role])] for role in ROLES}
    document = {
        "label": args.label, "parent": commits["parent"], "change": commits["change"],
        "rounds": args.rounds, "seeds": seeds, "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "loadavg_before": list(load_before), "loadavg_after": list(load_after),
        "profile_totals": profiles, "failed_of_attempted": failed, "results": results,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(table(results, seeds))
    print(f"\nwrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

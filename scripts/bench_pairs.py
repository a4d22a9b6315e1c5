"""Benchmark a commit against the working tree in alternating pairs.

Each pair runs the benchmark's ``perfbench/run.py`` once in an unpacked copy
of the parent commit and once in the working tree, parent first in odd pairs
and change first in even pairs, with the same seed and the run length that
``BENCHMARK.json`` sets (``run_seconds``). The untraced pairs give the
end-to-end metrics; optional traced pairs give the per-layer ones. The result
is one ``BENCH_*.json`` record: the command, the method, the environment, the
``src/`` line count of both sides, the claim, every run and each side's median
and quartiles.

Usage, from the root of the checkout:

    python3 scripts/bench_pairs.py --parent HEAD --seed 83 \\
        --pairs eval-hires=10 --pairs train-default=5 --traced-pairs 1 \\
        --claim eval-hires:clips_per_s --title "..." --out BENCH_x.json

The parent copy comes from ``git archive`` into a temporary directory, which
is removed when the script ends; the repository's own checkout and git state
are not touched. The last line on stderr is the claim verdict. The script refuses to run when ``perfbench/`` or
``BENCHMARK.json`` in the working tree (untracked files included) differ
from the parent commit, so both sides always run the same benchmark.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_KEY_NUMBER = re.compile(r"(\S+)=([-+.\deE]+)(?=\s|$)")


def unpack_commit(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return the full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = dest.parent / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha],
                   cwd=ROOT, check=True)
    # The "data" filter exists from Python 3.10.12 / 3.11.4 on; the archive comes
    # from git archive, so older Pythons extract it without one.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **safe)
    archive.unlink()
    return sha


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run; returns its JSON result plus the env and layer lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {root} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    result["env"] = dict(line[4:].split("=", 1) for line in lines if line.startswith("env "))
    result["layer"] = {key: float(value) for line in lines if line.startswith("layer ")
                       for key, value in _KEY_NUMBER.findall(line)}
    return result


def run_pairs(roots: dict, workload: str, n_pairs: int, seed: int, seconds: float,
              trace: bool, log) -> dict:
    """``n_pairs`` alternating pairs; returns {side: [result, ...]}."""
    runs = {"parent": [], "change": []}
    for i in range(n_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], workload, seed, seconds, trace)
            runs[side].append(result)
            log(f"{workload} trace={int(trace)} pair {i + 1}/{n_pairs} {side}: "
                + (f"clips_per_s={result['metrics']['clips_per_s']['value']:.1f}"
                   if "clips_per_s" in result["metrics"] else "done"))
    return runs


def summarize(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "runs": [round(v, 4) for v in values]}


def compare(spec: dict, parent: list, change: list) -> dict:
    """Both sides of one end-to-end metric, with pair wins and the worsening share."""
    higher = spec["better"] == "higher"
    p, c = summarize(parent), summarize(change)
    wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(parent, change))
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c, "change_wins_pairs": int(wins),
            "change_vs_parent_median": round(ratio, 4),
            "worse_by_share": round((1 - ratio) if higher else (ratio - 1), 4),
            "parent_iqr": round(p["q3"] - p["q1"], 4)}


def workload_record(runs: dict, end_to_end: list) -> dict:
    return {
        "pairs": len(runs["parent"]),
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
        "metrics": {spec["name"]: compare(
            spec, [r["metrics"][spec["name"]]["value"] for r in runs["parent"]],
            [r["metrics"][spec["name"]]["value"] for r in runs["change"]])
            for spec in end_to_end},
    }


def traced_record(runs: dict) -> dict:
    """Per-layer means over the traced runs of each side, JSON and layer lines."""
    out = {"pairs": len(runs["parent"])}
    for side, results in runs.items():
        values = {}
        for r in results:
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in r["layer"].items():
                values.setdefault(name, []).append(v)
        out[side] = {name: round(float(np.mean(v)), 4) for name, v in values.items()}
    return out


def claim_verdict(record: dict, workload: str, metric: str) -> dict:
    """A gain counts over at least ten pairs when the change wins nine tenths
    of them and the median gap exceeds the parent's interquartile range, and
    only while every change run is correct and no larger share of the
    change's operations fails than of the parent's."""
    w = record[workload]
    m = w["metrics"][metric]
    gap = abs(m["change"]["median"] - m["parent"]["median"])
    better = m["worse_by_share"] < 0
    pairs = w["pairs"]
    failed_share = {s: w["failed"][s] / max(w["attempted"][s], 1) for s in ("parent", "change")}
    sound = w["correct"]["change"] and failed_share["change"] <= failed_share["parent"]
    return {"workload": workload, "metric": metric, "pairs": pairs,
            "change_wins_pairs": m["change_wins_pairs"],
            "median_gap": round(gap, 4), "parent_iqr": m["parent_iqr"],
            "change_correct": w["correct"]["change"], "failed_share": failed_share,
            "met": bool(sound and better and pairs >= 10
                        and m["change_wins_pairs"] >= 0.9 * pairs and gap > m["parent_iqr"])}


def verdict_line(verdict: dict | None) -> str:
    """The claim verdict as one line: met or not, pair wins, median gap and
    the parent's interquartile range."""
    if verdict is None:
        return "claim: none"
    v = verdict
    return (f"claim {v['workload']}:{v['metric']} {'met' if v['met'] else 'NOT met'}: "
            f"change won {v['change_wins_pairs']}/{v['pairs']} pairs, median gap "
            f"{v['median_gap']:g} vs parent IQR {v['parent_iqr']:g}"
            + ("" if v["change_correct"] else ", a change run was not correct"))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", default="HEAD", help="commit to compare against")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                    help="untraced pairs for one workload; repeat per workload")
    ap.add_argument("--traced-pairs", type=int, default=0,
                    help="traced pairs per workload, run after the untraced ones")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed metric")
    ap.add_argument("--title", default="")
    ap.add_argument("--host", default="", help="free text describing the machine")
    ap.add_argument("--out", required=True, help="BENCH_*.json to write")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    plan = {}
    for item in args.pairs:
        name, _, n = item.partition("=")
        if name not in {w["name"] for w in bench["workloads"]} or not n.isdigit() \
                or int(n) < 1:
            raise SystemExit(f"error: bad --pairs {item!r}; expected WORKLOAD=N with N >= 1")
        plan[name] = int(n)
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in plan or metric not in {m["name"] for m in bench["end_to_end"]}:
            raise SystemExit(f"error: bad --claim {args.claim!r}")
        claim = (workload, metric)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    bench_paths = ["--", "perfbench", "BENCHMARK.json"]
    differs = subprocess.run(["git", "diff", "--quiet", args.parent, *bench_paths],
                             cwd=ROOT).returncode != 0
    untracked = subprocess.run(["git", "ls-files", "--others", "--exclude-standard",
                                *bench_paths], cwd=ROOT,
                               check=True, capture_output=True, text=True).stdout.strip()
    if differs or untracked:
        raise SystemExit("error: perfbench/ or BENCHMARK.json differs from the parent; "
                         "both sides must run the same benchmark")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        sha = unpack_commit(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        record, traced, env = {}, {}, {}
        for workload, n in plan.items():
            runs = run_pairs(roots, workload, n, args.seed, seconds, False, log)
            env = runs["change"][0]["env"]
            record[workload] = workload_record(runs, bench["end_to_end"])
        for workload in plan if args.traced_pairs else ():
            traced[workload] = traced_record(run_pairs(
                roots, workload, args.traced_pairs, args.seed, seconds, True, log))
        lines = {"parent": src_lines(parent_root), "change": src_lines(ROOT)}

    env = {k: v for k, v in env.items() if k not in ("git_commit", "src_lines")}
    out = {
        "title": args.title,
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0|1",
        "method": (f"parent commit {sha[:7]} (unpacked with git archive) and the working "
                   f"tree, run back to back in alternating pairs (parent first in odd "
                   f"pairs, change first in even pairs) by scripts/bench_pairs.py; "
                   f"untraced runs give the end-to-end metrics, {args.traced_pairs} traced "
                   f"pair(s) per workload after them give the per-layer means in 'traced'. "
                   f"Quartiles are numpy linear-interpolation percentiles of the per-run "
                   f"values."),
        "host": args.host,
        "src_lines": lines,
        "env": env,
        "claim": claim_verdict(record, *claim) if claim else None,
        "workloads": record,
        "traced": traced,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {args.out}")
    log(verdict_line(out["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

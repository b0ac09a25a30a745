#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark.
#
#   scripts/bench_pairs.sh [<ref>=HEAD~1] <workload>|all [pairs=10]
#
# Compares the working tree ("change") against <ref> ("parent") on one
# BENCHMARK.json workload — or, with `all`, on each of them in turn,
# ending with one workload x metric table of the verdicts and the
# worst workload's exit status — the way choosing-metrics §8 asks: <ref> is
# exported under target/bench_pairs/, both sides are built with the
# exact BENCHMARK.json command, then run as alternating untraced pairs
# of the declared run length (which side goes first alternates, one
# fresh clock-derived seed per pair, printed with the pair). Per
# end-to-end metric it prints both medians and quartiles, the pairs the
# change won, and the verdict against the metric's `bound`:
#
#   gain        change ahead in >= 9/10 of the pairs and the medians
#               differ by more than the parent's own interquartile range
#   inside      change's median no worse than the parent's by more than
#               the bound
#   unresolved  inside, but the parent's own quartiles are further apart
#               than the bound and not every pair went to the change
#   REGRESSION  change's median worse than the parent's by more than the
#               bound
#
# Exits 1 if the verdict digest differs within a pair, any run reports
# `failed` > 0, or a metric regressed. Run it on a quiet machine: the
# gateway metrics swing +-15 % while another cargo job is running.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,7p' "$0" >&2
    exit 2
}
ref="HEAD~1"
pairs=10
case $# in
    1) workload=$1 ;;
    2) if [[ $2 =~ ^[0-9]+$ ]]; then workload=$1 pairs=$2; else ref=$1 workload=$2; fi ;;
    3) ref=$1 workload=$2 pairs=$3 ;;
    *) usage ;;
esac
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

sha=$(git rev-parse --verify --quiet "$ref^{commit}") || {
    echo "bench_pairs: no such commit: $ref" >&2
    exit 2
}
parent_dir="$PWD/target/bench_pairs/$sha"
if [[ ! -d $parent_dir ]]; then
    mkdir -p "$parent_dir"
    git archive "$sha" | tar -x -C "$parent_dir"
fi

exec python3 - "$PWD" "$parent_dir" "$sha" "$workload" "$pairs" <<'PY'
import json, re, subprocess, sys, time

change_dir, parent_dir, sha, workload, pairs = sys.argv[1:6]
pairs = int(pairs)
spec = json.load(open(f"{change_dir}/BENCHMARK.json"))
declared = [w["name"] for w in spec["workloads"]]
if workload != "all" and workload not in declared:
    sys.exit(f"bench_pairs: unknown workload {workload}")
command, seconds = spec["command"], spec["run_seconds"]
dirs = {"parent": parent_dir, "change": change_dir}
names = [m["name"] for m in spec["end_to_end"]]


def run(side, workload, seed, secs):
    """One untraced run of the exact BENCHMARK.json command in `side`'s tree."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(secs), "--trace", "0"]
    out = subprocess.run(command + args, cwd=dirs[side], capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        digest = re.search(r"digest ([0-9a-f]+)", out.stdout).group(1)
    except (IndexError, ValueError, AttributeError):
        sys.exit(f"bench_pairs: {side} run failed (exit {out.returncode}):\n{out.stdout}{out.stderr}")
    return result, digest


def quartiles(xs):
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(workload):
    """Runs the pairs on one workload, prints its table, returns (verdicts, bad)."""
    values = {side: {n: [] for n in names} for side in dirs}
    mismatch = False  # a digest differs within a pair, or a run failed requests
    base = int(time.time()) % 1_000_000
    print(f"{workload}: {pairs} pairs of {seconds} s, parent {sha[:7]} vs working tree", flush=True)
    for k in range(pairs):
        seed = base + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: run(side, workload, seed, seconds) for side in order}
        failed = {side: got[side][0]["failed"] for side in dirs}
        same = got["parent"][1] == got["change"][1]
        mismatch |= not same or any(failed.values())
        for side in dirs:
            for n in names:
                values[side][n].append(got[side][0]["metrics"][n]["value"])
        lead = "throughput_rps"
        print(
            f"  pair {k + 1:2} seed {seed} first {order[0]:6} {lead}"
            f" {values['parent'][lead][-1]:.4g} -> {values['change'][lead][-1]:.4g}"
            f"  failed {failed['parent']}/{failed['change']}"
            f"  digest {'equal' if same else 'DIFFERS'} {got['change'][1]}",
            flush=True,
        )

    print(f"\n{'metric':24} {'parent q1/med/q3':34} {'change q1/med/q3':34} {'delta':>8} {'won':>6}  verdict (bound)")
    verdicts, bad = {"digests, failed": "MISMATCH" if mismatch else "equal, 0"}, mismatch
    for m in spec["end_to_end"]:
        n, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "higher" else -1.0
        p, c = values["parent"][n], values["change"][n]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        gain = sign * (cm - pm)  # > 0: the change's median is better
        rel = gain / abs(pm) if pm else 0.0
        if rel < -bound:
            verdict, bad = "REGRESSION", True
        elif 10 * won >= 9 * pairs and gain > p3 - p1:
            verdict = "gain"
        elif pm and (p3 - p1) / abs(pm) > bound and lost:
            verdict = "unresolved"
        else:
            verdict = "inside"
        verdicts[n] = f"{verdict} {sign * rel:+.1%}"
        fmt = lambda a, b, c: f"{a:.5g} / {b:.5g} / {c:.5g}"
        print(
            f"{n:24} {fmt(p1, pm, p3):34} {fmt(c1, cm, c3):34} {sign * rel:+8.1%}"
            f" {won:>3}/{pairs:<2}  {verdict} ({bound:.0%})",
            flush=True,
        )
    return verdicts, bad


for side in dirs:
    print(f"building {side} ({dirs[side]})", flush=True)
    run(side, declared[0], 0, 1)  # the first invocation builds; its numbers are discarded

if workload != "all":
    sys.exit(1 if compare(workload)[1] else 0)

table, worst = {}, False
for w in declared:
    table[w], bad = compare(w)
    worst |= bad
    print()
width = {w: 2 + max(map(len, [w, *row.values()])) for w, row in table.items()}
print(f"{'':24}" + "".join(f"{w:>{width[w]}}" for w in table))
for n in names + ["digests, failed"]:
    print(f"{n:24}" + "".join(f"{row[n]:>{width[w]}}" for w, row in table.items()))
sys.exit(1 if worst else 0)
PY

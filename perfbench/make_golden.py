#!/usr/bin/env python3
"""Regenerates perfbench/golden.tsv from statsched_cli iterate.

    python3 perfbench/make_golden.py --cli build/tools/statsched_cli

Runs every benchmark workload for campaign seeds 1..24 with the CLI and
records what it prints: sample size, iterations, best PPS, UPB, failed
measurements and the best assignment. The workload arguments here must
match kWorkloads and the constants after it in campaign_bench.cc; a
mismatch shows as a failed output check. A journaled workload runs the
CLI twice, stopping on the round budget and then resuming, and records
the resumed run.
"""

import argparse
import os
import re
import shutil
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
T2 = ["--benchmark", "ipfwd-l1", "--ninit", "1000", "--ndelta", "100"]
WORKLOADS = {
    "paper24": T2 + ["--instances", "8", "--threads", "1",
                     "--loss", "0.001", "--max", "12000"],
    "paper6": T2 + ["--instances", "2", "--threads", "1",
                    "--loss", "0.001", "--max", "50000"],
    "durable24": T2 + ["--instances", "8", "--threads", "2",
                       "--loss", "0.001", "--max", "12000",
                       "--fault-rate", "5", "--fault-garbage", "2",
                       "--retries", "3"],
}
FIRST_ROUNDS = {"durable24": 56}
SEEDS = 24
SCRATCH = ".bench_build/golden"


def iterate(cli, args, expect):
    done = subprocess.run([cli, "iterate"] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode not in expect:
        raise SystemExit("%s exited %d, expected one of %s" %
                         (" ".join(args), done.returncode, expect))
    return done.stdout


def parse(stdout):
    head = re.search(r"after (\d+) assignments \((\d+) iterations\)", stdout)
    final = re.search(r"final: best (\S+) PPS, UPB (\S+) PPS", stdout)
    best = re.search(r"best assignment:\s+(\S.*)", stdout)
    failed = re.search(r"failed measurements: (\d+) of", stdout)
    return [head.group(1), head.group(2), final.group(1), final.group(2),
            failed.group(1) if failed else "0", best.group(1)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True)
    args = parser.parse_args()

    rows = ["# workload\tseed\tsamples\titerations\tbest_pps\tupb_pps"
            "\tfailed\tbest_assignment"]
    for name, base in WORKLOADS.items():
        for seed in range(1, SEEDS + 1):
            run = base + ["--seed", str(seed)]
            if name in FIRST_ROUNDS:
                shutil.rmtree(SCRATCH, ignore_errors=True)
                os.makedirs(SCRATCH)
                run += ["--journal", os.path.join(SCRATCH, "g.jnl")]
                # Exit 6: stopped on the round budget (0: met before).
                iterate(args.cli, run + ["--max-rounds",
                                         str(FIRST_ROUNDS[name])], (0, 6))
                run += ["--resume"]
            # Exit 3: the cap ended the campaign. Exit 0: the stopping
            # rule was met, which at these loss targets happens only
            # when the tail fit degrades to UPB = best observed.
            rows.append("\t".join([name, str(seed)] +
                                  parse(iterate(args.cli, run, (0, 3)))))
            print(rows[-1])
    shutil.rmtree(SCRATCH, ignore_errors=True)
    with open(os.path.join(HERE, "golden.tsv"), "w") as out:
        out.write("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()

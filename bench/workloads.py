"""The benchmark's workloads: which `mobyreg` command each one runs.

Each workload is one CLI invocation, built from the benchmark seed.  The
sizes (rounds, clients) are chosen so that one pass takes about a second on
a 2-core machine, which leaves room for ten or more passes in a run.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass

# Resilience denominators of the four fault models (n > alpha * f), written
# out here so the grid's n = alpha * f + 1 is checked against the paper's
# table and not against the program's own.
ALPHA = {"garay": 3, "bonnet": 4, "sasaki": 4, "buhrman": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "run" or "sweep"
    options: tuple        # CLI options apart from the seed and output paths
    model: str = ""       # for "run": the fault model, n and f checked against
    n: int = 0
    f: int = 0
    messages: bool = False  # the run records per-message send/deliver events
    ops_per_client: int = 0   # > 0: operations come from a generated directives file

    def cli_args(self, seed: int, out_dir: pathlib.Path) -> list[str]:
        """The argument list handed to `mobyreg` for one pass."""
        if self.command == "sweep":
            return ["sweep", *self.options, "--seeds", str(seed),
                    "--out", str(out_dir / "table.tsv")]
        options = list(self.options)
        if self.ops_per_client:
            options[options.index("--workload") + 1] = str(directives_path(out_dir))
        return ["run", *options, "--seed", str(seed), "--out-dir", str(out_dir)]

    def write_inputs(self, seed: int, out_dir: pathlib.Path) -> None:
        """Write the generated directives file, if this workload has one.

        Each client runs exactly ``ops_per_client`` operations, half of them
        reads, in a seeded order and with seeded idle gaps, so that every
        seed checks the same number of operations.  (With three clients a
        random workload's operation count varies by about 18% between seeds.)
        """
        if not self.ops_per_client:
            return
        rng = random.Random(seed)
        rounds = int(self.options[self.options.index("--rounds") + 1])
        clients = int(self.options[self.options.index("--clients") + 1])
        directives = []
        for client in range(clients):
            kinds = ["read", "write"] * (self.ops_per_client // 2)
            kinds += ["write"] * (self.ops_per_client % 2)
            rng.shuffle(kinds)
            idle = rounds - sum(2 if k == "read" else 1 for k in kinds)
            cuts = sorted(rng.randint(0, idle) for _ in kinds)
            busy = 0
            for k, (kind, cut) in enumerate(zip(kinds, cuts)):
                directives.append({"round": 1 + busy + cut, "client": client, "op": kind,
                                   "value": f"c{client}w{k}" if kind == "write" else None})
                busy += 2 if kind == "read" else 1
        path = directives_path(out_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        directives.sort(key=lambda d: (d["round"], d["client"]))
        path.write_text(json.dumps(directives))


def directives_path(out_dir: pathlib.Path) -> pathlib.Path:
    return out_dir.parent / "directives.json"


def _run(name, model, n, f, clients, workload, rounds, messages=False,
         ops_per_client=0):
    options = ("--model", model, "--n", str(n), "--f", str(f),
               "--clients", str(clients), "--workload", workload,
               "--adversary", "random", "--rounds", str(rounds))
    if messages:
        options += ("--trace-messages",)
    return Workload(name, "run", options, model, n, f, messages, ops_per_client)


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    _run("wide-n121", "sasaki", 121, 30, 3, "directives", 80, ops_per_client=15),
    # Every idle client starts an operation each round (rate 1.0), so only
    # the read/write mix varies between seeds: the operation count varies by
    # ~1.3% instead of ~2.8% at rate 0.5, and the quadratic check twice that.
    _run("long-history", "garay", 7, 2, 24, "random:1.0:0.5", 90),
    Workload("grid", "sweep",
             ("--models", "garay,bonnet,sasaki,buhrman", "--f-values", "1,2,3",
              "--rounds", "300", "--clients", "3", "--jobs", "1")),
    _run("traced-reads", "bonnet", 17, 4, 12, "random:0.5:0.8", 100, messages=True),
)}

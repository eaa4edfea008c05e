"""Seeded generator of the `molecules` workload's alkane dataset.

The same seed always gives the same rows.  Row composition is fixed
exactly, not drawn, so that different seeds give workloads of equal
cost:

- regular rows: random molecular trees of 8..40 carbons, sizes spread
  evenly over that range;
- duplicate rows (30 %): the skeleton of an earlier regular row, written
  from a different start atom, so only a canonical form shows the match;
- tail rows (0.5 %): long chains with sparse methyl branches, their
  backbones evenly spaced over 200..3000 carbons.  Chains of about 1000
  carbons and more exceed the interpreter's recursion limit in
  ``alkane_to_smiles`` at the commit this benchmark was written for;
  the spacing keeps every backbone well away from that edge, so the
  number of such rows does not change with the seed.

Each row also carries two property columns: ``mw`` (molecular weight)
and ``bp`` (a synthetic boiling-point-like value with seeded noise).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROWS = 2000
DUPLICATE_SHARE = 0.30
TAIL_SHARE = 0.005
REGULAR_SIZES = (8, 40)
TAIL_BACKBONE = (200, 3000)
TAIL_BRANCH_P = 0.05
PROPERTIES = ("bp", "mw")


@dataclass(frozen=True)
class Molecule:
    name: str
    smiles: str
    adj: tuple[tuple[int, ...], ...]  # the generator's own tree
    group: int  # index of the row whose skeleton this is (itself if new)
    kind: str  # "regular", "duplicate" or "tail"
    properties: dict[str, float]


def _random_tree(n: int, rng: random.Random) -> list[list[int]]:
    """Random recursive tree with maximum degree four."""
    adj: list[list[int]] = [[]]
    for v in range(1, n):
        while True:
            u = rng.randrange(v)
            if len(adj[u]) < 4:
                break
        adj.append([u])
        adj[u].append(v)
    return adj


def _tail_chain(backbone: int, rng: random.Random) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(backbone)]
    for v in range(1, backbone):
        adj[v - 1].append(v)
        adj[v].append(v - 1)
    for v in range(1, backbone - 1):
        if rng.random() < TAIL_BRANCH_P:
            adj.append([v])
            adj[v].append(len(adj) - 1)
    return adj


def write_smiles(adj: list[list[int]], start: int, rng: random.Random) -> str:
    """SMILES of the tree read from `start`, children in random order
    (iterative, so long chains need no deep recursion)."""
    out: list[str] = []
    stack: list[tuple[str, int, int]] = [("atom", start, -1)]
    while stack:
        kind, v, parent = stack.pop()
        if kind != "atom":
            out.append(kind)
            continue
        out.append("C")
        children = [u for u in adj[v] if u != parent]
        rng.shuffle(children)
        if children:
            stack.append(("atom", children[-1], v))
            for c in reversed(children[:-1]):
                stack.append((")", -1, -1))
                stack.append(("atom", c, v))
                stack.append(("(", -1, -1))
    return "".join(out)


def _properties(adj: list[list[int]], rng: random.Random) -> dict[str, float]:
    n = len(adj)
    branch_points = sum(1 for a in adj if len(a) > 2)
    bp = (745.42 * math.log10(n + 4.4) - 689.4 - 3.0 * branch_points
          + rng.gauss(0.0, 2.0))
    return {"bp": round(bp, 2), "mw": round(12.011 * n + 1.008 * (2 * n + 2), 3)}


def generate(seed: int, rows: int = ROWS) -> list[Molecule]:
    """The dataset for `seed`: deterministic, in CSV row order."""
    rng = random.Random(seed)
    n_dup = round(rows * DUPLICATE_SHARE)
    n_tail = max(1, round(rows * TAIL_SHARE))
    n_regular = rows - n_dup - n_tail
    kinds = ["regular"] * n_regular + ["duplicate"] * n_dup + ["tail"] * n_tail
    rng.shuffle(kinds)
    # a duplicate needs an earlier regular row to copy
    first = kinds.index("regular")
    kinds[0], kinds[first] = kinds[first], kinds[0]

    lo, hi = REGULAR_SIZES
    sizes = [lo + i % (hi - lo + 1) for i in range(n_regular)]
    rng.shuffle(sizes)
    t_lo, t_hi = TAIL_BACKBONE
    backbones = [t_lo + round(k * (t_hi - t_lo) / max(n_tail - 1, 1))
                 for k in range(n_tail)]
    rng.shuffle(backbones)

    out: list[Molecule] = []
    originals: list[int] = []  # rows that duplicates may copy
    starts: dict[int, int] = {}
    for row, kind in enumerate(kinds):
        name = f"mol{row:05d}"
        if kind == "duplicate":
            group = rng.choice(originals)
            adj = [list(a) for a in out[group].adj]
            start = rng.choice([v for v in range(len(adj)) if v != starts[group]])
        else:
            group = row
            adj = (_random_tree(sizes.pop(), rng) if kind == "regular"
                   else _tail_chain(backbones.pop(), rng))
            start = 0 if kind == "tail" else rng.randrange(len(adj))
            if kind == "regular":
                originals.append(row)
        starts[row] = start
        out.append(Molecule(name, write_smiles(adj, start, rng),
                            tuple(tuple(a) for a in adj), group, kind,
                            _properties(adj, rng)))
    return out


def shares(molecules: list[Molecule]) -> dict[str, float]:
    """Measured duplicate and long-tail shares of a dataset."""
    n = len(molecules)
    return {kind: sum(1 for m in molecules if m.kind == kind) / n
            for kind in ("duplicate", "tail")}


def write_csv(molecules: list[Molecule], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("name", "smiles") + PROPERTIES)
        for m in molecules:
            writer.writerow([m.name, m.smiles]
                            + [repr(m.properties[p]) for p in PROPERTIES])

"""The four workloads: instances with known answers, made from a seed.

An instance is a list of row masks over 0-based column positions (row
label ``i + 1``, column label ``j + 1``), kept by the benchmark for its own
checks, plus the matrix-file text the program parses. The seed changes
labels and orders, never the amount of work: two seeds give isomorphic
instances, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


def _structure(*key) -> random.Random:
    """The generator of one instance's row structure, fixed by its sizes.

    Only the hidden column order comes from the seed. The Helly scan stops
    at its first violating triple, so its cost depends on where the rows
    around a noise row's gap fall in row order; between random row orders
    of one size it varies up to tenfold, which no seed should bring in.
    """
    return random.Random(" ".join(map(str, key)))


@dataclass
class Instance:
    masks: list[int]
    n: int
    optimum: int | None = None  # minimum rows to delete; None = search for it
    exact: frozenset[int] = field(default_factory=frozenset)  # the unique optimal solution, if known
    has_cop: bool | None = None  # recognize: the known check-cop verdict

    def text(self) -> str:
        n = self.n
        lines = [f"{len(self.masks)} {n}"]
        lines.extend(format(mask, f"0{n}b")[::-1] for mask in self.masks)
        return "\n".join(lines) + "\n"


@dataclass
class Workload:
    instances: list[Instance]
    ops: list[tuple[int, int | None]]  # (instance index, budget d); d is None for check-cop

    def __post_init__(self):
        self.texts = [inst.text() for inst in self.instances]
        self.recognize = all(d is None for _, d in self.ops)


def _random_masks(seed: int, m: int, n: int, density: float) -> list[int]:
    """Same draws as ``cosr.oracle.random_instance`` (row-major Mersenne Twister)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        mask = 0
        for j in range(n):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask)
    return rows


def corpus(seed: int) -> Workload:
    """The acceptance corpus: 504 random matrices, each solved at d = 0..3.

    The matrices are those of ``tests/test_acceptance.py``, pinned there,
    so the seed changes nothing. Shuffling the 2,016 solves by seed was
    tried: it moved the garbage collector's pauses onto other solves and
    spread ``op_tail_ms`` by 10 % between seeds.
    """
    instances = []
    for i in range(168):
        m, n = 3 + i % 6, 3 + (i // 6) % 6
        for k, density in enumerate((0.3, 0.5, 0.7)):
            instances.append(Instance(_random_masks(100_000 + 3 * i + k, m, n, density), n))
    return Workload(instances, [(i, d) for i in range(len(instances)) for d in range(4)])


def _on(order: list[int], positions) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << order[p]
    return mask


def _layered(structure: random.Random, n: int, copies: int, extra: int) -> list[tuple[int, int]]:
    """Hidden-order runs (first, last): every link ``copies`` times, plus ``extra`` random runs."""
    runs = [(p, p + 1) for p in range(n - 1) for _ in range(copies)]
    longest = max(2, n // 32)
    for _ in range(extra):
        first = structure.randrange(n - 1)
        runs.append((first, min(n - 1, first + structure.randrange(1, longest))))
    return runs


def _gapped(structure: random.Random, n: int) -> tuple[int, int, int]:
    """A run (first, last) of length >= 3 and an interior position it skips."""
    first = structure.randrange(n - 2)
    last = min(n - 1, first + structure.randrange(2, max(3, n // 8)))
    return first, last, structure.randrange(first + 1, last)


def _planted_instance(order: list[int], k: int, extra: int) -> Instance:
    """``k`` gapped noise rows among links repeated k+1 times and ``extra`` runs.

    Deleting at most k rows keeps a copy of every link, which forces the
    hidden order up to reversal; a noise row skips one position of it, so
    all k noise rows must go. The unique solution at d = k is the noise
    rows, and d = k - 1 is NO. Each noise row with the two links around
    its gap is a Helly triple with empty intersection, so only rule 1
    ever branches.
    """
    n = len(order)
    structure = _structure("planted", n, k, extra)
    rows = [("run", run) for run in _layered(structure, n, k + 1, extra)]
    rows += [("noise", _gapped(structure, n)) for _ in range(k)]
    structure.shuffle(rows)
    masks, noise = [], set()
    for label, (kind, run) in enumerate(rows, start=1):
        if kind == "noise":
            first, last, gap = run
            masks.append(_on(order, (p for p in range(first, last + 1) if p != gap)))
            noise.add(label)
        else:
            masks.append(_on(order, range(run[0], run[1] + 1)))
    return Instance(masks, n, optimum=k, exact=frozenset(noise))


# (n, k, extra): m = (n - 1)(k + 1) + extra + k rows, at most 1,199. At
# m = 1,999 one solve takes 4.5 s or more: an operation that long leaves
# room for only one or two passes, and no kernel run can fall inside it.
PLANTED_SIZES = [
    (400, 1, 400), (300, 1, 300), (200, 1, 200), (150, 1, 150), (100, 1, 100),
    (75, 1, 75), (50, 1, 50), (25, 1, 25), (150, 2, 150), (100, 2, 100),
    (75, 2, 75), (50, 2, 50), (25, 2, 25), (75, 3, 75), (50, 3, 50),
    (40, 3, 40), (30, 3, 30), (25, 3, 25), (20, 3, 20), (20, 2, 20),
]


def planted(seed: int) -> Workload:
    """Large planted instances, each solved at d = k (unique YES) and d = k - 1 (NO)."""
    relabel = random.Random(seed)
    instances, ops = [], []
    for n, k, extra in PLANTED_SIZES:
        order = list(range(n))
        relabel.shuffle(order)
        instances.append(_planted_instance(order, k, extra))
        ops += [(len(instances) - 1, k), (len(instances) - 1, k - 1)]
    return Workload(instances, ops)


CORE_SIZES = range(5, 10)
CORE_SHUFFLES = 4


def core(seed: int) -> Workload:
    """Complement-of-identity cores, rows U minus {i}, shuffled by the seed.

    A column order with the property keeps at most two such rows: each
    row's missing column must sit at an end of the order. So the optimum
    is k - 2; each core is solved at d = k - 3 (NO) and d = k - 2 (YES).
    """
    rng = random.Random(seed)
    instances, ops = [], []
    for _ in range(CORE_SHUFFLES):
        for k in CORE_SIZES:
            missing = list(range(k))
            rng.shuffle(missing)
            full = (1 << k) - 1
            instances.append(Instance([full ^ (1 << j) for j in missing], k, optimum=k - 2))
            ops += [(len(instances) - 1, k - 3), (len(instances) - 1, k - 2)]
    return Workload(instances, ops)


def _staircase(order: list[int], depth: int) -> Instance:
    """Row r holds the first r + 1 columns of the hidden order: nested prefixes."""
    return Instance([_on(order, range(r + 1)) for r in range(1, depth + 1)], depth + 1, has_cop=True)


# (n, extra): m = n - 1 + extra rows, one more in the spoiled copy.
RECOGNIZE_PLANTED = [
    (400, 1600), (400, 1200), (400, 800), (400, 400), (400, 200), (300, 300),
    (200, 200), (200, 100), (100, 100), (100, 50), (50, 50), (50, 25),
]
RECOGNIZE_STAIRS = list(range(50, 801, 50))
# Deeper than the default recursion limit: cop_order's recursive layout
# raises RecursionError here, so this operation fails on every run.
DEEP_STAIR = 1200


def _recognize_pair(order: list[int], extra: int) -> tuple[Instance, Instance]:
    """A planted COP matrix, and the same with one gapped row added.

    Links (each once) force the hidden order up to reversal, so the first
    has COP and the gapped row takes it away.
    """
    n = len(order)
    structure = _structure("recognize", n, extra)
    masks = [_on(order, range(a, b + 1)) for a, b in _layered(structure, n, 1, extra)]
    structure.shuffle(masks)
    first, last, gap = _gapped(structure, n)
    spoiled = masks + [_on(order, (p for p in range(first, last + 1) if p != gap))]
    return Instance(masks, n, has_cop=True), Instance(spoiled, n, has_cop=False)


def recognize(seed: int) -> Workload:
    """``check-cop`` on planted COP matrices, their spoiled copies, and staircases."""
    relabel = random.Random(seed)
    instances = []
    for n, extra in RECOGNIZE_PLANTED:
        order = list(range(n))
        relabel.shuffle(order)
        instances += _recognize_pair(order, extra)
    for depth in RECOGNIZE_STAIRS + [DEEP_STAIR]:
        order = list(range(depth + 1))
        relabel.shuffle(order)
        instances.append(_staircase(order, depth))
    return Workload(instances, [(i, None) for i in range(len(instances))])


WORKLOADS = {"corpus": corpus, "planted": planted, "core": core, "recognize": recognize}

"""Seeded case mixes for the benchmark workloads.

A workload is a fixed mix of CLI verification runs. The seed picks every
input the program sees (orbital names, spins, mode indices, windings and the
runs' own --seed values); the program receives only the generated argv.
One pass of a workload runs each case of its mix once.

The weights put p50 and p90 inside one case's block of sorted samples (or
between cases of near-equal cost), never on the boundary between a cheap
case and a dear one, where a few samples moving across it shift the
percentile by the cost gap. README.md lists the block each percentile
lands in.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Case:
    """One CLI verification run and the inputs its oracle needs."""

    label: str
    command: str
    argv: tuple
    params: dict = field(default_factory=dict)


def _seed_flag(rng: random.Random) -> str:
    return f"--seed={rng.randrange(1, 2**31)}"


def _sum_rule(rng, dims: tuple, n_cut: int) -> Case:
    text = ",".join(str(d) for d in dims)
    return Case(
        f"sum-rule d={text} n_cut={n_cut}",
        "sum-rule",
        ("sum-rule", f"--dims={text}", f"--n-cut={n_cut}", _seed_flag(rng)),
        {"dims": dims, "n_cut": n_cut},
    )


def _angular(rng, dims: int, n_cut: int) -> Case:
    return Case(
        f"angular-momentum d={dims} n_cut={n_cut}",
        "angular-momentum",
        ("angular-momentum", f"--dims={dims}", f"--n-cut={n_cut}", _seed_flag(rng)),
        {"dims": (dims,), "n_cut": n_cut},
    )


def spectral_sweep(rng: random.Random) -> list:
    return [
        _sum_rule(rng, (3,), 10),
        _sum_rule(rng, (3,), 10),
        _sum_rule(rng, (3,), 8),
        _angular(rng, 3, 8),
        _sum_rule(rng, (2,), 20),
        _angular(rng, 2, 12),
        _sum_rule(rng, (2, 3), 5),
    ]


_SPINS = ("1/2", "-1/2", "3/2", "-3/2")


def _distinct_labels(rng: random.Random, n: int) -> list:
    labels = []
    while len(labels) < n:
        label = ("".join(rng.choices(string.ascii_lowercase, k=3)), rng.choice(_SPINS))
        if label not in labels:
            labels.append(label)
    return labels


def _slater(rng, tag: str, labels: list) -> Case:
    text = ",".join(f"{o}:{s}" for o, s in labels)
    return Case(
        f"slater {tag}",
        "slater",
        ("slater", f"--labels={text}", _seed_flag(rng)),
        {"n": len(labels), "distinct": len(set(labels)) == len(labels)},
    )


def _derive(rng, ordering: str, spin_a: str, spin_b: str, tag: str) -> Case:
    return Case(
        f"exchange-derive {tag}",
        "exchange-derive",
        (
            "exchange-derive",
            f"--ordering={ordering}",
            f"--spin-a={spin_a}",
            f"--spin-b={spin_b}",
            _seed_flag(rng),
        ),
        {"spins": (spin_a, spin_b)},
    )


def exact_exchange(rng: random.Random) -> list:
    repeated = _distinct_labels(rng, 5)
    repeated.insert(rng.randrange(6), rng.choice(repeated))
    half_odd = ("1/2", "3/2", "5/2")
    cases = [
        _slater(rng, "n=6 distinct", _distinct_labels(rng, 6)),
        _slater(rng, "n=6 distinct", _distinct_labels(rng, 6)),
        _slater(rng, "n=5 distinct", _distinct_labels(rng, 5)),
        _slater(rng, "n=6 one repeated", repeated),
    ]
    for ordering in ("phi2_greater", "phi1_greater", "tie"):
        spins = (rng.choice(half_odd), rng.choice(half_odd))
        cases.append(_derive(rng, ordering, *spins, ordering))
    # The integer-spin case has correct exit code 0; the CLI exits 1 on it
    # (README.md, "Known defect"), so it counts as a failed run.
    ordering = rng.choice(("phi2_greater", "phi1_greater", "tie"))
    cases.append(_derive(rng, ordering, "1", "1", "integer spins"))
    for n in (4, 2):
        cases.append(
            Case(f"antiphase n={n}", "antiphase", ("antiphase", f"--n={n}", _seed_flag(rng)), {"n": n})
        )
    cases.append(Case("dichotomy", "dichotomy", ("dichotomy", _seed_flag(rng))))
    winding = rng.choice(("1/2", "-1/2"))
    cases.append(
        Case(
            "sz points=4096",
            "sz",
            ("sz", f"--winding={winding}", "--points=4096", _seed_flag(rng)),
            {"winding": winding},
        )
    )
    return cases


def _phases(rng, n_max: int, ensemble: int) -> Case:
    return Case(
        f"phases n_max={n_max} ensemble={ensemble}",
        "phases",
        ("phases", f"--n-max={n_max}", f"--ensemble={ensemble}", _seed_flag(rng)),
        {"n_max": n_max, "ensemble": ensemble},
    )


def _field_sample(rng, n_max: int, points: int) -> Case:
    return Case(
        f"field-sample n_max={n_max} points={points}",
        "field-sample",
        ("field-sample", f"--n-max={n_max}", f"--points={points}", _seed_flag(rng)),
        {"n_max": n_max, "points": points},
    )


def _mode_observables(rng, grid: int, n_bound: int) -> Case:
    n = (0, 0, 0)
    while n == (0, 0, 0):
        n = tuple(rng.randint(-n_bound, n_bound) for _ in range(3))
    gamma = rng.choice((1, -1))
    return Case(
        f"mode-observables grid={grid}",
        "mode-observables",
        (
            "mode-observables",
            f"--grid={grid}",
            "--n=" + ",".join(str(c) for c in n),
            f"--gamma={gamma}",
            _seed_flag(rng),
        ),
        {"n": n},
    )


def mode_fields(rng: random.Random) -> list:
    # field-sample n_max=3 is weighted 2 so that p50 lies inside its block;
    # at weight 1 it sits on the boundary with the cheaper phases n_max=2.
    return [
        _phases(rng, 1, 20000),
        _phases(rng, 1, 20000),
        _phases(rng, 2, 2000),
        _field_sample(rng, 2, 256),
        _field_sample(rng, 3, 128),
        _field_sample(rng, 3, 128),
        _mode_observables(rng, 32, 8),
        _mode_observables(rng, 64, 16),
        Case(
            "totals n_max=4",
            "totals",
            ("totals", "--n-max=4", _seed_flag(rng)),
            {"n_max": 4},
        ),
    ]


WORKLOADS = {
    "spectral-sweep": spectral_sweep,
    "exact-exchange": exact_exchange,
    "mode-fields": mode_fields,
}


def build_mix(workload: str, seed: int) -> list:
    """The cases of one pass of `workload`, with inputs drawn from `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

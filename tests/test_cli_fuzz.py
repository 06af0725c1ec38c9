"""Seeded mutation fuzz of the CLI's text inputs.

Builder expressions, graph6 strings, adjacency text, partitions and
precisions are mutated a few characters at a time and sent to main in one
process. Every call must return 0, 2 or 4, or stop in the parser's
SystemExit(2); any other exception is a defect of the input handling.
"""

import random

import pytest

from lapspec import complete, from_graph6, star, to_graph6
from lapspec.graphs import from_adjacency_text
from lapspec.cli import EXIT_BAD_PARTITION, EXIT_OK, EXIT_USAGE, main, parse_builder

SEEDS = {
    "builder": [
        "star 6", "path 4", "cycle 5", "K 4", "K1", "P4", "C5", "biclique 2 4",
        "firefly 2 3 0", "join(K 2, union(K1 x 7))", "union(K 2, K 2, K1)",
        "product(K 2, star 4)", "g1 pendants=1,1 cycles=3",
        "g2 path-orders=3,3,5 hub-edge pendants-u=1 cycles-v=3",
    ],
    "g6": ["D?{", "Esa?", "E?~o", to_graph6(complete(7)), to_graph6(star(8))],
    "file": ["4\n0 1\n1 2\n2 3\n", "5\n0 1\n0 2\n0 3\n0 4\n1 2\n", "D?{\nEsa?\n"],
    "partition": ["0 | 1 2 3 4 5", "0 | *", "0 1 | 2 3 4 5", "0 | 1 | *"],
    "precision": ["1/1000000", "1/3", "5/7", "2", "0.5"],
}

# Characters inserted or substituted. No digits outside precisions: a
# number changes only by a digit replacing a digit or by a deletion that
# joins two, so mutated graphs stay small.
NOISE = {
    "builder": " (),=-xKPCgstu",
    "g6": "".join(map(chr, range(63, 127))) + " \n",
    "file": " \n-x,",
    "partition": " |*,-x",
    "precision": "/.-+ 0123456789",
}

COMMANDS = [
    ["spectrum"],
    ["spectrum", "--kind", "Q"],
    ["classify"],
    ["refine", "--partition", "0 | *"],
    ["quotient", "--partition", "0 | *"],
]

MAX_ORDER = 14


def _mutate(rng, text, noise):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        if not chars:
            chars.append(rng.choice(noise))
            continue
        i = rng.randrange(len(chars))
        op = rng.randrange(4)
        if op == 0:
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(noise))
        elif op == 2:
            chars[i] = rng.choice("0123456789" if chars[i].isdigit() else noise)
        elif i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def _order(kind, text):
    """Vertex count of a graph input, or 0 when it does not parse."""
    try:
        if kind == "builder":
            return parse_builder(text).n
        if kind == "g6":
            return from_graph6(text).n
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if lines and lines[0].isdigit():
            return from_adjacency_text(text).n
        return max(from_graph6(ln).n for ln in lines)
    except Exception:
        return 0


def _cases(rng, tmp_path, count):
    for i in range(count):
        kind = rng.choice(sorted(SEEDS))
        text = _mutate(rng, rng.choice(SEEDS[kind]), NOISE[kind])
        if kind == "partition":
            yield [rng.choice(("quotient", "refine")), "--builder", rng.choice(("star 6", "P4")),
                   "--partition", text]
        elif kind == "precision":
            yield ["spectrum", "--g6", "E?~o", "--precision", text]
        elif _order(kind, text) > MAX_ORDER:
            continue
        elif kind == "file":
            path = tmp_path / f"input-{i}.txt"
            path.write_text(text, encoding="utf-8")
            yield rng.choice(COMMANDS[:3]) + ["--file", str(path)]
        else:
            yield rng.choice(COMMANDS) + [f"--{kind}", text]


def test_mutated_inputs_end_in_a_result_or_a_usage_error(capsys, tmp_path):
    rng = random.Random(4)
    count = 3000
    ran = 0
    for argv in _cases(rng, tmp_path, count):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_USAGE, argv
        except Exception as exc:  # any other exception is the defect
            pytest.fail(f"{argv!r} raised {exc!r}")
        else:
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_BAD_PARTITION), argv
        capsys.readouterr()
        ran += 1
    # inputs above MAX_ORDER vertices are skipped to keep the run short
    assert ran > 0.9 * count

"""The command-line parser, against an argparse oracle built from the same
command table.

Seeded valid argv, drawn from the table (values given as `--opt value` or
`--opt=value`, options repeated, the --stats flag),
must give the handler and the option values that argparse gives. Each
class of usage error ends in SystemExit(2) with one usage line and one
`lapspec: error:` line on stderr; -h lists every command, and
`<command> -h` every option of the command, with exit 0.
"""

import argparse
import random

import pytest

from lapspec.cli import CHOICES, COMMANDS, FLAGS, INT_OPTIONS, REQUIRED, main, parse_args


def _flag(dest):
    return "--" + dest.replace("_", "-")


def oracle() -> argparse.ArgumentParser:
    """argparse's reading of the table, with prefixes switched off."""
    parser = argparse.ArgumentParser(prog="lapspec", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for dest, (default, what) in options.items():
            if dest in FLAGS:
                p.add_argument(_flag(dest), dest=dest, action="store_true", help=what)
                continue
            p.add_argument(
                _flag(dest),
                dest=dest,
                default=default,
                type=int if dest in INT_OPTIONS else str,
                choices=CHOICES.get(dest),
                required=dest in REQUIRED,
                help=what,
            )
    return parser


# values argparse also takes as the next token: none starts with "-" but
# the negative numbers
INTS = ["0", "7", "-3", "500", "+12", " 9 "]
TEXTS = ["star 6", "D?{", "0 | 1 | *", "2..10", "4.4", "all", "g1 pendants=1,1", "1/1000", "out.jsonl"]


def _valid_argv(rng):
    name = rng.choice(list(COMMANDS))
    options = COMMANDS[name][2]
    argv = [name]
    chosen = [dest for dest in options if dest in REQUIRED or rng.random() < 0.5]
    chosen += rng.choices(list(options), k=rng.randrange(3))  # repeats: the last one wins
    rng.shuffle(chosen)
    for dest in chosen:
        flag = _flag(dest)
        if dest in FLAGS:
            argv.append(flag)
            continue
        pool = CHOICES.get(dest) or (INTS if dest in INT_OPTIONS else TEXTS)
        value = rng.choice(pool)
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return argv


def test_valid_argv_parse_as_the_argparse_oracle_parses_them():
    parser = oracle()
    rng = random.Random(36)
    seen = set()
    for _ in range(600):
        argv = _valid_argv(rng)
        want = vars(parser.parse_args(argv))
        handler, args = parse_args(list(argv))
        assert handler is COMMANDS[want.pop("command")][0], argv
        assert vars(args) == want, argv
        seen.update(token.partition("=")[0] for token in argv if token.startswith("--"))
    # every option was drawn
    assert seen == {_flag(dest) for _, _, options in COMMANDS.values() for dest in options}


def test_a_value_is_the_next_token_whatever_it_starts_with():
    _, args = parse_args(["spectrum", "--g6", "-h", "--precision", "--out"])
    assert (args.g6, args.precision, args.out) == ("-h", "--out", None)
    _, args = parse_args(["families", "--case=4.4", "--s", "--t=2..3", "--t=1"])
    assert (args.case, args.s, args.t, args.grid_cap) == ("4.4", "--t=2..3", "1", 20)


USAGE_ERRORS = [
    ([], "no command"),
    (["bogus"], "unknown command"),
    (["spectrum", "--bogus", "1"], "unknown option"),
    (["families", "--case", "4.4", "--grid", "40"], "option prefix"),
    (["spectrum", "--builder", "star 6", "--kind"], "missing value"),
    (["enumerate", "--family", "G1", "--n", "x"], "bad int"),
    (["spectrum", "--builder", "star 6", "--kind", "X"], "bad choice"),
    (["quotient", "--builder", "star 6"], "missing required option"),
    (["classify", "--builder", "star 6", "extra"], "stray positional"),
    (["verify-theorem", "--stats=1"], "value for a flag"),
    (["verify-theorem", "--max-n", "12"], "removed --max-n alias"),
]


@pytest.mark.parametrize("argv, what", USAGE_ERRORS, ids=[what for _, what in USAGE_ERRORS])
def test_each_usage_error_exits_2_with_a_usage_and_an_error_line(capsys, argv, what):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: lapspec ")
    assert error.startswith("lapspec: error: ")
    # argparse rejects the same argv
    with pytest.raises(SystemExit) as exc:
        oracle().parse_args(list(argv))
    assert exc.value.code == 2
    capsys.readouterr()


def test_help_lists_every_command_and_every_option(capsys):
    for argv in (["-h"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"  {name} " in out for name in COMMANDS)
    for name, (_, text, options) in COMMANDS.items():
        for argv in ([name, "-h"], [name, "--out", "x", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert text in out
            assert all(_flag(dest) in out for dest in options)
            assert "--max-n" not in out

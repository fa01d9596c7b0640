"""The README names only command lines and flags that the CLI has."""

import argparse
import os
import re
import shlex

from qmachine.cli import build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_lines():
    with open(README, encoding="utf-8") as fh:
        return list(enumerate(fh, start=1))


def option_strings(parser):
    """Every option string of every subcommand."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for p in sub.choices.values() for opt in p._option_string_actions}


def test_every_command_line_parses():
    parser = build_parser()
    bad = []
    for number, line in readme_lines():
        if not line.startswith("qmachine "):
            continue
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            bad.append((number, line.strip()))
    assert bad == []


def test_every_backticked_flag_is_an_option():
    known = option_strings(build_parser())
    flags = [
        (number, token.split()[0])
        for number, line in readme_lines()
        for token in re.findall(r"`(--[^`]*)`", line)
    ]
    assert flags, "the README names no flag"
    assert [(number, flag) for number, flag in flags if flag not in known] == []

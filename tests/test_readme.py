"""The README names only command lines and flags that the CLI has, repo
paths that exist and package names that resolve, and its Quick start runs."""

import argparse
import glob
import importlib
import os
import re
import shlex

import qmachine
from qmachine.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
MODULES = {
    os.path.basename(path)[:-3] for path in glob.glob(os.path.join(ROOT, "src", "qmachine", "*.py"))
}


def read_readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def readme_lines():
    return list(enumerate(read_readme().splitlines(keepends=True), start=1))


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


def quick_start():
    """The Python block of the README's Quick start section."""
    section = read_readme().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_its_comments_hold():
    code = quick_start()
    scope = {}
    exec(compile(code, "README.md Quick start", "exec"), scope)
    # a line ``expression  # value`` shows what the expression evaluates to
    shown = re.findall(r"^(\S.*?)\s+# ([-\d.e]+)$", code, re.M)
    assert shown, "the Quick start shows no value"
    assert [(expr, repr(eval(expr, scope))) for expr, _ in shown] == shown


# a path under a top-level directory of the repo, or a benchmark record
REPO_PATH = re.compile(r"(?<![\w/.-])((?:src|tests|demos|bench)/[\w./-]*|BENCH_\d+\.json)")
# ``owner.attr``, the owner optionally written ``qmachine.owner``
DOTTED = re.compile(r"(?<![\w.])(?:qmachine\.)?([A-Za-z_]\w*)\.([A-Za-z_]\w*)")


def stale_paths(text: str) -> list[str]:
    """The repo paths ``text`` names that do not exist."""
    named = {path.rstrip(".") for path in REPO_PATH.findall(text)}
    return sorted(path for path in named if not os.path.exists(os.path.join(ROOT, path)))


def stale_names(text: str) -> list[str]:
    """The backticked ``owner.attr`` names of ``text`` that do not resolve,
    where ``owner`` is a module of the package or a name it exports; file
    names such as ``epr.py`` are not names."""
    stale = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for owner, attr in DOTTED.findall(span):
            if attr in ("py", "json"):
                continue
            if owner == "qmachine":
                found = attr in MODULES or hasattr(qmachine, attr)
            elif owner in MODULES:
                found = hasattr(importlib.import_module(f"qmachine.{owner}"), attr)
            elif hasattr(qmachine, owner):
                found = hasattr(getattr(qmachine, owner), attr)
            else:
                continue  # not a name of the package
            if not found:
                stale.append(f"{owner}.{attr}")
    return sorted(stale)


def test_every_named_path_exists():
    assert stale_paths(read_readme()) == []


def test_every_backticked_package_name_resolves():
    assert stale_names(read_readme()) == []


def test_check_sees_stale_paths_and_names():
    text = (
        "`sampler._coins` and `sampler._philox(seed, key).random_raw`,\n"
        "`RandomStream.words_at` and `RandomStream.words`, `qmachine.cli`,\n"
        "`epr.py` and `records.o1.sum()`; see `src/qmachine/gone.py`,\n"
        "tests/test_readme.py, `BENCH_1.json`, `BENCH_<pr>.json`, `demos/<name>.py`\n"
        "and tests/data/golden/.\n"
    )
    assert stale_names(text) == ["RandomStream.words_at", "sampler._coins"]
    assert stale_paths(text) == ["BENCH_1.json", "src/qmachine/gone.py"]

"""Every name `guessbound` exports has a reader outside the tests."""

import pathlib
import re

import guessbound

ROOT = pathlib.Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "guessbound" / "__init__.py"

# exported ahead of their first caller, each named by the ROADMAP item that adds it
AWAITING_CALLER = {
    "ExplicitFamily": "item 7, the advantage scenario's bit family",
    "classical_state_family": "item 7, the advantage witness",
    "predicate_to_function_bound": "item 4, the transfer term T",
}


def test_every_export_is_read_outside_the_tests():
    lines = [
        line
        for folder in ("src", "demos", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != INIT
        for line in path.read_text().splitlines()
    ]
    unread = []
    for name in guessbound.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class) {re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unread.append(name)
    assert sorted(unread) == sorted(AWAITING_CALLER)

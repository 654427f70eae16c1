"""The verdict of tools/identity.py on declared identity breaks."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

CASES = ["game-10x10-T2", "saddle-10x10-T2", "maxflow-small"]
CHANGED = {"saddle-10x10-T2": ["saddle-10x10-T2: trace.csv differs"]}


def test_no_difference_and_no_declaration_passes():
    assert identity.verdict(CASES, {name: [] for name in CASES}, []) == []


def test_a_declared_difference_passes():
    assert identity.verdict(CASES, CHANGED, ["saddle-10x10-T2"]) == []


def test_an_undeclared_difference_fails():
    assert identity.verdict(CASES, CHANGED, []) == ["saddle-10x10-T2: trace.csv differs"]


def test_a_declared_case_that_did_not_change_fails():
    failures = identity.verdict(CASES, CHANGED, ["saddle-10x10-T2", "game-10x10-T2"])
    assert failures == ["game-10x10-T2: declared as a break, but its outputs and exit status did not change"]


def test_a_declared_name_that_is_no_case_fails():
    failures = identity.verdict(CASES, CHANGED, ["saddle-10x10-T2", "saddle-10x10-T3"])
    assert failures == ["saddle-10x10-T3: declared as a break, but no case has this name"]


def test_breaks_file_names_one_case_a_line_with_comments():
    text = "# outputs that change on purpose\n\ngame-10x10-T2  # a new column\n  maxflow-small\n#saddle-10x10-T2\n"
    assert identity.read_breaks(text) == ["game-10x10-T2", "maxflow-small"]
    assert identity.read_breaks("") == []


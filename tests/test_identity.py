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


def test_a_summary_difference_names_its_keys():
    before = b"kind=game\nfitted_slope=-1.0\ncert_failures=0\nstatus=0\n"
    after = b"kind=game\nfitted_slope=-1.0000000000000002\ncert_failures=1\nstatus=0\n"
    assert identity.describe("summary.txt", before, after) == "summary.txt differs: fitted_slope, cert_failures"
    assert identity.describe("summary.txt", before, before + b"mixing=true\n") == "summary.txt differs: mixing"
    reordered = b"kind=game\ncert_failures=0\nfitted_slope=-1.0\nstatus=0\n"
    assert identity.describe("summary.txt", before, reordered) == "summary.txt differs: key order"


def test_a_csv_difference_names_its_first_line():
    before = b"t,gap\n1,0.5\n2,0.25\n3,0.125\n"
    assert identity.describe("trace.csv", before, b"t,gap\n1,0.5\n2,0.2\n3,0.1\n") == "trace.csv differs from line 3"
    assert identity.describe("trace.csv", before, before + b"4,0.0625\n") == "trace.csv differs from line 5"
    assert identity.describe("flows.csv", before, before.rstrip(b"\n")) == "flows.csv differs from line 4"
    assert identity.describe("flows.csv", None, before) == "flows.csv written by the change only"
    assert identity.describe("flows.csv", before, None) == "flows.csv written by the parent only"

"""CI's scenario matrix and ``scenarios/`` must name the same set.

A scenario module CI never runs, or a matrix entry with no module,
would silently drop an end-to-end check.  The workflow is read as
plain text: the tier-1 lanes install no YAML parser.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_matrix_lists_every_scenario_module():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    [listed] = re.findall(r"^\s*scenario:\s*\[(.*)\]\s*$", text,
                          flags=re.MULTILINE)
    matrix = [name.strip() for name in listed.split(",")]
    modules = {path.stem.removeprefix("test_")
               for path in (ROOT / "scenarios").glob("test_*.py")}
    assert len(matrix) == len(set(matrix)), matrix
    assert set(matrix) == modules

"""README and CI name only scripts that exist, and no retired option."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = ["README.md", ".github/workflows/ci.yml"]

pytestmark = pytest.mark.fast


@pytest.mark.parametrize("doc", DOCS)
def test_mentioned_scripts_exist(doc):
    text = (ROOT / doc).read_text()
    mentioned = set(re.findall(r"\b(?:scripts|benchmarks)/\w+\.py\b", text))
    assert mentioned, f"{doc} names no script at all"
    missing = sorted(p for p in mentioned if not (ROOT / p).is_file())
    assert not missing, f"{doc} names missing files: {missing}"


# The second name is split so the retired option greps to nothing here too.
@pytest.mark.parametrize("doc", DOCS)
@pytest.mark.parametrize("option", ["--baseline", "--regression" "-threshold"])
def test_retired_options_stay_out(doc, option):
    assert option not in (ROOT / doc).read_text()

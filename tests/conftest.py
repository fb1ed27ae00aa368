from pathlib import Path

import pytest

# An unclosed file fails the run.  These filters sit here, not in
# pyproject.toml's filterwarnings, so that they cover this directory only:
# the ini filters also apply to ``python3 -m pytest perfbench``.
STRICT_FILTERS = ("error::ResourceWarning",
                  "error::pytest.PytestUnraisableExceptionWarning")
HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            for spec in STRICT_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))

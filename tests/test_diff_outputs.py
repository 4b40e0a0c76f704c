"""The CSV change report of tools/diff_outputs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"
_SPEC = importlib.util.spec_from_file_location("_diff_outputs", _PATH)
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)

PARENT = b"label,n_eff,k\nS1,1.4,2\nS2,1.5,-3e6\n"


@pytest.mark.parametrize("this, change", [
    pytest.param(b"label,n_eff,k\nS1,1.4,2\nS2,1.5,-3.0000003e6\n",
                 "largest relative difference 1e-07 over numeric cells", id="one-value"),
    pytest.param(b"label,n_eff,k\nS1,1.4,2\nS3,1.5,-3e6\n",
                 "largest relative difference 0 over numeric cells", id="text-only"),
    pytest.param(b"label,n_eff,k\nS1,nan,2\nS2,1.5,-3e6\n",
                 "largest relative difference inf over numeric cells", id="nan"),
    pytest.param(b"label,n_eff,k\nS1,1.4,2\n", "rows or columns differ", id="row-missing"),
])
def test_csv_change_reports_the_largest_relative_difference(this, change):
    assert diff_outputs._csv_change(PARENT, this) == change

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # documentation that names a deleted or renamed API fails here
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README 'Library use' has no fenced python block"
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block.group(1), str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.final_state.t == pytest.approx(result.times[-1], rel=1e-12)
    assert result.delta.shape == (201, 10)
    assert out.getvalue().strip()

"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(block, "README.md (library quickstart)", "exec"), names)
    trace = names["result"].uncertainty_trace
    assert all(a >= b for a, b in zip(trace, trace[1:]))
    assert capsys.readouterr().out.endswith(f"{names['answer'].result_ids}\n")

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    # the README's Python example must run as written, so a renamed or
    # removed function it names fails here
    text = README.read_text()
    block = re.search(r"## Library use\n+```python\n(.*?)```", text, re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    assert (ns["rep"].result.n, ns["rep"].result.edge_count) == (59, 141)
    assert (ns["sweep"].status, ns["sweep"].embeddings_checked) == ("pass", 4)

import json
import re
import shlex
from pathlib import Path

from linturan.cli import main

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


def _frontier_rows():
    text = README.read_text()
    table = text[text.index("The exact frontier:"):].split("\n\n")[1]
    rows = []
    for line in table.splitlines()[2:]:
        _, command, value, nodes, proof = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((command.strip("`"), int(value), int(nodes.replace(" ", "")), proof))
    return rows


def test_frontier_table_is_what_the_search_gives(capsys):
    # every row of the README's exact-frontier table, run through the
    # CLI: exact, with the value, node count and method the table gives
    rows = _frontier_rows()
    assert len(rows) == 25
    for command, value, nodes, proof in rows:
        argv = shlex.split(command)
        assert argv[:2] == ["linturan", "turan"], command
        assert main(argv[1:] + ["--report-format", "structured"]) == 0, command
        got = json.loads(capsys.readouterr().out)
        assert (got["status"], got["value"], got["nodes"], got["proof"]) == (
            "exact", value, nodes, proof), command

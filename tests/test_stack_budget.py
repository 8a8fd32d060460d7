"""tools/stack_budget.py prints each stack budget's campaign times and traced peak."""

import importlib.util
from pathlib import Path

from duality_lab import random as lab_random

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stack_budget.py"
_spec = importlib.util.spec_from_file_location("stack_budget", TOOL)
stack_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stack_budget)


def test_one_line_per_budget_of_positive_figures(monkeypatch, capsys):
    monkeypatch.setattr(stack_budget, "TRIALS", 20)
    # the tool assigns the budget; monkeypatch restores the default afterwards
    monkeypatch.setattr(lab_random, "STACK_BYTES", lab_random.STACK_BYTES)
    assert stack_budget.main(["1"]) == 0
    header, *rows = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["budget_kib", "ms_n2", "ms_n3", "ms_n4", "ms_n5", "ms_n6", "peak_mb_n6"]
    assert [row[0] for row in rows] == ["256", "512", "1024", "2048"]
    assert all(float(figure) > 0 for row in rows for figure in row[1:])

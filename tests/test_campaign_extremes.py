"""tools/campaign_extremes.py prints each golden campaign's aggregate extremes."""

import importlib.util
from pathlib import Path

from duality_lab.duality import run_campaign
from test_golden import CAMPAIGNS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "campaign_extremes.py"
_spec = importlib.util.spec_from_file_location("campaign_extremes", TOOL)
campaign_extremes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(campaign_extremes)

FIGURES = ("max_duality_sum", "min_coherence_bound_margin", "min_psd_margin", "min_slack")


def test_extremes_are_the_aggregates_of_the_golden_campaigns(capsys):
    assert campaign_extremes.main(["20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == list(campaign_extremes.COLUMNS)
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert list(rows) == list(CAMPAIGNS)
    # the golden seeds are 100 + n; a margin that does not apply is "-"
    for case, scenario, n in (("campaign_mixed_mixed_n3", "mixed_mixed", 3), ("campaign_pure_pure_n2", "pure_pure", 2)):
        aggregate = run_campaign(scenario, 20, 100 + n, n=n).aggregate()
        figures = [f"{aggregate[key]:.3e}" if key in aggregate else "-" for key in FIGURES]
        assert rows[case] == ["20", str(aggregate["violations"]), *figures]
    assert rows["campaign_pure_pure_n2"][3] == "-" and rows["campaign_mixed_mixed_n3"][3] != "-"

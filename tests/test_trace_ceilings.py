"""``tests/trace_ceilings.py`` on synthetic traced outputs: counts at
their ceilings pass, and a count one above its ceiling is named alone."""

import json

import pytest

from trace_ceilings import CEILINGS, over_ceilings


def _traced_output(tmp_path, workload, counts):
    """A file shaped like ``bench/run.py --trace 1`` output: the metrics
    JSON on its last line, after the lines before it."""
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    path = tmp_path / ("%s.out" % workload)
    path.write_text("an earlier line\n" + json.dumps({"metrics": metrics}) + "\n")
    return str(path)


@pytest.mark.parametrize("workload", sorted(CEILINGS))
def test_counts_at_their_ceilings_pass(tmp_path, workload):
    assert over_ceilings(workload, _traced_output(tmp_path, workload, CEILINGS[workload])) == {}


# exact_lie's matalg.matmul.calls row is 987, one above the 986 products
# of a traced pass
@pytest.mark.parametrize("workload, metric, value", [
    (workload, metric, ceiling + 1)
    for workload in sorted(CEILINGS) for metric, ceiling in sorted(CEILINGS[workload].items())])
def test_a_count_above_its_ceiling_is_named(tmp_path, workload, metric, value):
    counts = dict(CEILINGS[workload], **{metric: value})
    assert over_ceilings(workload, _traced_output(tmp_path, workload, counts)) == {metric: value}

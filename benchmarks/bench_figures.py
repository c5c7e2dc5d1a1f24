"""Every paper figure, regenerated and checked against its shape claims.

One case per ``REGISTRY`` figure: ``reproduce`` at the suite's scale and
seeds, the rendered table recorded under ``benchmarks/results/``, then a
failure listing the text of every claim in the module's ``CLAIMS`` that
does not hold on the rows.
"""

import pytest

from repro.experiments.figures import REGISTRY
from repro.experiments.figures.common import failed_claims


@pytest.mark.parametrize("figure_id", list(REGISTRY))
def test_figure_claims(benchmark, bench_seeds, bench_scale, record_table, figure_id):
    figure = REGISTRY[figure_id]
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table(figure_id, figure.render(rows))
    failed = failed_claims(figure.CLAIMS, rows)
    assert not failed, f"{figure_id}: claims that do not hold:\n- " + "\n- ".join(failed)

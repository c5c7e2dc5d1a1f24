"""One module per figure/table of the paper's evaluation.

``REGISTRY`` maps experiment ids (as used in DESIGN.md/EXPERIMENTS.md)
to their modules.  Every module exposes ``run(...) -> list[dict]`` (the
sweep, every workload knob explicit), ``reproduce(scale=1.0, seeds=None,
jobs=1, store=None) -> list[dict]`` (the figure's one scale rule applied
to ``run``) and ``render(rows) -> str`` (its one title and column list).
The CLI, ``repro campaign resume`` and the benchmark suite all go
through ``reproduce`` and ``render``.
"""

from repro.experiments.figures import (
    fig3_prototype,
    fig4_grid_size,
    fig5_round_params,
    fig6_metadata_amount,
    fig7_sequential_consumers,
    fig8_simultaneous_consumers,
    fig9_10_mobility_pdd,
    fig11_item_size,
    fig12_mobility_pdr,
    fig13_14_redundancy,
    fig15_sequential_pdr,
    fig16_simultaneous_pdr,
    leaky_bucket_params,
    retransmission_params,
    saturation,
)

REGISTRY = {
    "fig3": fig3_prototype,
    "lbparams": leaky_bucket_params,
    "retrparams": retransmission_params,
    "saturation": saturation,
    "fig4": fig4_grid_size,
    "fig5": fig5_round_params,
    "fig6": fig6_metadata_amount,
    "fig7": fig7_sequential_consumers,
    "fig8": fig8_simultaneous_consumers,
    "fig9_10": fig9_10_mobility_pdd,
    "fig11": fig11_item_size,
    "fig12": fig12_mobility_pdr,
    "fig13_14": fig13_14_redundancy,
    "fig15": fig15_sequential_pdr,
    "fig16": fig16_simultaneous_pdr,
}

__all__ = ["REGISTRY"]

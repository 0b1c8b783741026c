"""Benchmark + regeneration of every paper table and figure.

One test per registered experiment
(:data:`repro.experiments.registry.PAPER_EXPERIMENTS`, paper order):
it runs the experiment's whole sweep, saves the rendered report, and
checks the paper's qualitative shape.  Table 2 and Figures 10, 11 and
18 run at the quarter-scale topology, the heavier Figure 12–14 sweeps
at the eighth-scale one.
"""

import pytest

from repro.experiments.registry import PAPER_EXPERIMENTS


def check_table2(report):
    assert len(report.rows) == 8
    # The paper's qualitative claim: miss rates degrade with depth for
    # most applications.
    assert report.summary["apps_with_deeper_degradation"] >= 5


def check_figure10(report):
    s = report.summary
    # Paper shape: inter reduces misses at every level; intra's effect on
    # the shared levels is far smaller than inter's.
    assert s["inter_L1"] < 1.0
    assert s["inter_L2"] < 1.0
    assert s["inter_L3"] < 1.0
    assert s["inter_L2"] < s["intra_L2"]
    assert s["inter_L3"] < s["intra_L3"]


def check_figure11(report):
    s = report.summary
    # Paper: inter -26.3% io / -18.9% exec; intra -6.8% / -3.5%.
    assert s["inter_io_latency_improvement"] > 0.10
    assert s["inter_execution_time_improvement"] > 0.08
    assert s["inter_io_latency_improvement"] > s["intra_io_latency_improvement"]
    # I/O gains exceed end-to-end gains (compute dilutes them).
    assert s["inter_io_latency_improvement"] >= s["inter_execution_time_improvement"]


def check_figure12(report):
    assert len(report.rows) == len(PAPER_EXPERIMENTS["figure12"].TOPOLOGIES)
    # Paper's w/x trend for the scheduled scheme: deeper client fan-in
    # (16,4,4) at least matches the default (16,8,4).
    s = report.summary
    assert s["inter+sched_io_16_4_4"] <= s["inter+sched_io_16_8_4"] + 0.02


def check_figure13(report):
    s = report.summary
    # Paper shape (scheduled scheme): halving capacities boosts savings,
    # growing them shrinks savings.
    assert s["inter+sched_io_0.5_0.5_0.5"] <= s["inter+sched_io_1_1_1"] + 0.02
    assert s["inter+sched_io_1_1_1"] <= s["inter+sched_io_4_4_4"] + 0.02


def check_figure14(report):
    s = report.summary
    # Paper: smaller chunks improve savings monotonically...
    assert s["io_16"] < s["io_64"] < s["io_128"]
    # ...at the price of compilation (mapping) time.
    assert s["mapping_s_16"] > s["mapping_s_64"]


def check_figure18(report):
    s = report.summary
    # Paper: scheduling cuts L1 misses (27.8% avg) and lifts io/exec gains.
    assert s["sched_L1_misses"] < 0.95
    assert s["sched_io"] < 1.0
    assert s["sched_io"] <= s["unsched_io"] + 0.03


#: Per experiment: the config fixture it runs at and its paper-shape check.
SHAPES = {
    "table2": ("bench_config", check_table2),
    "figure10": ("bench_config", check_figure10),
    "figure11": ("bench_config", check_figure11),
    "figure12": ("small_config", check_figure12),
    "figure13": ("small_config", check_figure13),
    "figure14": ("small_config", check_figure14),
    "figure18": ("bench_config", check_figure18),
}


def test_every_experiment_has_a_shape_check():
    assert list(SHAPES) == list(PAPER_EXPERIMENTS)


@pytest.mark.parametrize("name", list(PAPER_EXPERIMENTS))
def test_experiment(name, benchmark, request, report_sink):
    fixture, check = SHAPES[name]
    config = request.getfixturevalue(fixture)
    report = benchmark.pedantic(
        PAPER_EXPERIMENTS[name].run, args=(config,), rounds=1, iterations=1
    )
    report_sink(report)
    check(report)

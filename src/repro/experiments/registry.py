"""The paper's table/figure experiments in paper order: ``repro <name>``,
``repro all``, :func:`repro.exec.plan.plan_all` and the experiments
benchmark all read :data:`PAPER_EXPERIMENTS`.

Each module declares ``sweep(config)`` — its ``(SystemConfig, versions)``
points, applying its own default base config — and ``run(config)``,
which runs that sweep as one plan and renders the report.  The registry
stays out of ``repro.experiments.__init__`` so that importing
:mod:`repro.experiments.config` loads no figure module.
"""

from repro.experiments import figure10, figure11, figure12, figure13, figure14
from repro.experiments import figure18, table2

__all__ = ["PAPER_EXPERIMENTS"]

PAPER_EXPERIMENTS = {
    m.__name__.rsplit(".", 1)[1]: m
    for m in (table2, figure10, figure11, figure12, figure13, figure14, figure18)
}

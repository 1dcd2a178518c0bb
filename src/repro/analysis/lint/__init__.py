"""Semantic IR sanitizer: rule-based lint over IR, schedules, and the
loop-buffer assignment.

Usage::

    from repro.analysis.lint import lint_compiled, lint_module, Severity

    diags = lint_compiled(compiled)           # all phases
    errors = [d for d in diags if d.severity is Severity.ERROR]

or from the shell (sweeps the bench corpus through both pipelines)::

    python -m repro.analysis.lint --json -

See DESIGN.md for the rule catalog.  Checked mode
(``compile_*(..., checked=True)``, or ``--checked`` on the runner, lint
and figure CLIs) runs these rules after every pass and attributes the
first violation to the offending pass.
"""

from . import (  # noqa: F401  (register rules)
    rules_buffer,
    rules_ir,
    rules_pred,
    rules_sched,
)
from .diagnostics import Diagnostic, Severity, errors_only, max_severity
from .engine import (
    PHASES,
    LintTarget,
    Rule,
    all_rules,
    get_rule,
    lint_compiled,
    lint_module,
    rule,
    run_rules,
)

__all__ = [
    "Diagnostic",
    "LintTarget",
    "PHASES",
    "Rule",
    "Severity",
    "all_rules",
    "errors_only",
    "get_rule",
    "lint_compiled",
    "lint_module",
    "max_severity",
    "rule",
    "run_rules",
]

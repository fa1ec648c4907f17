"""fairlab: augmented transition systems for a CCS fragment, and liveness
checking under progress, justness and fairness assumptions."""

from .lts import (AugmentedLTS, GoalSpec, Task, TaskSet, from_exploration,
                  goal_states, load_lts, named_goal, save_lts,
                  validate_side_conditions)
from .parser import parse_ccs, parse_expression
from .paths import (Assumption, Lasso, PathPrefix, classify_finite,
                    classify_lasso, parse_assumption)
from .semantics import explore, step
from .syntax import check_fragment, print_expr, project, well_named
from .tasks import extract_tasks, load_custom_tasks, with_progress_task
from .verify import (Bounds, Verdict, agef, fair_extend, hierarchy_check,
                     liveness, loopfree_witness, simulate)

__version__ = "0.1.0"

__all__ = [
    "AugmentedLTS", "Assumption", "Bounds", "GoalSpec", "Lasso", "PathPrefix",
    "Task", "TaskSet", "Verdict", "agef", "check_fragment", "classify_finite",
    "classify_lasso", "explore", "extract_tasks", "fair_extend",
    "from_exploration", "goal_states", "hierarchy_check", "liveness",
    "load_custom_tasks", "load_lts", "loopfree_witness", "named_goal",
    "parse_assumption", "parse_ccs", "parse_expression", "print_expr",
    "project", "save_lts", "simulate", "step", "validate_side_conditions",
    "well_named", "with_progress_task",
]

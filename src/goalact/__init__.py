"""Globally re-planned, skill-dispatching agent runtime with a benchmark harness.

The library keeps a global plan that is revised before every executed action,
dispatches each step through a registry of high-level skills (searching,
coding in a bounded sandbox, writing, finish), and measures methods against a
seeded synthetic world of relational tables with keyword-based success
scoring.
"""

from .backends import (
    CassetteRecorder,
    CassetteReplayBackend,
    CompletionRequest,
    HttpChatBackend,
    Rule,
    ScriptedBackend,
    request_hash,
)
from .environment import Table, ToolCall, ToolEnvironment
from .evaluation import (
    SuiteReport,
    TaskScore,
    aggregate,
    compare_methods,
    path_coverage,
    success_rate,
)
from .generator import (
    Task,
    generate_aggregation_task,
    generate_khop_task,
    generate_task,
    generate_writing_task,
)
from .oracle import build_oracle_rules, oracle_backend
from .orchestrator import (
    METHODS,
    RunConfig,
    run_task,
    summarize,
)
from .plan import (
    GlobalPlan,
    History,
    PlanStep,
    SkillAction,
    Trajectory,
    first_pending,
    history_of,
    validate_plan,
)
from .planner import (
    build_planning_prompt,
    parse_plan_response,
    update_global_plan,
)
from .sandbox import SandboxLimits, SandboxResult, eval_script
from .skills import (
    SkillContext,
    SkillDescriptor,
    SkillRegistry,
    default_registry,
    dispatch,
    exec_searching,
    exec_writing,
    register_skill,
)
from .suite import run_suite

__version__ = "0.1.0"

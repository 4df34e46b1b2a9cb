"""Exception types shared across the package.

A fault has its own type only where some handler catches it by name; the
message says which check failed.  Everything else raises `GoalActError` (a
run that cannot finish) or `FatalError` (a configuration fault).  A fault
inside a skill never leaves `skills.dispatch`: it becomes an observation the
next planning round can react to.
"""


class GoalActError(Exception):
    """Base class for every error raised by this package."""


class FatalError(GoalActError):
    """A configuration fault that makes the run impossible."""


class PlanError(GoalActError):
    """A planner completion does not parse, or its plan breaks an invariant."""


class PlanningFailed(GoalActError):
    """The planner could not produce a valid plan within its retry budget."""


class BackendError(GoalActError):
    """Base class for completion-backend failures."""


class BackendUnavailable(BackendError):
    """Transient failures exhausted the retry budget."""


class AuthFailure(BackendError):
    """The endpoint rejected the credentials; never retried."""


class RuleMiss(BackendError):
    """A scripted backend received a prompt no rule matches."""


class CassetteMiss(BackendError):
    """Replay mode received a request absent from the cassette."""


class ToolError(GoalActError):
    """A tool call names an unknown tool or field, or matches no row."""

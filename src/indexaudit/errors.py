"""Exception hierarchy and warning categories.

Every failure the library raises on purpose derives from :class:`AuditError`,
and each class carries the process exit code the CLI maps it to. Exit codes:
0 success, 1 configuration error, 2 data error, 3 verification failure,
4 a worker process died.
"""

from __future__ import annotations


class AuditError(Exception):
    """Base class for all structured errors raised by this package."""

    exit_code = 2
    code = "error"


class ConfigError(AuditError):
    """Bad invocation: unusable flags, missing files, invalid parameters."""

    exit_code = 1
    code = "config_error"


class ValidationError(AuditError):
    """Input data violates a documented schema or domain constraint."""

    exit_code = 2
    code = "data_error"


class DimensionMismatchError(ValidationError):
    """Paired inputs disagree on the number of groups or periods."""

    code = "dimension_mismatch"


class DegenerateVarianceError(AuditError):
    """A test statistic's variance is numerically zero; no test possible."""

    exit_code = 2
    code = "degenerate_variance"


class UndefinedSlopeError(AuditError):
    """The reference index series is constant, so no slope can be fit."""

    exit_code = 2
    code = "undefined_slope"


class VerificationFailure(AuditError):
    """The Monte Carlo verification suite found a failing check."""

    exit_code = 3
    code = "verification_failure"


class WorkerFailure(AuditError):
    """A worker process died or failed before its part of the work finished:
    a verification suite worker (killed, out of memory), or a process that
    reads or writes part of a micro file. No result is lost silently."""

    exit_code = 4
    code = "worker_failure"


class AuditWarning(UserWarning):
    """Non-fatal conditions worth surfacing in reports (e.g. dropped rows)."""

"""Exception types for numeric-domain failures.

Validation problems (bad dimensions, out-of-range parameters) raise plain
``ValueError``; the classes here mark points where an evaluation left the
numerically safe domain and carry a short machine-readable ``code`` used by
the CLI.
"""


class KernelDomainError(Exception):
    """Base class for numeric-domain failures during kernel evaluation."""

    code = "domain"


class BranchCutProximity(KernelDomainError):
    """Principal power requested too close to the branch cut."""

    code = "branch_cut"


class NearSingular(KernelDomainError):
    """Kernel denominator within the singularity guard."""

    code = "near_singular"


class ConvergenceDomain(KernelDomainError):
    """Series evaluation requested outside the configured radius cap."""

    code = "convergence_domain"

"""biham3: bi-Hamiltonian and Nambu structure toolkit for 3D chaotic flows.

Symbolic expression engine, 3D vector calculus, Poisson/Nambu bracket
algebra with Jacobi's last multiplier, a catalog of chaotic systems with
their verified structures, deterministic ODE integration with invariant
drift tracking, and linear-ansatz discovery of first integrals.
"""

from .expr import (
    DomainError,
    EqualNumericResult,
    Expr,
    ExprError,
    NonIntegerExponentError,
    ParseError,
    UnboundSymbolError,
    UnknownFunctionError,
    compile_fn,
    differentiate,
    equal_numeric,
    evaluate,
    expand,
    parse,
    simplify,
    substitute,
    to_text,
)
from .vecfield import (
    FrameError,
    ScalarField,
    VectorField3,
    cross,
    curl,
    divergence,
    dot,
    fd_gradient,
    gradient,
    triple,
)
from .poisson import (
    NambuStructure,
    PoissonVector,
    casimir_residual,
    compatibility_residual,
    fundamental_identity_residual,
    hamiltonian_field,
    jacobi_residual,
    multiplier_residual,
    nambu_bracket,
    pencil,
    poisson_bracket,
)
from .catalog import (
    BUILTIN_NAMES,
    ChangeOfVariables,
    ConstraintError,
    ParamSpec,
    SystemDef,
    get_system,
    instantiate,
    list_systems,
    load_system,
    save_system,
    transform_check,
)
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    convergence_order,
    ensemble,
    integrate,
)
from .verify import (
    CheckResult,
    SampleConfig,
    VerificationReport,
    compare_printed,
    determine_orientation,
    flipped_sign_variant,
    verify_fundamental_identity,
    verify_structure,
)
from .discover import (
    AnsatzBasis,
    Candidate,
    DiscoveryError,
    DiscoveryResult,
    annotate,
    build_basis,
    first_integral_search,
    multiplier_search,
    spatial_invariant_search,
)
from .sampling import SeededSampler

__version__ = "0.1.0"

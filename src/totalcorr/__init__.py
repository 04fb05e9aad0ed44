"""Total-correlation entanglement measures for multipartite qudit states."""

from .core import (
    DensityMatrix,
    RegisterShape,
    ResourceLimitError,
    SupportError,
    ValidationReport,
    partial_trace,
    validate_density,
)
from .measures import (
    MeasureReport,
    bound_M,
    bound_S,
    direct_measure,
    measure_M,
    measure_MW,
    measure_O,
    measure_S,
    measure_S_form2,
    measure_report,
    mutual_information,
    relative_entropy,
    ssa_check,
    von_neumann_entropy,
)
from .roof import (
    RoofConfig,
    RoofResult,
    eof_two_qubit,
    roof_additivity_gap,
    roof_minimize,
)
from .states import (
    Ensemble,
    PureState,
    cluster,
    dm,
    epr,
    family1,
    family2,
    flagged_mixture,
    ghz,
    load_state,
    mix,
    product,
    random_density,
    random_pure,
    save_state,
    w,
    wbar,
)

__version__ = "0.1.0"

"""State-independent entanglement detection from correlation measurements.

The package implements the sum-of-squares correlation criterion (a state is
entangled once the squared full correlations it exhibits sum past 1), an
adaptive decision-tree measurement strategy over Pauli correlations, and a
Schmidt-basis calibration protocol with local filtering, together with
exact oracles (PPT test, SVD Schmidt decomposition, full-tensor scan) for
validation on up to four qubits.
"""

__version__ = "0.1.0"

from .config import MAX_QUBITS, TOL, Tolerances
from .correlations import (
    CorrelationRecord,
    CorrelationTensor,
    CriterionState,
    DetectionResult,
    all_full_indices,
    bloch_vector,
    correlation,
    criterion_add,
    format_index,
    full_tensor,
    is_full,
    parse_index,
    propagated_error,
)
from .errors import (
    DegenerateDenominator,
    DegenerateDirection,
    DimensionMismatch,
    DomainError,
    DuplicateIndex,
    EntDetectError,
    NonFullCorrelation,
    NotHermitian,
    ParseError,
    UnsupportedDimension,
    ZeroProjection,
    ZeroSuccess,
)
from .linalg import (
    AXES,
    PAULI_LABELS,
    PAULIS,
    mat_equal,
    pauli_operator,
    tensor_product_all,
)
from .oracles import EntanglementVerdict, brute_force_criterion, ppt_verdict
from .schmidt import (
    bloch_to_basis,
    relative_phase,
    run_protocol,
    schmidt_frame,
    schmidt_oracle,
)
from .sources import MeasurementSource, measure_bloch
from .states import (
    DensityMatrix,
    FilterOp,
    LocalFrame,
    PureState,
    apply_filter,
    apply_frame,
    bell_phi_plus,
    haar_unitary,
    ket,
    load_state,
    make_colored,
    make_dicke,
    make_g,
    make_w,
    make_werner,
    project_first_qubit,
    purity,
    random_frame,
    random_mixed,
    random_pure,
    save_state,
    singlet,
    state_from_dict,
    state_to_dict,
)
from .tree import (
    DecisionTree,
    TreeNode,
    anticommute,
    default_tree_2q,
    generate_tree,
    iter_paths,
    load_tree,
    priority_order,
    run_tree,
    run_with_bloch_start,
    save_tree,
    starting_index_from_bloch,
    tree_from_dict,
    tree_to_dict,
    validate_tree,
)

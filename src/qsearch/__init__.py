"""Compiler, resource estimator, and exact simulator for bit-field table
search by amplitude amplification over a unary-indexed data loader."""

from .circuit import (
    Circuit,
    Gate,
    GateKind,
    Register,
    ResourceTally,
    gate,
    resource_tally,
)
from .database import (
    Database,
    FieldSpec,
    Record,
    SearchQuery,
    load_database,
    load_database_file,
    pad_to_power_of_two,
)
from .decompose import (
    decompose_toffoli,
    lower_circuit,
    shared_control_layer,
    sync_touch,
)
from .grover import (
    SearchResult,
    SearchStatus,
    build_diffusion,
    build_kernel_circuits,
    build_target_reflection,
    optimal_iterations,
    run_search,
)
from .qdam import (
    NaiveLayout,
    QdamLayout,
    build_m1,
    build_m2,
    build_naive_qdam,
    stage2_parts,
)
from .resources import (
    BenchRow,
    ReportMode,
    ResourceReport,
    bench_csv,
    bench_scaling,
    estimate_bounds,
    measure,
    measure_kernel,
    measure_naive,
)
from .sim import SparseState

__version__ = "0.1.0"

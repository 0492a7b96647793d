"""Memory-assisted MDI-QKD: spin-cavity Bell-state node simulator and rates."""

from .bsm import (
    ChannelConfig,
    SequenceConfig,
    run_memory_cycles,
)
from .cavity import (
    CavityParams,
    EfficiencyBudget,
    cooperativity,
    total_heralding_efficiency,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    default_config,
    list_presets,
    load_config,
    load_preset,
    parse_config,
    serialize_config,
)
from .qubits import (
    NoiseParams,
    herald_tables,
    measure_x,
    prepare_superposition,
    reflect_and_herald,
    spin_photon_fidelity,
)
from .rates import (
    QBER_INDIVIDUAL_LIMIT,
    KeyRateReport,
    TruncatedBeta,
    binary_entropy,
    build_report,
    plob_bound,
    rate_direct_bound,
    secret_fraction,
    sifted_enhancement,
)
from .session import (
    CoincidenceTally,
    EmptyCellError,
    PartyConfig,
    SessionReport,
    TimingOverheads,
    chsh_statistic,
    coincidence_cell_probabilities,
    simulate_session,
    truth_table_rows,
)

__version__ = "0.1.0"

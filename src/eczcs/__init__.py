"""Enhanced cross Z-complementary sequence-set toolkit.

Exact correlation engines and classifiers for complementary sequence
families with front- and tail-end zero-correlation zones, two
constructions (code-set doubling and chained Boolean functions), sparse
training-matrix design for generalized spatial modulation, and a
least-squares channel-estimation simulator.
"""

__version__ = "0.9.0"

from .construct import (
    SeedLibraryEntry,
    SeedVerificationError,
    catalog_entry,
    golay_pair,
    seed_catalog,
    theorem2_construct,
)
from .correlation import (
    CorrelationProfile,
    accf,
    cross_channel_table,
    pccf,
    profile_accf,
    profile_cross_channel,
    profile_pccf,
    profile_set_corr,
    set_corr_table,
)
from .cyclotomic import CycloInt, cyclotomic_poly
from .gbf import (
    GBF,
    PartitionSpec,
    build_theorem3_f,
    lemma2_ccc,
    optimal_theorem3_params,
    theorem3_construct,
    theorem3_zcz_width,
)
from .sequences import (
    Family,
    PhaseSequence,
    SequenceSet,
    family_from_json,
    family_from_lists,
    family_to_json,
    format_family_text,
    format_sequence,
    load_family,
    load_fixture_family,
    parse_family_text,
    parse_sequence,
)
from .simulate import (
    MSEPoint,
    MSEReport,
    RankDeficientTraining,
    SimConfig,
    analytic_mse,
    baseline_random_binary,
    baseline_zadoff_chu,
    ls_estimate,
    monte_carlo_mse,
    mse_floor,
    noise_variance,
    sample_channel,
    zadoff_chu,
)
from .training import (
    ActivationTable,
    GSMConfig,
    TrainingMatrix,
    activation_table,
    build_ls_model_matrix,
    build_training_matrix,
    check_design_criterion,
    design_width,
    map_bits_to_gsm_block,
    training_matrix_meta,
    training_matrix_to_csv,
    training_pccf,
)
from .verify import (
    Verdict,
    Violation,
    check_ccc,
    check_eczcs,
    check_kind,
    check_mocs,
    check_szccs,
    check_zccs,
    check_zcz_set,
    eczcs_bound,
    flatten_to_zcz,
    is_optimal,
    measure_zcz_width,
)

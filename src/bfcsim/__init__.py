"""bfcsim: biphoton frequency comb simulation and analysis.

Models the two-photon state produced by cavity-filtered downconversion
and reproduces its measurable signatures: Hong-Ou-Mandel revival
interferograms, joint spectral correlation matrices, Schmidt-mode
spectra in the time-bin and frequency-bin bases, CHSH Bell statistics,
and the resulting Hilbert-space dimensionality report.
"""

from .comb import (
    CAVITY_PRESETS,
    DEFAULT_SOURCE,
    CavitySpec,
    CombSpectrum,
    SourceSpec,
    build_comb,
    cavity_preset,
    default_n_max,
)
from .hom import (
    HomTrace,
    central_dip_width,
    dip_visibility_closed_form,
    locate_revivals,
    simulate_hom_trace,
    visibility_to_decay_parameter,
)
from .jsi import (
    FilterSpec,
    Jsi,
    crosstalk_db,
    filter_bandwidth_hz,
    scan_correlation_matrix,
)
from .schmidt import (
    dimensionality_report,
    ideal_frequency_spectrum,
    jsa_from_jsi,
    schmidt_decompose,
    schmidt_number,
    time_bin_eigenvalues,
    time_bin_spectrum_from_visibilities,
    window_limited_n_max,
)
from .chsh import (
    DEFAULT_ANGLES_DEG,
    s_chsh,
    s_fringe_from_visibility,
    simulate_chsh_counts,
    simulate_fringe_scan,
    violation_sigmas,
)
from .config import TOOL_VERSION as __version__, ConfigError, RunConfig, load_config, preset_config
from .report import run_report

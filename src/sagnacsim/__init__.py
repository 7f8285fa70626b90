"""Transverse spatial mode sorting in out-of-plane Sagnac interferometers.

Modules:

- :mod:`sagnacsim.modes` -- HG/LG mode functions, expansions, grids,
  overlap decomposition, parity and rotation operators.
- :mod:`sagnacsim.geometry` -- helicity-vector loops, spherical-area
  rotation angles, and the isosceles Sagnac path construction.
- :mod:`sagnacsim.interferometer` -- two-port Sagnac transfer, parity
  sorting, cascaded OAM sorting trees, polarization devices.
- :mod:`sagnacsim.quantum` -- post-selected biphoton states, fiber
  filtering, compressors, heralding, entanglement diagnostics.
- :mod:`sagnacsim.formats` -- deterministic text/PGM/PPM serialization.
- :mod:`sagnacsim.cli` -- command-line front end.
"""

__version__ = "0.1.0"

from .modes import (
    BeamGeometry,
    GridField,
    GridSpec,
    HGIndex,
    LGIndex,
    ModeExpansion,
    decompose_grid,
    lg_to_hg,
    parity_2d,
    rotate_exact,
    sample_lg,
    sample_mode,
)
from .geometry import (
    HelicitySequence,
    MirrorPath,
    build_sagnac_path,
    euler_area,
    helicity_from_path,
    omega_from_theta,
    psi_from_omega,
    theta_for_psi,
)
from .interferometer import (
    CascadeNode,
    JonesVector,
    PortPair,
    SagnacStage,
    cascade_build,
    cascade_route,
    faraday_isolator,
    mz_1d_sort,
    phase_device,
    port_powers,
    sagnac_transfer,
)
from .quantum import (
    BiphotonExpansion,
    CompressorSpec,
    compressor_apply,
    fiber_filter_biphoton,
    herald,
    load_biphoton_table,
    pbs_split_bell,
    schmidt_coefficients,
    sort_biphoton,
    spdc_hg00,
    spdc_hg45,
)

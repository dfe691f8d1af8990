"""Lieb-Robinson-type bounds and signaling times for strongly long-range lattices."""

__version__ = "0.1.0"  # the one version: pyproject.toml reads it from here

from .analysis import FitResult, fit_model
from .bounds import (
    BoundPrefactor,
    BoundValue,
    HopSchedule,
    UNIT_PREFACTOR,
    analytic_bound,
    exact_sum_bound,
    exact_sum_bound_alpha0_closed_form,
    free_particle_bound,
    free_particle_envelope,
    many_site_bound,
)
from .dynamics import (
    ProtocolResult,
    Segment,
    SingleParticleHamiltonian,
    commutator_amplitude,
    evolve,
    ising_exact_oracle,
    schedule_from_hamiltonian,
    state_transfer_protocol,
    trajectory,
)
from .kernels import (
    FourierSpectrum,
    HopParameters,
    ReproducibilityReport,
    fourier_spectrum,
    lambda_upper_bound,
    reproducibility_check,
    row_sums,
    self_hop_lambda,
    series_oracle,
    site_hop_strength,
    surface_area_constant,
)
from .lattice import (
    CouplingModel,
    LatticeSpec,
    chain,
    coupling,
    coupling_matrix,
    coupling_row,
    distance,
    distances_from,
    ring,
)
from .signaling import (
    NoCrossingError,
    SignalingTime,
    exact_sum_signaling_time,
    ising_signal,
    ising_signaling_time,
    many_site_signaling_time,
    signaling_contour,
    signaling_time_analytic,
)

# The public names are the classes, functions and constants the imports above bind: every
# object defined in a module of this package. The submodules those imports bind are left out.
__all__ = ["__version__", *sorted(n for n, v in globals().items() if getattr(v, "__module__", "").startswith("lr_horizon."))]

"""fltrans: simultaneous Fourier-Laplace double transforms.

A numerical toolkit for the matched pairs relating a space-time function
P(r, t) f(A(r, t)) of a radius and a time to its combined radial-Fourier
and Laplace image psi(k, s) fhat(phi(k, s)), together with the machinery
to verify every pair numerically and the closed-form solution of the
2-D isotropic radiative transfer problem built from them.

Modules
-------
numerics
    Bessel functions and the quadrature engines.
radial_fourier
    d-dimensional isotropic Fourier transforms.
laplace
    Forward Laplace quadrature and fixed-Talbot inversion.
pairs
    The transform-pair registry and the catalog of test originals.
verify
    Mixed-domain verification harness (one numeric hop per side).
rte2d
    Radiative transfer solution, energy conservation, resolvent checks.
cli
    Command-line front end (``fltrans``).
"""

from .numerics import (
    DomainError,
    IntegralResult,
    QuadratureSpec,
    bessel_j,
    bessel_j_zero,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)
from .radial_fourier import (
    Dimension,
    QuadratureError,
    RadialProfile,
    forward,
    inverse,
    kernel_ghat,
    sphere_measure,
)
from .laplace import (
    LaplaceError,
    TimeOriginal,
    forward_laplace,
    inverse_laplace,
    roundtrip_check,
    sqrt_s2k2,
)
from .pairs import (
    PAIR_IDS,
    ConstraintError,
    EdgeError,
    PairDescriptor,
    TestOriginal,
    UnknownPairError,
    ValidityError,
    catalog_list,
    catalog_lookup,
    eval_fl,
    eval_spacetime,
    lookup,
)
from .verify import (
    VerificationReport,
    verify_all,
    verify_base_pair,
    verify_pair_mixed,
)
from .rte2d import (
    IntensityValue,
    TransportParams,
    check_energy,
    fl_greens_avg,
    fl_intensity,
    intensity,
    verify_rte_mixed,
)

__version__ = "0.1.0"

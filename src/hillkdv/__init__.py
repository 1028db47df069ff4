"""Spectral toolkit for Hill operators -d^2/dx^2 + q with rough periodic
potentials: weighted Fourier sequence spaces, Galerkin reference spectra,
a Lyapunov-Schmidt gap reduction, Birkhoff-coordinate flow surrogates, and a
pseudospectral KdV solver used as an isospectrality oracle.

Conventions used throughout:
  * 1-periodic functions are viewed as 2-periodic; basis e_k(x) = exp(i pi k x)
    on [0, 2] with inner product <f, g> = (1/2) int_0^2 f conj(g) dx.
  * -d^2/dx^2 e_k = (k pi)^2 e_k, so the free spectrum sits at n^2 pi^2.
  * Potentials have zero mean and vanishing odd-index coefficients.
  * bracket(n) = 1 + |n|.
"""

from .sequences import FourierSeq, SparseSeq, Weight, norm, tail, hilbert_sum
from .operator import Potential, dirichlet_cos_coeffs
from .galerkin import SpectrumResult, periodic_spectrum, dirichlet_spectrum, \
    riesz_projector, verify_decay
from .reduction import ReductionContext, ReductionResult, estimate_c_s, \
    make_context, coefficients, find_roots, alpha_fixed_point, \
    adapted_coefficients, gap_sandwich, find_roots_batch
from .birkhoff import BirkhoffState, actions_from_gaps, frequencies, \
    linearized_birkhoff, flow
from .pde import PDEState, evolve_kdv, evolve_airy, conserved, \
    isospectral_check, potential_to_pde_state, pde_state_to_potential

__version__ = "0.1.0"

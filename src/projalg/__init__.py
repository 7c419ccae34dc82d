"""Projective group algebras over finite groups and integer lattices.

The package builds the twisted group algebra x(a) x(b) = e^{i alpha(a,b)} x(ab)
for finite groups, (Z_n)^D, and the lattice Z^D, together with:

* cocycle validation, gauge transforms, and normalization;
* regular representations, the conjugation matrix, and the involution;
* the algebraic integration functional (identity-coefficient extraction)
  with completeness, inversion, and scalar products;
* Fourier analysis in formal, matrix, and character pictures, deformed
  convolution, Plancherel, and the star product on character transforms;
* derivations and phase automorphisms on abelian carriers;
* the clock-shift matrix realization of (Z_n)^2 with trace/integral
  equivalence checks.
"""

from .algebra import (AlgebraElement, RegularRepPair, apply_L, apply_R,
                      conjugation_matrix, generator, involution, multiply,
                      regular_reps)
from .cocycles import (BilinearCocycle, Cocycle, GaugedCocycle, GaugePhase,
                       TabulatedCocycle, check_identities, coboundary,
                       cocycle_condition_residual, commutator_pairing,
                       gauge_transform, is_trivial_abelian, normalize,
                       validate_cocycle, zero_cocycle)
from .errors import (BackingMismatchError, ContextMismatchError,
                     CrossCheckError, GroupConstructionError,
                     NormalizationRequiredError,
                     RepresentationInconsistencyError,
                     UnsupportedOperationError)
from .groups import (CyclicPowerGroup, FiniteTableGroup, Group, LatticeGroup,
                     make_cyclic_power, make_finite_from_table, make_lattice,
                     symmetric_group)
from .harmonic import (CharacterRepresentation, FormalRepresentation,
                       MatrixRepresentation, character_inverse,
                       character_transform, convolution, deformed_convolution,
                       fourier, invert_vector_finite, matrix_rep_inverse,
                       moyal_star, plancherel_check, plancherel_values,
                       regular_matrix_rep)
from .integration import (GroupFunction, as_algebra_element, ati_integral,
                          completeness_check, invert, scalar_product)
from .phases import circle_distance, reduce_phase
from .report import CheckResult, VerificationReport, dumps_canonical

__version__ = "0.1.0"

# Loaded on first access (PEP 562): no command runs calculus, few run clockshift.
_LAZY = {name: module for module, names in {
    "calculus": "Automorphism CoordinateDerivation Derivation SigmaDerivation apply_automorphism"
                " check_leibniz derive integral_of_derivation measure_invariance_check",
    "clockshift": "clock_shift_matrices consistency_check element_matrices matrix_representation"
                  " measure_cocycle_from_matrices measured_cocycle realize trace_integral",
}.items() for name in (module, *names.split())}

__all__ = sorted(name for name in [*dir(), *_LAZY] if not name.startswith("_"))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_LAZY[name]}")
    globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return globals()[name]  # cached: later lookups skip this function


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})

"""Pseudo-spectral simulator and verification harness for partially
dissipative hyperbolic model systems with quadratic and bilinear
pseudoproduct sources."""

__version__ = "0.1.0"     # before the imports: experiments reads it

from .grid import SpectralGrid
from .spectra import (ModelMatrices, LinearSymbolCache,
                      three_component_model, two_component_model,
                      check_sk, build_symbol_cache, green_function)
from .symbols import (BilinearSymbol, wave_phase, dissipative_phase,
                      make_nonresonant_symbol, mu0_symbol, symbol_preset)
from .pseudoproduct import PseudoproductPlan, apply, apply_direct
from .evolution import (ModelSpec, Coefficients, StateField, Stepper,
                        BlowupGuard, rhs, wave_profile)
from .norms import (NormSpec, BootstrapReport, evaluate_norm,
                    m0_functional, fit_decay, fit_exponential_rate,
                    initial_energy, lambda_power, riesz, fractional_ratio,
                    holder_bound_ratio)
from .experiments import ExperimentConfig, make_initial_data, run

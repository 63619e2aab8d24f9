"""Finite-model verification toolkit for singular integral operators on
non-homogeneous metric measure spaces."""

from .space import MetricMeasureSpace, check_ahlfors_regularity, \
    check_growth_condition, dilate, load_space, save_space, \
    verify_quasi_metric
from .lattice import DyadicLattice, build_lattice, classify_all_good_bad, \
    classify_good_bad, classify_terminal_transit, estimate_bad_probability, \
    scale_gap, skeleton, verify_lattice_properties
from .projections import MartingaleDecomposition, decompose, \
    expected_bad_norm, properties_check, split_good_bad
from .kernels import KernelSpec, bergman_kernel, check_T1, \
    check_d_domination, check_size_and_smoothness, \
    constant_kernel, explicit_kernel, load_kernel, operator_norm, \
    operator_norm_dense, power_kernel, zero_kernel
from .certify import CertificateReport, alpha_param, \
    carleson_embedding_check, certify, diagonal_bound, paraproduct_apply, \
    pseudo_bmo_check, split_bilinear, whitney_decomposition
from .examples import generate_example
from .harness import Scenario, calibrate_S, make_scenario, run

__version__ = "0.1.0"

"""Exact intervals of order-detected slopes on cable spaces."""

from .cable import (CableParams, DetectionMode, bezout, cable_detected_set,
                    cable_genus_bound, inner_basis_map, outer_basis_map,
                    ray_union, torus_knot_detected)
from .exact import (INF, Arc, ExtRational, IntMobius, SlopeSet,
                    mobius_set_image, parse_slope_set)
from .intervals import (InsufficientData, RelativeIntervalResult,
                        cable_interval, relative_interval,
                        special_slope_interval)
from .jn import JNResult, JNWitness, decide, witness_search
from .oracle import ScanReport, exhaustive_witness_check, grid_scan_interval
from .seifert import normalize, reduce_integral

__version__ = "0.1.0"

__all__ = [
    "Arc", "CableParams", "DetectionMode", "ExtRational", "INF",
    "InsufficientData", "IntMobius", "JNResult", "JNWitness",
    "RelativeIntervalResult", "ScanReport", "SlopeSet",
    "bezout", "cable_detected_set", "cable_genus_bound", "cable_interval",
    "decide", "exhaustive_witness_check", "grid_scan_interval",
    "inner_basis_map", "mobius_set_image", "normalize", "outer_basis_map",
    "parse_slope_set", "ray_union", "reduce_integral", "relative_interval",
    "special_slope_interval", "torus_knot_detected", "witness_search",
]

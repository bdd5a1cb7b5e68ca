"""Synthetic power side-channel substrate (model, devices, scope, capture)."""

from .acquisition import (
    Acquisition,
    ProgramCapture,
    default_neighbor_pool,
    make_devices,
    random_instance,
)
from .config import DEFAULT_GEOMETRY, PowerModelConfig, TraceGeometry
from .dataset import TraceSet
from .device import DeviceProfile, ProgramShift, SessionShift
from .faults import FaultContext, FaultInjector, TraceFault, default_faults
from .model import PowerModel
from .quality import (
    QualityConfig,
    RetryPolicy,
    ScreeningStats,
    TraceScreener,
)
from .scope import Oscilloscope

__all__ = [
    "Acquisition",
    "DEFAULT_GEOMETRY",
    "DeviceProfile",
    "FaultContext",
    "FaultInjector",
    "Oscilloscope",
    "PowerModel",
    "PowerModelConfig",
    "ProgramCapture",
    "ProgramShift",
    "QualityConfig",
    "RetryPolicy",
    "ScreeningStats",
    "SessionShift",
    "TraceFault",
    "TraceGeometry",
    "TraceScreener",
    "TraceSet",
    "default_faults",
    "default_neighbor_pool",
    "make_devices",
    "random_instance",
]

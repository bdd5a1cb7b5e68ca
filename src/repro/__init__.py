"""Power-based side-channel instruction-level disassembler.

A full reproduction of Park, Xu, Jin, Forte and Tehranipoor,
"Power-based Side-Channel Instruction-level Disassembler" (DAC 2018),
including every substrate the paper depends on:

* :mod:`repro.isa` -- AVR (ATmega328P-class) instruction set model:
  spec table, encoder/decoder, assembler, static disassembler, Table 2
  grouping;
* :mod:`repro.sim` -- functional AVR core simulator with a 2-stage
  pipeline event stream;
* :mod:`repro.power` -- microarchitectural power model, device/program/
  session variation, oscilloscope model and the acquisition framework;
* :mod:`repro.dsp` -- batched continuous wavelet transform;
* :mod:`repro.features` -- KL-divergence DNVP feature selection and PCA;
* :mod:`repro.ml` -- LDA/QDA/SVM/naive-Bayes/kNN/HMM, all from scratch;
* :mod:`repro.core` -- the paper's contribution: the three-level
  hierarchical disassembler, majority voting, covariate shift adaptation
  and malware detection;
* :mod:`repro.baselines` -- prior-work comparators (Msgna PCA+kNN,
  Eisenbarth HMM, flat classification);
* :mod:`repro.experiments` -- runners regenerating every table and figure.

Quick start::

    from repro import Acquisition, FeatureConfig, QDA, SideChannelDisassembler

    acq = Acquisition(seed=42)
    traces = acq.capture_instruction_set(["ADD", "EOR", "LDS"], 200, 10)
    dis = SideChannelDisassembler(FeatureConfig(kl_threshold="auto:0.9"))
    model = dis.fit_instruction_level(1, traces)
    print(model.predict_keys(traces.traces[:5]))
"""

from .core import (
    DifferentialDetector,
    DisassembledInstruction,
    GoldenReference,
    MalwareDetector,
    PairwiseVotingClassifier,
    ShiftReport,
    SideChannelDisassembler,
)
from .features import FeatureConfig, FeaturePipeline
from .isa import REGISTRY, assemble, disassemble
from .ml import LDA, QDA, SVC, GaussianNB
from .power import (
    Acquisition,
    DeviceProfile,
    PowerModel,
    PowerModelConfig,
    SessionShift,
    TraceSet,
    make_devices,
)
from .sim import AvrCpu

__version__ = "1.0.0"

__all__ = [
    "Acquisition",
    "AvrCpu",
    "DeviceProfile",
    "DifferentialDetector",
    "DisassembledInstruction",
    "FeatureConfig",
    "FeaturePipeline",
    "GaussianNB",
    "GoldenReference",
    "LDA",
    "MalwareDetector",
    "PairwiseVotingClassifier",
    "PowerModel",
    "PowerModelConfig",
    "QDA",
    "REGISTRY",
    "SVC",
    "SessionShift",
    "ShiftReport",
    "SideChannelDisassembler",
    "TraceSet",
    "__version__",
    "assemble",
    "disassemble",
    "make_devices",
]

"""Test oracles: slow, obviously-correct twins of the fast paths in ``src/``.

Every stage of the pipeline has exactly one implementation in the
package.  The straightforward formulation each fast path was derived
from lives here instead — plain float64 loops, one term at a time — so
the parity tests can hold the fast path to it without shipping a second
code path behind a knob.

An oracle of a method takes the production object as its first argument,
mirroring the method it checks, so it can also be swapped in with ``monkeypatch``
(e.g. ``monkeypatch.setattr(DnvpSelector, "fit", dnvp_fit)``).

=======================  ==================================================
Oracle                   Fast path it checks
=======================  ==================================================
``cwt_transform``        ``repro.dsp.cwt.CWT.transform``
``point_operator``       ``repro.dsp.cwt.CWT.point_operator``
``decode_one``           ``repro.isa.disasm.decode_one``
``encode``               ``repro.isa.assembler.Instruction.encode``
``cpu_step``,            ``repro.sim.cpu.AvrCpu.step``, ``AvrCpu.run``
``cpu_run``              (per-core decode memo)
``add8``, ``sub8``,      ``repro.sim.cpu._add8``, ``_sub8``,
``logic_flags``          ``_logic_flags`` (one packed SREG write)
``set_flags``            ``repro.sim.state.CpuState.set_flags``
``render_events``        ``repro.power.model.PowerModel.render_events``
``max_equal_run``        ``repro.power.quality._max_equal_run``
``within_class_kl``      ``repro.features.kl.within_class_kl``
``wavelet_stats``        ``repro.features.kl.WaveletStats.stream`` (and
                         ``from_images``, ``compute_class_stats``)
``dnvp_fit``             ``repro.features.selection.DnvpSelector.fit``
``dnvp_pair_selections`` ``repro.features.selection.select_all_pairs``
``ovo_fit``              ``repro.ml.ovo.OneVsOneClassifier.fit``
``ovo_vote_matrix``      ``repro.ml.ovo.OneVsOneClassifier.vote_matrix``
``ovo_predict``          ``repro.ml.ovo.OneVsOneClassifier.predict``
``voting_pair_points``   ``repro.core.voting.PairwiseVotingClassifier.fit``
``voting_predict``       ``repro.core.voting.PairwiseVotingClassifier.predict``
``predict_instructions`` ``repro.core.hierarchy.SideChannelDisassembler
                         .predict_instructions``
=======================  ==================================================

``between_class_kl_matrix`` over ``StackedClassStats`` is the stacked
all-pairs evaluation that ``repro.features.kl.between_class_field``
replaced; it holds each per-pair field to the old stack's bits.
"""

from .cwt import cwt_transform, point_operator
from .decode import decode_one
from .encode import encode
from .flags import add8, logic_flags, set_flags, sub8
from .hierarchy import predict_instructions
from .kl import (
    StackedClassStats,
    between_class_kl_matrix,
    dnvp_fit,
    dnvp_pair_selections,
    within_class_kl,
)
from .ovo import ovo_fit, ovo_predict, ovo_vote_matrix
from .quality import max_equal_run
from .render import render_events
from .stats import wavelet_stats
from .step import cpu_run, cpu_step
from .voting import voting_pair_points, voting_predict

__all__ = [
    "StackedClassStats",
    "add8",
    "between_class_kl_matrix",
    "cpu_run",
    "cpu_step",
    "cwt_transform",
    "decode_one",
    "dnvp_fit",
    "dnvp_pair_selections",
    "encode",
    "logic_flags",
    "max_equal_run",
    "ovo_fit",
    "ovo_predict",
    "ovo_vote_matrix",
    "point_operator",
    "predict_instructions",
    "render_events",
    "set_flags",
    "sub8",
    "voting_pair_points",
    "voting_predict",
    "wavelet_stats",
    "within_class_kl",
]

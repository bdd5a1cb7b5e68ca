"""Drawing from a list by index matches ``rng.choice`` draw for draw.

Capture draws neighbours, registers and I/O addresses with
``pool[rng.integers(len(pool))]`` instead of ``rng.choice(pool)``, which
converts the list to an array on every call.  The swap is only sound if
both consume the generator identically: same value, same state after.
"""

import numpy as np
import pytest

from repro.experiments.workloads import GroupSampler
from repro.power.acquisition import (
    RegisterSampler,
    default_neighbor_pool,
    random_instance,
)

POOL_SIZES = (1, 2, 3, 4, 5, 16, 31, 61, 108, 257, 1000)


@pytest.mark.parametrize("kind", [int, str])
def test_index_draw_matches_choice(kind):
    for size in POOL_SIZES:
        pool = [kind(value) for value in range(size)]
        for seed in range(40):
            by_choice = np.random.default_rng(seed)
            by_index = np.random.default_rng(seed)
            for _ in range(8):
                assert by_choice.choice(pool) == pool[
                    by_index.integers(len(pool))
                ]
            # Same generator state afterwards: the next raw draws agree.
            assert by_choice.integers(2**62) == by_index.integers(2**62)
            assert by_choice.random() == by_index.random()


def _choice_random_instance(class_key, rng):
    """The ``rng.choice`` formulation of the register/IO draws."""
    from repro.isa import REGISTRY, OperandKind

    spec = REGISTRY[class_key]
    values, used = [], []
    for operand in spec.operands:
        kind = operand.kind
        if kind is OperandKind.REG:
            value = int(rng.choice([r for r in range(32) if r not in used]))
            used.append(value)
        elif kind is OperandKind.REG_HIGH:
            value = int(
                rng.choice([r for r in range(16, 32) if r not in used])
            )
            used.append(value)
        elif kind is OperandKind.REG_PAIR_HIGH:
            value = int(rng.choice([24, 26, 28, 30]))
        elif kind is OperandKind.IO6:
            value = int(
                rng.choice([a for a in range(64) if a not in (61, 62, 63)])
            )
        elif kind is OperandKind.IMM8:
            value = int(rng.integers(0, 256))
        elif kind is OperandKind.IMM6:
            value = int(rng.integers(0, 64))
        else:
            raise AssertionError(kind)
        values.append(value)
    return tuple(values)


@pytest.mark.parametrize(
    "class_key", ["ADD", "MOV", "CPSE", "LDI", "ANDI", "ADIW", "IN", "OUT"]
)
def test_random_instance_draws_like_choice(class_key):
    for seed in range(200):
        rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
        assert random_instance(class_key, rng_a).values == (
            _choice_random_instance(class_key, rng_b)
        )
        assert rng_a.integers(2**62) == rng_b.integers(2**62)


def test_samplers_draw_like_choice():
    pools = {
        "neighbours": default_neighbor_pool(),
        "registers": ["ADD", "SUB", "EOR", "MOV"],
    }
    for name, pool in pools.items():
        for seed in range(100):
            rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
            key = str(rng_b.choice(list(pool)))
            drawn = GroupSampler(pool)(rng_a, 0)
            assert drawn.spec.key == key, name
            reference = random_instance(key, rng_b)
            assert drawn.values == reference.values
            assert rng_a.integers(2**62) == rng_b.integers(2**62)
    sampler = RegisterSampler(0, 17, ("ADD", "SUB", "LDI"))
    for seed in range(100):
        rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
        key = str(rng_b.choice(["ADD", "SUB", "LDI"]))
        reference = random_instance(key, rng_b, fixed={0: 17})
        drawn = sampler(rng_a, 0)
        assert (drawn.spec.key, drawn.values) == (key, reference.values)
        assert rng_a.integers(2**62) == rng_b.integers(2**62)

"""Pickled and copied values are rebuilt by their constructors: checked,
equal to the original and frozen again (numpy does not keep the writeable
flag of a copied array)."""

import copy
import pickle

import numpy as np
import pytest

from polybergman import (
    KernelConfig,
    build_ball_rule,
    build_radial_rule,
    build_sphere_rule,
    make_rotated_point,
    random_polyharmonic,
)
from polybergman.polyspace import to_json

ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def frozen_arrays(value):
    """The arrays a value holds, by name, each of which must be read-only."""
    names = {
        "RotatedPoint": ("coords",),
        "ZonalBlock": ("pole",),
        "PolyharmonicPolynomial": ("k", "d", "coeff", "poles"),
        "SphereRule": ("nodes", "weights", "half_nodes", "half_weights"),
        "RadialRule": ("nodes", "weights"),
    }[type(value).__name__]
    return {name: getattr(value, name) for name in names}


def values():
    cfg = KernelConfig(n=3, p=2)
    q = random_polyharmonic(cfg, 5, blocks=4, seed=3)
    return [
        make_rotated_point(cfg.sector_phase(1), (0.1, -0.2, 0.3)),
        make_rotated_point(-3.0, (0.0, 0.0, 0.0)),
        q.blocks[0],
        q,
        build_sphere_rule(3, 8),
        build_radial_rule(3, 1.0, 0.5, 5),
    ]


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("index", range(6))
def test_round_trip_keeps_values_and_read_only_arrays(trip, index):
    value = values()[index]
    back = ROUND_TRIPS[trip](value)
    assert type(back) is type(value)
    for name, array in frozen_arrays(back).items():
        want = getattr(value, name)
        assert not array.flags.writeable, name
        assert array.dtype == want.dtype and array.tobytes() == want.tobytes(), name
    # blocks and points compare by identity, so a polynomial's blocks are
    # compared through to_json
    for name in value.__dataclass_fields__:
        if name != "blocks" and not isinstance(getattr(value, name), np.ndarray):
            assert getattr(back, name) == getattr(value, name), name
    if type(value).__name__ == "PolyharmonicPolynomial":
        assert to_json(back) == to_json(value)
        assert all(not b.pole.flags.writeable for b in back.blocks)


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_configuration_round_trip_is_equal_and_shares_its_phases(trip):
    cfg = KernelConfig(n=4, p=3, alpha=1.0, beta=0.5, r_max=0.9)
    back = ROUND_TRIPS[trip](cfg)
    assert back == cfg and hash(back) == hash(cfg)
    assert back.sector_phases() is cfg.sector_phases()
    assert not back.sector_phases().flags.writeable



@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_rules_compare_and_hash_with_their_copies(trip):
    # rules hold arrays, so they compare and hash by identity, as points and
    # blocks do; a ball rule compares its two rules
    ball = build_ball_rule(3, 1.0, 0.5, 8)
    for rule in (ball.sphere, ball.radial):
        back = ROUND_TRIPS[trip](rule)
        assert rule == rule and back != rule and not back == rule
        assert isinstance(hash(back), int) and len({rule, back, rule}) == 2
    back = ROUND_TRIPS[trip](ball)
    assert (back == ball) is (back.sphere is ball.sphere and back.radial is ball.radial)
    assert ball == ball and isinstance(hash(back), int) and hash(ball) == hash(ball)

import numpy as np
import pytest

from fscfb import (
    CausalKernel,
    ContractViolationError,
    DomainError,
    FscError,
    JointLaw,
    ResourceLimitError,
    ShapeError,
    ValidationError,
    binary_entropy,
    causal_product,
    directed_information,
    memoryless_bound_check,
)
from conftest import brute_directed_info, rand_policy

H2_QUARTER = 0.8112781244591328  # -p log2 p - (1-p) log2 (1-p) at p = 1/4
C_Z_QUARTER = 0.5582386267373455  # log2(1 + 2^(-g)) at eps = 1/4


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, abs=1e-15)
    assert binary_entropy(0.25) == binary_entropy(0.75)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(p):
    with pytest.raises(DomainError):
        binary_entropy(p)


def test_joint_law_validation():
    with pytest.raises(ValidationError):
        JointLaw((2, 2), np.array([[0.5, 0.6], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        JointLaw((2, 2), np.array([[0.5, 0.6], [0.0, -0.1]]))
    with pytest.raises(ShapeError):
        JointLaw((2, 3), np.full((2, 2), 0.25))
    with pytest.raises(ResourceLimitError):
        JointLaw((2,) * 22, np.zeros((2,) * 22))


def test_kernel_validation():
    with pytest.raises(ValidationError):
        CausalKernel(1, "sideways", 2, 2, (np.array([0.5, 0.5]),))
    with pytest.raises(ValidationError):
        CausalKernel.iid_inputs([0.5, 0.6], 2, 2)


def test_causal_product_single_step():
    pol = CausalKernel.iid_inputs([0.3, 0.7], 1, 2)
    chan = CausalKernel.memoryless_outputs([[0.9, 0.1], [0.2, 0.8]], 1)
    joint = causal_product(pol, chan)
    expect = np.array([[0.3 * 0.9, 0.3 * 0.1], [0.7 * 0.2, 0.7 * 0.8]])
    assert np.allclose(joint.table, expect, atol=1e-15)
    # argument order is free
    assert np.allclose(causal_product(chan, pol).table, expect, atol=1e-15)


def test_causal_product_noiseless_diagonal():
    pol = CausalKernel.uniform_inputs(2, 2, 2)
    chan = CausalKernel.memoryless_outputs(np.eye(2), 2)
    joint = causal_product(pol, chan)
    for x1, x2, y1, y2 in np.ndindex(2, 2, 2, 2):
        expect = 0.25 if (x1, x2) == (y1, y2) else 0.0
        assert joint.table[x1, x2, y1, y2] == pytest.approx(expect, abs=1e-15)


def test_causal_product_matches_chain_rule_enumeration():
    z = np.array([[0.75, 0.25], [0.0, 1.0]])
    pol = CausalKernel.iid_inputs([0.3, 0.7], 2, 2)
    chan = CausalKernel.memoryless_outputs(z, 2)
    joint = causal_product(pol, chan)
    for x1, x2, y1, y2 in np.ndindex(2, 2, 2, 2):
        expect = 0.3 if x1 == 0 else 0.7
        expect *= z[x1, y1]
        expect *= 0.3 if x2 == 0 else 0.7
        expect *= z[x2, y2]
        assert joint.table[x1, x2, y1, y2] == pytest.approx(expect, abs=1e-15)


def test_causal_product_shape_errors():
    pol = CausalKernel.uniform_inputs(2, 2, 2)
    with pytest.raises(ShapeError):
        causal_product(pol, CausalKernel.memoryless_outputs(np.eye(2), 3))
    with pytest.raises(ShapeError):
        causal_product(pol, pol)
    with pytest.raises(ShapeError):
        causal_product(pol, CausalKernel.memoryless_outputs(np.full((3, 3), 1 / 3), 2))


def test_causal_product_recovers_kernel_conditionals(rng):
    pol = rand_policy(rng, 2, 2, 3).to_kernel()
    w = rng.random((2, 2))
    w /= w.sum(axis=1, keepdims=True)
    chan = CausalKernel.memoryless_outputs(w, 3)
    table = causal_product(pol, chan).table
    # recover p(x_2 | x_1, y_1) from the joint and compare to the kernel
    pxy = table.sum(axis=(2, 4, 5))  # axes x1, x2, y1
    denom = pxy.sum(axis=1, keepdims=True)
    cond = pxy / denom
    expect = np.moveaxis(pol.steps[1], 1, 2)  # (x1, y1, x2) -> (x1, x2, y1)
    assert np.allclose(cond, expect, atol=1e-9)


def test_directed_information_independent_is_zero(rng):
    px = rng.random((2, 2))
    px /= px.sum()
    py = rng.random((2, 2))
    py /= py.sum()
    joint = JointLaw((2, 2, 2, 2), np.multiply.outer(px, py))
    assert directed_information(joint, 2) == 0.0


def test_directed_information_noiseless_uniform():
    pol = CausalKernel.uniform_inputs(2, 2, 2)
    chan = CausalKernel.memoryless_outputs(np.eye(2), 2)
    assert directed_information(causal_product(pol, chan), 2) == pytest.approx(2.0, abs=1e-12)


def test_directed_information_z_channel_at_capacity():
    p0 = 0.42782559679176746  # maximizer of the eps = 1/4 Z-channel
    pol = CausalKernel.iid_inputs([p0, 1 - p0], 1, 2)
    chan = CausalKernel.memoryless_outputs([[0.75, 0.25], [0.0, 1.0]], 1)
    got = directed_information(causal_product(pol, chan), 1)
    assert got == pytest.approx(C_Z_QUARTER, abs=1e-12)


def test_directed_information_matches_enumeration(rng):
    for n in (1, 2, 3):
        table = rng.random((2,) * (2 * n))
        table /= table.sum()
        joint = JointLaw((2,) * (2 * n), table)
        got = directed_information(joint, n)
        assert got == pytest.approx(brute_directed_info(table, n), abs=1e-10)


def test_directed_information_bounds(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        table = rng.random((2,) * n + (3,) * n)
        table /= table.sum()
        joint = JointLaw((2,) * n + (3,) * n, table)
        di = directed_information(joint, n)
        assert 0.0 <= di <= n * min(np.log2(2), np.log2(3)) + 1e-12


def test_directed_information_non_finite_total_raises():
    # log2 of 1 / 5e-324 overflows; the result must not come back as inf
    joint = JointLaw((2, 2), np.array([[5e-324, 0.0], [0.0, 1.0]]))
    with np.errstate(over="ignore"), pytest.raises(FscError, match="directed information"):
        directed_information(joint, 1)


def test_directed_information_shape_guard():
    joint = JointLaw((2, 2), np.full((2, 2), 0.25))
    with pytest.raises(ShapeError):
        directed_information(joint, 2)


def test_memoryless_bound_iid_equality(rng):
    for _ in range(10):
        w = rng.random((2, 2))
        w /= w.sum(axis=1, keepdims=True)
        dist = rng.random(2)
        dist /= dist.sum()
        n = int(rng.integers(1, 5))
        joint = causal_product(
            CausalKernel.iid_inputs(dist, n, 2), CausalKernel.memoryless_outputs(w, n)
        )
        rep = memoryless_bound_check(joint, n)
        assert rep.outputs_independent
        assert rep.directed == pytest.approx(rep.sum_single, abs=1e-9)


def test_memoryless_bound_single_step_always_equal(rng):
    w = rng.random((2, 2))
    w /= w.sum(axis=1, keepdims=True)
    joint = causal_product(
        CausalKernel.iid_inputs([0.4, 0.6], 1, 2), CausalKernel.memoryless_outputs(w, 1)
    )
    rep = memoryless_bound_check(joint, 1)
    assert rep.directed == pytest.approx(rep.sum_single, abs=1e-12)


def test_memoryless_bound_feedback_policy_strict_inequality():
    # x_2 copies y_1, so the outputs of the Z-channel correlate
    z = np.array([[0.75, 0.25], [0.0, 1.0]])
    step1 = np.array([[0.5, 0.5]])
    step2 = np.zeros((4, 2))
    for x1 in range(2):
        for y1 in range(2):
            step2[x1 * 2 + y1, y1] = 1.0
    kernel = CausalKernel(
        2,
        "inputs",
        2,
        2,
        (step1.reshape(2), step2.reshape(2, 2, 2).transpose(0, 1, 2)),
    )
    joint = causal_product(kernel, CausalKernel.memoryless_outputs(z, 2))
    rep = memoryless_bound_check(joint, 2)
    assert not rep.outputs_independent
    assert rep.directed < rep.sum_single - 1e-3
    # independent oracle for both sides
    assert rep.directed == pytest.approx(brute_directed_info(joint.table, 2), abs=1e-10)


def test_memoryless_bound_rejects_channels_with_memory():
    # y_2 = y_1 regardless of x_2: not memoryless
    table = np.zeros((2, 2, 2, 2))
    for x1, x2, y1 in np.ndindex(2, 2, 2):
        table[x1, x2, y1, y1] = 0.25 * 0.5
    joint = JointLaw((2, 2, 2, 2), table)
    with pytest.raises(ContractViolationError):
        memoryless_bound_check(joint, 2)

"""Optimizer convergence claims from PAPERS.md as properties on real losses.

Each property runs the seeded VQE (Ising chain) and QAOA (MaxCut on the
4-cycle) drivers with one optimizer and asserts that the last iterate
closes at least a quarter of the gap between the starting loss and the
exact optimum:

- Adam converges for β₂ near 1 (Zhang et al., arXiv 2208.09632);
- ADOPT converges for any β₂ (Taniguchi et al., arXiv 2411.02853);
- AdamW at the common ``betas=(0.9, 0.999)``, ``weight_decay=0.0025``
  setting lowers the loss too.

Exact parameter-shift gradients make a 25-step run a few tens of
milliseconds, so each property stays at a handful of derandomized
examples.
"""

from hypothesis import given, settings, strategies as st

from repro.variational import ADOPT, Adam, AdamW, run_qaoa_maxcut, run_vqe

STEPS = 25

_settings = settings(max_examples=5, deadline=None, derandomize=True)
_seeds = st.integers(min_value=0, max_value=7)


def _assert_lowers_both_losses(make_optimizer, seed):
    vqe = run_vqe(steps=STEPS, optimizer=make_optimizer(), seed=seed)
    qaoa = run_qaoa_maxcut(steps=STEPS, optimizer=make_optimizer(), seed=seed)
    for history, optimum in (
        (vqe["history"], vqe["ground_energy"]),
        (qaoa["history"], -qaoa["max_cut"]),
    ):
        assert history[-1] - optimum < 0.75 * (history[0] - optimum), (
            history[0], history[-1], optimum,
        )


@_settings
@given(beta2=st.floats(min_value=0.99, max_value=0.9999), seed=_seeds)
def test_adam_lowers_loss_for_beta2_near_one(beta2, seed):
    _assert_lowers_both_losses(lambda: Adam(lr=0.1, beta2=beta2), seed)


@_settings
@given(beta2=st.floats(min_value=0.5, max_value=0.9999), seed=_seeds)
def test_adopt_lowers_loss_for_any_beta2(beta2, seed):
    _assert_lowers_both_losses(lambda: ADOPT(lr=0.1, beta2=beta2), seed)


@_settings
@given(seed=_seeds)
def test_adamw_default_betas_with_weight_decay_lower_loss(seed):
    _assert_lowers_both_losses(
        lambda: AdamW(lr=0.1, beta1=0.9, beta2=0.999, weight_decay=0.0025),
        seed,
    )

"""Shared fixtures: a tiny model configuration that keeps every structural
feature of the default one (both encoder/decoder depths, adapters, visual
projector) while making forward passes cheap."""

import dataclasses

import pytest
from hypothesis import settings

from zerommt import autodiff as ad
from zerommt import model as m

# property tests draw the same examples on every run, so Tier-1 stays
# reproducible; no deadline, since a shared machine's timings vary
settings.register_profile("tier1", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("tier1")

TINY = m.ModelConfig(
    vocab_size=16,
    d_model=8,
    n_heads=2,
    n_layers_enc=1,
    n_layers_dec=1,
    d_ffn=16,
    image_dim=4,
    adapter_reduction=4,
    max_len=10,
)


@pytest.fixture
def tiny_config():
    return dataclasses.replace(TINY)


@pytest.fixture
def tiny_params(tiny_config):
    return m.build_model(tiny_config, seed=0)


@pytest.fixture(autouse=True)
def tape_recording_stays_on():
    """A no_grad scope leaked out of one test would silently stop every
    later test's gradients."""
    assert ad.is_recording(), "tape recording was off when the test began"
    yield
    assert ad.is_recording(), "the test left tape recording off"

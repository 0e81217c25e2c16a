"""Unit tests for the SKU catalogs."""

from __future__ import annotations

import pytest

from repro.cloud.entities import Node
from repro.cloud.sku import (
    SkuCatalog,
    VMSku,
    private_sku_catalog,
    public_sku_catalog,
)
from repro.telemetry.schema import Cloud


def test_sku_fits_on():
    sku = VMSku("D4", 4, 16)

    def node(cores: float, memory_gb: float) -> Node:
        return Node(1, 1, 1, "r", Cloud.PRIVATE, capacity_cores=cores, capacity_memory_gb=memory_gb)

    assert node(4, 16).can_host(sku.cores, sku.memory_gb)
    assert not node(3.9, 16).can_host(sku.cores, sku.memory_gb)
    assert not node(4, 15.9).can_host(sku.cores, sku.memory_gb)


def test_catalog_validation():
    with pytest.raises(ValueError):
        SkuCatalog(skus=(VMSku("a", 1, 1),), weights=(1.0, 2.0))
    with pytest.raises(ValueError):
        SkuCatalog(skus=(), weights=())
    with pytest.raises(ValueError):
        SkuCatalog(skus=(VMSku("a", 1, 1),), weights=(-1.0,))
    with pytest.raises(ValueError):
        SkuCatalog(skus=(VMSku("a", 1, 1),), weights=(0.0,))


def test_sample_single_and_batch(rng):
    catalog = private_sku_catalog()
    sku = catalog.sample(rng)
    assert isinstance(sku, VMSku)
    batch = catalog.sample(rng, size=10)
    assert len(batch) == 10


def test_sample_respects_weights(rng):
    heavy = VMSku("heavy", 8, 32)
    light = VMSku("light", 1, 2)
    catalog = SkuCatalog(skus=(heavy, light), weights=(0.99, 0.01))
    draws = catalog.sample(rng, size=500)
    heavy_count = sum(1 for s in draws if s.name == "heavy")
    assert heavy_count > 400


def test_by_name():
    by_name = {sku.name: sku for sku in public_sku_catalog().skus}
    assert by_name["D4"].cores == 4
    assert "nope" not in by_name


def test_public_catalog_has_size_extremes():
    """Fig. 2: public cloud demands both tiny and huge VMs."""
    private_cores = {sku.cores for sku in private_sku_catalog().skus}
    public_cores = {sku.cores for sku in public_sku_catalog().skus}
    assert min(public_cores) < min(private_cores)
    assert max(public_cores) > max(private_cores)


def test_all_skus_fit_default_node():
    from repro.cloud.sku import DEFAULT_NODE_SKU

    for sku in public_sku_catalog().skus + private_sku_catalog().skus:
        assert sku.cores <= DEFAULT_NODE_SKU.cores, sku
        assert sku.memory_gb <= DEFAULT_NODE_SKU.memory_gb, sku

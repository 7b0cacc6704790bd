"""Golden pins for the five compared systems (Table 1) and how they are built.

Every pin here was captured before the systems moved into one record table,
so these tests prove the move changed no summary, no assembled system and no
rendered table.  Three things are pinned:

* the sha256 of each system's summary in five five-system comparison cells
  (plain, a typed fleet, the multi-resource model, a fault storm, and
  cost-aware autoscaling on a spot-priced fleet) at a small scale;
* a fingerprint of each built system: its configuration, policy class and
  parameters (allocator included), initial demand, re-planning and
  autoscaling configuration, and run name;
* the sha256 of the rendered Table 1.

The build fingerprints of the two DiffServe systems were re-pinned once,
when the allocator lost its wall-clock solve-time attributes: with those
attributes filtered out, the old fingerprints hash to the new pins.

The pinned cells and builds go through ``executor.run_cell_results`` and
``harness.build_comparison_systems``, the two entry points the runner uses.
"""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro import cli
from repro.baselines import registry
from repro.baselines.registry import SYSTEMS, build_system, render_baseline_table
from repro.core.config import SystemConfig
from repro.discriminators.base import Discriminator
from repro.experiments.harness import ExperimentScale, build_comparison_systems, shared_components
from repro.models.dataset import QueryDataset
from repro.models.generation import ImageGenerator
from repro.runner import executor
from repro.runner.spec import DEFAULT_SYSTEMS, ExperimentSpec

SCALE = ExperimentScale(dataset_size=60, trace_duration=24.0, num_workers=4, seed=0)
FLEET = (("a100", 2), ("l4", 4))
PERIODIC = (("replan_policy", "periodic"),)

#: cell -> ExperimentSpec keywords.  Every cell compares the five systems.
CELLS = {
    "plain": {},
    "fleet": {"fleet": FLEET},
    "resources": {"resources": "default", "params": PERIODIC},
    "faults": {"faults": "storm", "params": PERIODIC},
    "autoscale": {
        "autoscale": "cost-aware",
        "prices": "spot-diurnal",
        "fleet": FLEET,
        "params": PERIODIC,
    },
}

#: cell -> system -> sha256 of the system's canonical summary JSON.
SUMMARY_SHA256 = {
    "plain": {
        "clipper-light": "4aa22b0bcdce4ccc299f0f511057f76302f3e799904156ac0d962bf41b5f17b4",
        "clipper-heavy": "290c4bbe1e2410fcc38597dc3733aa258ba5d058f9b303234aa42526543a553f",
        "proteus": "fa39516c3be03884fcaac6dcd872fa33b3e936afb0274cf06d7679b12195f4e5",
        "diffserve-static": "3497a4139fda6d30694dae5e96611377e28c6967aaa032df660b67188dc6be02",
        "diffserve": "c03572f7b6ab9e3271ab103a4a544ad2b9271c61fc29b871fe9f0f771bf6b3fd",
    },
    "fleet": {
        "clipper-light": "3794ac110c6b48f050e00a456a98a6487f89e353a38c6cffb3f8235712e6a579",
        "clipper-heavy": "83840392ec5efcd224e50d753a93da651c991e8fc142b589f17739f3319e32cc",
        "proteus": "1f6afedf7c5852bc1388e984b945ea7ccc9f32914a49eb5e9df53e1a78574cca",
        "diffserve-static": "788b0749cf3a918e30b455251d571cf466ab3b6075bdf2e464f6ac134456193c",
        "diffserve": "8c6d9290f44bc50020644cd2734b71d3430f6b929dfe5e0aadb800dec4768b88",
    },
    "resources": {
        "clipper-light": "ed3bc6d47b924d669edfb177ac35a1adf7ed061b40f6cc66e9d3182944f89736",
        "clipper-heavy": "645f30597c2f6018248b31a1ec2249fff7b0fb2216b3a8c8054d394165e63122",
        "proteus": "115f49f2641214878a64c2d45e7bfe7c4a6bc0a89cf1c0961bb2862a84a9d897",
        "diffserve-static": "96210911a51e9f7fabf568a8197a5f12431d575156c7b77b08794a855b06554f",
        "diffserve": "b392a1bef84f23c8e06b14972983c8e765e578f1d7e0853a6057ca01162821d0",
    },
    "faults": {
        "clipper-light": "291e18b2a8bdc223ddaf00bf72b15f3d07911e538b2ef514c4c24dcff235bf28",
        "clipper-heavy": "9b9cad6f66f474f7cba9a7933f5dd4626827d10b7594c2419d6654cee5e48d64",
        "proteus": "b107f0b76f1fed1fb934b23c29adce011522c8ab5e86749853dbbe54737c9963",
        "diffserve-static": "c35b7c24d917ecaddb901a49e70bbef97e968a22ff5c53aa1b265142b0077622",
        "diffserve": "a129780eebf2034c49dbb8879ed21b33d07c2bd4b05b9dc98cddb5bf0b5752b9",
    },
    "autoscale": {
        "clipper-light": "e39137dbfed1582a0c1ff697b9edcedfa7276ce74b069b7a4021b72b6c8594ff",
        "clipper-heavy": "7e2a35d6fa854f029b43bcf90de39d2b6ed0bfca84203b88e8fd3dd906ed8d97",
        "proteus": "040a99bd777bc98d3767c4f380e08672d40860257620ed84ffa5d41f150dc326",
        "diffserve-static": "87c6e98a8595e83d6528d5e9cd85a26bf7c9ed41e6b017f63763b2a7ad14ded7",
        "diffserve": "9fbb6084e5c9f1b880dfe20e84abcf76416ef5ec7c57c0f53dbd09ecc684eb62",
    },
}

#: build -> system -> sha256 of the system's build fingerprint.
BUILD_SHA256 = {
    "plain": {
        "clipper-light": "9fa2adf8e13efea4123eaa861eb4445a617f0d6113479fe895e1490b94e9a43a",
        "clipper-heavy": "72f22dfebac77aa7fc7869fee3607510edd093ca1e7cdb74f42b95a08f8b9735",
        "proteus": "4794a183da9e4fa81d53052936c44aa79c865958d69fece62954db175173ba5c",
        "diffserve-static": "2b53a7cb944cac8b6edac8fe646078db0cd4d030c18d8e12c809abe6488ebe87",
        "diffserve": "a19d2a25deff9e329de3760ab8239f75a80b6ed621715a3e5e61c4f0d1e281fa",
    },
    "fleet": {
        "clipper-light": "1620861054b0b50635f31ab8d4bd63a8b4d3fb75bcc59ffaf0914f5f1594b78b",
        "clipper-heavy": "b86bb13f682aa239b8a4587b43d12192ad01dc52b050b5d72ed9f4970b22a9f3",
        "proteus": "fc0bb779aeca2db6141305dfa675707baca779d7522ae9b96eecfa03b74844f8",
        "diffserve-static": "1ca2851694672142830c1c6070bac686a7bf04ae32861bd021daf27761946df2",
        "diffserve": "19359c237aae51268af679d3b2c875cb55c32329437f06bfc20ff8661fed2ba3",
    },
    "resources": {
        "clipper-light": "64e2910306e93d983b3de8e564791336d78749a2125a547f47c761800eb291ae",
        "clipper-heavy": "d89ba0489fbf7363d0246b83459d00e3c8696b8ffeda10c8d9fc3f6f71ce1a8e",
        "proteus": "5b51bdb60579e834e0cf9a01ce3d10cb56e406df61f3bff12f30d207efca9134",
        "diffserve-static": "ab9c2fcef14d74419913888156dbbcedd4676bf421ac81bb9544137029f2b166",
        "diffserve": "8c97fc843be6f2ff8d7545b7935d8c16631f7c90defcd68c5a22606d27bae8ca",
    },
    "faults": {
        "clipper-light": "53ba27781db900888a6ca518e7af4ece50d3b0ed6d7fd34ffd2cec7bc9050e50",
        "clipper-heavy": "8fa1fe3a45ed99b24763dfaa51f68cdd6197aac1bcf72f8f97713a8bd204aa22",
        "proteus": "c1107d5f9e98f9fe2555a1597b1a877d7c329f75c72ec909abe4eb86488ed068",
        "diffserve-static": "e39536dcf63166d3b43e50fd0ad848ff7dc9398f10e2835648e7633ccab19878",
        "diffserve": "fbee16226dfb292bf39c86714ee932673bddbf67bb75781fe75a2d3980c7a75f",
    },
    "autoscale": {
        "clipper-light": "8ccd314aa87f09dee787cfb23c2ee8e30a870ec9b3c8205ec43d5a7d4fd5aaee",
        "clipper-heavy": "130a539e7b9bf02786e4d2d7c39bc29b804fb2d386e54070553ae62d0d44b470",
        "proteus": "7cf9b1ea34b6262699912e4e40c0e7d716f3800ee841a358d8db15089a1395d9",
        "diffserve-static": "364c4d90b87faa0068db9b48e90fa4aab3770bc9aac37bec383200265d7c614e",
        "diffserve": "e027723a19f93daa6bcb4b36f52c4af9928021e6d38ed83d50d1d5b9538654ca",
    },
    "overrides": {
        "clipper-light": "c9ba7d0f45e498e7f9fe30c1c979dc371a4d02dab50d506aa40d226917fb16f6",
        "clipper-heavy": "4fcaca92a7ff8e9945a1226aaf468a0e48934a04273e968f7d99558b65aef028",
        "proteus": "8bbd11b7005cbf2820de20fe14fdfcccf6cc5a115fed8034129cdb5260ede44f",
        "diffserve-static": "db2bc0891fe775a6368b7b72cbddd25a20954ae995dc2886f2ba6bab1162aa25",
        "diffserve": "fe7ddb870e226c03a801cfd047004776cdf27b536e7e9df6b6193040f12931d1",
    },
    "static-threshold": {
        "clipper-light": "9fa2adf8e13efea4123eaa861eb4445a617f0d6113479fe895e1490b94e9a43a",
        "clipper-heavy": "72f22dfebac77aa7fc7869fee3607510edd093ca1e7cdb74f42b95a08f8b9735",
        "proteus": "4794a183da9e4fa81d53052936c44aa79c865958d69fece62954db175173ba5c",
        "diffserve-static": "2b53a7cb944cac8b6edac8fe646078db0cd4d030c18d8e12c809abe6488ebe87",
        "diffserve": "44b6998cb69a8586e48672ad2f1167473b013b201c04b1a5cb324105ff615877",
    },
    "aimd": {
        "clipper-light": "9fa2adf8e13efea4123eaa861eb4445a617f0d6113479fe895e1490b94e9a43a",
        "clipper-heavy": "72f22dfebac77aa7fc7869fee3607510edd093ca1e7cdb74f42b95a08f8b9735",
        "proteus": "4794a183da9e4fa81d53052936c44aa79c865958d69fece62954db175173ba5c",
        "diffserve-static": "2b53a7cb944cac8b6edac8fe646078db0cd4d030c18d8e12c809abe6488ebe87",
        "diffserve": "5df348cdc011c96b1354d332c49058e0305393a2c906644299c6c722c22f5168",
    },
    "no-queueing": {
        "clipper-light": "9fa2adf8e13efea4123eaa861eb4445a617f0d6113479fe895e1490b94e9a43a",
        "clipper-heavy": "72f22dfebac77aa7fc7869fee3607510edd093ca1e7cdb74f42b95a08f8b9735",
        "proteus": "4794a183da9e4fa81d53052936c44aa79c865958d69fece62954db175173ba5c",
        "diffserve-static": "2b53a7cb944cac8b6edac8fe646078db0cd4d030c18d8e12c809abe6488ebe87",
        "diffserve": "7c05677a24d9118e17c8c7826c0d6046e8b13f5ab9df2739ab5b66baf560b1b5",
    },
}

#: sha256 of the rendered Table 1.
TABLE1_SHA256 = "0fabdb43cf413f6e946f6fe8b6ba49e4c54cbc475b36ed83aa8c76a0d19261ca"

#: The SystemConfig fields a build fingerprint covers, in order.
CONFIG_FIELDS = (
    "cascade",
    "slo",
    "routing",
    "control_period",
    "drop_late_queries",
    "worker_reload_latency",
    "monitoring_window",
    "seed",
    "fleet",
    "resources",
)

#: Builds fingerprinted through ``build_comparison_systems``: the five cells
#: plus the keyword overrides and DiffServe ablations the runner forwards.
BUILDS = {
    **CELLS,
    "overrides": {"params": (("over_provision", 1.2), ("slo", 3.0))},
    "static-threshold": {
        "params": (("policy_variant", "static-threshold"), ("static_threshold", 0.3))
    },
    "aimd": {"params": (("policy_variant", "aimd"), ("replan_epoch", 2.5))},
    "no-queueing": {"params": (("policy_variant", "no-queueing"),)},
}


def _spec(cell):
    return ExperimentSpec(cascade="sdturbo", scale=SCALE, **BUILDS[cell])


def _describe(value, depth=0):
    """Deterministic text form of a built object graph (no memory addresses)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return str(value)
    if isinstance(value, np.ndarray):
        return f"array{value.shape}:{hashlib.sha256(value.tobytes()).hexdigest()[:16]}"
    if isinstance(value, (np.integer, np.floating)):
        return repr(value.item())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_describe(v, depth + 1) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_describe(v, depth + 1) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((repr(k), _describe(v, depth + 1)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (QueryDataset, Discriminator, ImageGenerator)):
        # Shared by every system of a cell; identity is asserted separately.
        return type(value).__name__
    if callable(value) and hasattr(value, "__qualname__"):
        return value.__qualname__
    attrs = getattr(value, "__dict__", None)
    if attrs is None or depth > 8:
        return type(value).__name__
    inner = ",".join(f"{k}={_describe(v, depth + 1)}" for k, v in sorted(attrs.items()))
    return f"{type(value).__name__}({inner})"


def _fingerprint(system):
    config = ",".join(
        f"{name}={_describe(getattr(system.config, name))}" for name in CONFIG_FIELDS
    )
    policy = system.policy
    allocator = getattr(policy, "allocator", None)
    lines = [
        f"config={config}",
        f"policy={_describe(policy)}",
        f"over_provision={getattr(allocator or policy, 'over_provision', None)!r}",
        f"exhaustive_cutoff={getattr(allocator, 'exhaustive_cutoff', None)!r}",
        f"initial_demand={system.initial_demand!r}",
        f"replan={_describe(system.replan)}",
        f"autoscale={_describe(system.autoscale)}",
        f"faults={_describe(system.faults)}",
        f"prices={_describe(system.prices)}",
        f"name={system.name}",
    ]
    return "\n".join(lines)


def _shared():
    _, dataset, discriminator = shared_components("sdturbo", SCALE)
    return dataset, discriminator


def _build(cell):
    spec = _spec(cell)
    _, dataset, discriminator = shared_components(spec.cascade, spec.scale)
    curve, _ = executor.resolve_trace(spec)
    systems = build_comparison_systems(
        spec.cascade,
        spec.scale,
        anticipated_peak_qps=spec.peak_provision_factor * curve.peak,
        dataset=dataset,
        discriminator=discriminator,
        systems=spec.systems,
        fleet=spec.resolve_fleet(),
        resources=spec.resolve_resources(),
        faults=spec.resolve_faults(),
        autoscale=spec.resolve_autoscale(),
        prices=spec.resolve_prices(),
        **spec.params_dict(),
    )
    return systems, dataset, discriminator


@pytest.mark.parametrize("cell", list(CELLS))
def test_cell_summaries_are_pinned(cell):
    _, results = executor.run_cell_results(_spec(cell))
    assert tuple(results) == DEFAULT_SYSTEMS
    digests = {
        name: hashlib.sha256(
            executor.canonical_summaries_json(result.summary()).encode()
        ).hexdigest()
        for name, result in results.items()
    }
    assert digests == SUMMARY_SHA256[cell]


@pytest.mark.parametrize("build", list(BUILDS))
def test_built_systems_are_pinned(build):
    systems, _, _ = _build(build)
    digests = {
        name: hashlib.sha256(_fingerprint(system).encode()).hexdigest()
        for name, system in systems.items()
    }
    assert digests == BUILD_SHA256[build]


def test_systems_share_components_but_not_deferral_profiles():
    systems, dataset, discriminator = _build("plain")
    generators = {id(system.generator) for system in systems.values()}
    assert len(generators) == 1
    for system in systems.values():
        assert system.dataset is dataset
        assert isinstance(system.config, SystemConfig)
    cascade = [systems["diffserve-static"], systems["diffserve"]]
    for system in cascade:
        assert system.discriminator is discriminator
    # The controller updates a profile in place, so each system owns one.
    profiles = [system.policy.allocator.deferral_profile for system in cascade]
    assert profiles[0] is not profiles[1]
    for name in ("clipper-light", "clipper-heavy", "proteus"):
        assert systems[name].discriminator is None


def test_table1_rendering_is_pinned():
    digest = hashlib.sha256(render_baseline_table().encode()).hexdigest()
    assert digest == TABLE1_SHA256, render_baseline_table()


def test_config_fields_cover_every_live_field():
    # A new SystemConfig field must join the fingerprint.
    assert CONFIG_FIELDS == tuple(f.name for f in dataclasses.fields(SystemConfig))


def test_table1_columns_follow_the_built_systems():
    systems, _, _ = _build("plain")
    for name, system in systems.items():
        assert SYSTEMS[name].dynamic == system.policy.dynamic
        assert SYSTEMS[name].query_aware == (system.discriminator is not None)


def test_query_agnostic_systems_skip_discriminator_setup(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("query-agnostic systems train and profile nothing")

    monkeypatch.setattr(registry, "train_default_discriminator", boom)
    monkeypatch.setattr(registry.DeferralProfile, "profile", boom)
    dataset, _ = _shared()
    for name in ("clipper-light", "clipper-heavy", "proteus"):
        system = build_system("sdturbo", name, dataset=dataset)
        assert system.discriminator is None


def test_build_system_rejects_unknown_names_and_missing_peak():
    dataset, discriminator = _shared()
    with pytest.raises(ValueError, match="unknown system 'difserve'; known systems: clipper-light"):
        build_system("sdturbo", "difserve", dataset=dataset)
    with pytest.raises(ValueError, match="diffserve-static needs anticipated_peak_qps"):
        build_system("sdturbo", "diffserve-static", dataset=dataset, discriminator=discriminator)


def test_diffserve_only_options_leave_the_other_systems_alone():
    dataset, discriminator = _shared()
    options = dict(
        dataset=dataset,
        discriminator=discriminator,
        anticipated_peak_qps=10.0,
        policy_variant="aimd",
        replan_epoch=2.5,
        autoscale=ExperimentSpec(cascade="sdturbo", scale=SCALE, autoscale="reactive").resolve(
            "autoscale"
        ),
    )
    for name in ("clipper-light", "proteus", "diffserve-static"):
        system = build_system("sdturbo", name, **options)
        assert system.name == name
        assert system.replan is None and system.autoscale is None
    system = build_system("sdturbo", "diffserve", **options)
    assert system.name == "diffserve-aimd"
    assert system.replan.epoch == 2.5 and system.autoscale is not None


def test_unknown_system_fails_at_spec_construction(capsys):
    with pytest.raises(ValueError, match="unknown system 'difserve'; known systems: "):
        ExperimentSpec(cascade="sdturbo", scale=SCALE, systems=("diffserve", "difserve"))
    argv = ["run", "--grid", "cascades=sdturbo;seeds=0;systems=difserve"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown system 'difserve'" in err

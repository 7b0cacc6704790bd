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
Every build fingerprint was re-pinned once more when constructor options that
no caller set became module constants and three unread ``SystemConfig``
fields went.  The old ``_describe``, with exactly the deleted attributes
(``DiffServeAllocator.reload_penalty``/``price_penalty``,
the then solver's ``max_nodes``/``mip_gap``, ``LittlesLawModel.min_rate``,
``DeferralProfile.ewma_alpha``, ``AIMDBatchState.increase``/``decrease_factor``,
``ProteusPolicy.queueing_multiplier``, ``ClipperPolicy.headroom``) and
fields (``drop_late_queries``, ``worker_reload_latency``,
``monitoring_window``) filtered out, dumps every build fingerprint to JSON
that hashes identically to the new code's unfiltered dump.  The two DiffServe
systems' build fingerprints were re-pinned a third time when the allocator's
MILP solver became :class:`~repro.milp.highs.HighsMILPSolver`: each old
fingerprint, with ``BranchAndBoundSolver(tol=1e-06,total_lp_solves=0)``
replaced by ``HighsMILPSolver(total_lp_solves=0)``, equals the new one, and
no summary pin moved.

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
        "clipper-light": "a68565aeb5f99fb146a4e6527a240be8e86b587163bda3bb675d8e83d4112f32",
        "clipper-heavy": "aa72b424683d8d789e209263b579f01985b323a6b74f003c86ddccfa32288b87",
        "proteus": "55c76c6be948cd09b9db3a224cddf2a12249057babc91a14fbf1ce8f1821ce2c",
        "diffserve-static": "d74abcf6523c4a78f621989cd01e48297202ecd8556ef750104dfae57697be03",
        "diffserve": "ea2b152a315e8909687cf2dbb1eb8c6722f6421e269b5edbb94942707150d824",
    },
    "fleet": {
        "clipper-light": "e6a4978f0da96cd027b5f82b82d7616a6c91da52fa22936b79c5392a3c2c911c",
        "clipper-heavy": "9e6f7ed1220ebb3d6c1806687e7da145eb0648b4ca46bce7e41238c088624181",
        "proteus": "0a8d90d36b87f4511f0e57a0c22a08ec9cdb8aae4e7ae2eadfd8862682aaa54f",
        "diffserve-static": "27a153b2eaa676db9c6107c498c6bcd72d0cffb71b663823fb85aef1ea149fc1",
        "diffserve": "f19a8c83a0db801d509542c4a9bcdbb277779c797889145d520ad9cd77d9858a",
    },
    "resources": {
        "clipper-light": "3b4373f1d312bc71b568593e793d67bb37df867eac59585b6d8cea4fc3b244f6",
        "clipper-heavy": "688b9e1db7d8af55cd82d216290936f94a1e522086624639104ed3f7f0ffe664",
        "proteus": "9f09c29d7e0578ac159d59dd842bb5a4c2ef7ca594b97d92405fe94775d5dce4",
        "diffserve-static": "024f588a87b61d41240eb3c787e7f69a4eb2138979998e99592cfab9f7bfd868",
        "diffserve": "15b159eefec28a0bbda00a54436da325efc95994c11681ef5e15671c80295dd7",
    },
    "faults": {
        "clipper-light": "9280cf9bc9f15e220b241f2ec6a7f20861f3da15d7a06a26254431e75eb16900",
        "clipper-heavy": "5c976039edf611cf4672b847f0b48988c5320966ddcb7c1b2ac8e6fede331876",
        "proteus": "49927f4281c5733258f61f04710f1959f1caede84c8d585906f507a097a0feb8",
        "diffserve-static": "7e9fd74263095a8543a03a3af73d43e5ebe2ccebfca5a4e5d917e8dd03522ae8",
        "diffserve": "8ff1f3573092287d21099a19c75c1cdd52e039a5a4ea638fc7492a30379db32d",
    },
    "autoscale": {
        "clipper-light": "d0bb548700e78bdda30ea9350bcc3239783a8f90fe75c81c8e25d4d5d60dafea",
        "clipper-heavy": "a30ee87537e7d441846bef689d76455fe1936fa07eaf1e01c5b8a24f0f62189d",
        "proteus": "97aa7a38186fe27a344cf68703cb1d65276bf26296d303e7c1f17fd484af6aab",
        "diffserve-static": "41b8b67828a53c0f43151f4d3c1450cdbb247089412bcb31df4c842da04d329a",
        "diffserve": "f86ec72a3be44bd6d906db73f75473f968cede520dee6cce97779ad6fa9bbd51",
    },
    "overrides": {
        "clipper-light": "9b8495ae5d545950d638a029e1edbc7033c3a4c33018f0aeea705d7d35e3438e",
        "clipper-heavy": "1227f03fe2d5560d3abe5a318546c3c19ba08d8d66a2bb87f328486f43978582",
        "proteus": "c36c1c35a6c7f7142383cfea76829f0a4bfa23d2b025cd4cba63a54c2eb87fd4",
        "diffserve-static": "49c63da32b25cd302eaea4ff9c5a206a6466dec108b3d11544c210b6fda685c3",
        "diffserve": "ccbbeea7207b8f42d8e3cb524af8491d0aaa8b950d864c9c3ebb5e016137777f",
    },
    "static-threshold": {
        "clipper-light": "a68565aeb5f99fb146a4e6527a240be8e86b587163bda3bb675d8e83d4112f32",
        "clipper-heavy": "aa72b424683d8d789e209263b579f01985b323a6b74f003c86ddccfa32288b87",
        "proteus": "55c76c6be948cd09b9db3a224cddf2a12249057babc91a14fbf1ce8f1821ce2c",
        "diffserve-static": "d74abcf6523c4a78f621989cd01e48297202ecd8556ef750104dfae57697be03",
        "diffserve": "e1aa182dd213f608f0ae492020e9709a7ba3e1e39dce55da168d83013bd706ad",
    },
    "aimd": {
        "clipper-light": "a68565aeb5f99fb146a4e6527a240be8e86b587163bda3bb675d8e83d4112f32",
        "clipper-heavy": "aa72b424683d8d789e209263b579f01985b323a6b74f003c86ddccfa32288b87",
        "proteus": "55c76c6be948cd09b9db3a224cddf2a12249057babc91a14fbf1ce8f1821ce2c",
        "diffserve-static": "d74abcf6523c4a78f621989cd01e48297202ecd8556ef750104dfae57697be03",
        "diffserve": "b83a4d2cda00e9deb950481123b8be9d638c491c6cb2495d37e7317a81dba64c",
    },
    "no-queueing": {
        "clipper-light": "a68565aeb5f99fb146a4e6527a240be8e86b587163bda3bb675d8e83d4112f32",
        "clipper-heavy": "aa72b424683d8d789e209263b579f01985b323a6b74f003c86ddccfa32288b87",
        "proteus": "55c76c6be948cd09b9db3a224cddf2a12249057babc91a14fbf1ce8f1821ce2c",
        "diffserve-static": "d74abcf6523c4a78f621989cd01e48297202ecd8556ef750104dfae57697be03",
        "diffserve": "55d7af976e3aeec16e7d7b57c5423db987c6ae41eaca494c4ce3c4b55d7806bd",
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

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

Every build fingerprint was re-pinned a fourth time when the Controller's
fixed-period loop folded into the re-planner: ``SystemConfig.control_period``
went, and a system built without re-planning options now carries the
``ReplanConfig`` its loop runs (cold ``periodic`` at 5 s for a dynamic
policy, ``static`` otherwise) instead of ``None``.  Each old fingerprint with
``control_period=5.0`` dropped and ``replan=None`` replaced by that config
equals the new one.  With that fold one summary pin moved, Proteus in the
``autoscale`` cell, and only its ``fleet_cost`` (0.027079318015174797 ->
0.02646392775071957): its loop now re-rates the spot-priced cost meter every
epoch instead of billing the t=0 price for the whole run.

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
from repro.core.replanner import ReplanConfig
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
        "proteus": "e9ab5d4fd56ce25e2f1156c7280da4f9c8b8053b1066f508159e131b2b47e40f",
        "diffserve-static": "87c6e98a8595e83d6528d5e9cd85a26bf7c9ed41e6b017f63763b2a7ad14ded7",
        "diffserve": "9fbb6084e5c9f1b880dfe20e84abcf76416ef5ec7c57c0f53dbd09ecc684eb62",
    },
}

#: build -> system -> sha256 of the system's build fingerprint.
BUILD_SHA256 = {
    "plain": {
        "clipper-light": "bd5952e2d9a998296e6b27422d66f5294c82489957f168374a45ff5563ed64ec",
        "clipper-heavy": "c37e5d5a864b99bea6246564624dd577335434097af41f2bc32ec8fe813fb8d4",
        "proteus": "3fe820ddb5e57e86db39e4021b69bba184f672ff0d87307088e64a3e43089cea",
        "diffserve-static": "a95feb31356cc93fa480fbeffd122285348ffabef18f2c3fa62f37ce69caeac9",
        "diffserve": "f94f51f3e470f8949565d4a0f2739d764998a07214be305e352cdc0c455574e4",
    },
    "fleet": {
        "clipper-light": "7f850d7e36d9bed2049be03e8cf67bc3130688e8a6436d07e998030a69f95b4a",
        "clipper-heavy": "9cd721902bda90638191749da1d80be9ad4771f62a36afd26072abb96ba5dc8c",
        "proteus": "2b36b3910c9991ace9dd13fba806bc170606827df75455b04c7cfb18b9f03d21",
        "diffserve-static": "80b85dbb521c5f9c863ee47457f129487291e825548d558977767d53fccc10c8",
        "diffserve": "c64ecece611372c6800251bae56efb6aa156a2ea4430e950fa6b5a9d6ad82c65",
    },
    "resources": {
        "clipper-light": "65675debd1089ffd10a5d3b9fe23d99331bd8bf93b20d6cf08e38b3636a423eb",
        "clipper-heavy": "40ceb2abe0a1c5b7485c2518a58ae4372541352547ff610136c94223028e62ce",
        "proteus": "5c46129cc0b1c25b66caa0dd63fb7b8eb8017e571c9389333d55a846c761f761",
        "diffserve-static": "8e5d486324b7a7cb5c22d8376620431eb55a3226015e7793326d02c776b176eb",
        "diffserve": "47c7b914326f37a36159ba61d2f51446cbb3c414e1192406ff7b0e7c9ad6db92",
    },
    "faults": {
        "clipper-light": "ef0e9699cc9328fdf83df24972c0d87a10bf27c920294a165e0e9f99e440e978",
        "clipper-heavy": "e2b9e9f9f1e1b731fd3932df8409e7c6f6e7f6fbd4a6a3b408347a42d2d72724",
        "proteus": "23758160e12971651e2cd5c13101502e5da9aa4af4d55944ce4a4df633871580",
        "diffserve-static": "731aae98cc3ad4b4fd1a1af1bbfa4089e626deae2d907bc50530d88c651df0c9",
        "diffserve": "ac019eb0e2c00bd995c0376248c8b9561fa8ebb702534338ad22a641f4b1caae",
    },
    "autoscale": {
        "clipper-light": "e97feea138cc6476485d0617c4525da041fe3530932d63f9dc49a4cc53b12a02",
        "clipper-heavy": "4451249f7d4cfa345a6615ee60edaa1a7a503a663c438d0d368fce53ef610daa",
        "proteus": "d2906fd537a8e15dfb3d98691c2ba188f7579f4ade07d07438dc3f04d75714fe",
        "diffserve-static": "b4dc0a899e7910ff7eb428401af07d51566eface3e8daaad38cc41005d859fad",
        "diffserve": "8cf5357ce0a50bd287076a8589f31b9b590f38864b3094e2a6418c0b9e3639a7",
    },
    "overrides": {
        "clipper-light": "3d2eca80c86a031e822269ef21020611829d1dcce7e0738392c626994c1a3f85",
        "clipper-heavy": "4bdf3de0dabfce8c4808615002867fad3ced2c0727dbc3bd9701fadb610fd145",
        "proteus": "26bd428c1726911fb3077ce6724007f1ba49d4728df6ee3b1788c525805b8379",
        "diffserve-static": "e48a2c2279c68acec7d6231c7a67dc2cc29da5935104dce86744c04d36401371",
        "diffserve": "7beea12ea8d4511de71b930b86cbd55018bdc32cd011c4c6d2c4b9cea9d6a574",
    },
    "static-threshold": {
        "clipper-light": "bd5952e2d9a998296e6b27422d66f5294c82489957f168374a45ff5563ed64ec",
        "clipper-heavy": "c37e5d5a864b99bea6246564624dd577335434097af41f2bc32ec8fe813fb8d4",
        "proteus": "3fe820ddb5e57e86db39e4021b69bba184f672ff0d87307088e64a3e43089cea",
        "diffserve-static": "a95feb31356cc93fa480fbeffd122285348ffabef18f2c3fa62f37ce69caeac9",
        "diffserve": "ebd71db9db8273a12028a93eb21835cd29c2211d6e533dcf4c0a641f0e65a6bb",
    },
    "aimd": {
        "clipper-light": "bd5952e2d9a998296e6b27422d66f5294c82489957f168374a45ff5563ed64ec",
        "clipper-heavy": "c37e5d5a864b99bea6246564624dd577335434097af41f2bc32ec8fe813fb8d4",
        "proteus": "3fe820ddb5e57e86db39e4021b69bba184f672ff0d87307088e64a3e43089cea",
        "diffserve-static": "a95feb31356cc93fa480fbeffd122285348ffabef18f2c3fa62f37ce69caeac9",
        "diffserve": "5cd21c82c41da469858627cd57597636164227b5d3e584c6bbdf473bc57cb1b2",
    },
    "no-queueing": {
        "clipper-light": "bd5952e2d9a998296e6b27422d66f5294c82489957f168374a45ff5563ed64ec",
        "clipper-heavy": "c37e5d5a864b99bea6246564624dd577335434097af41f2bc32ec8fe813fb8d4",
        "proteus": "3fe820ddb5e57e86db39e4021b69bba184f672ff0d87307088e64a3e43089cea",
        "diffserve-static": "a95feb31356cc93fa480fbeffd122285348ffabef18f2c3fa62f37ce69caeac9",
        "diffserve": "136e9f57750f84a2d2f434261a4720624cefdad8b0ab347f345c99e87c6af2c4",
    },
}

#: sha256 of the rendered Table 1.
TABLE1_SHA256 = "0fabdb43cf413f6e946f6fe8b6ba49e4c54cbc475b36ed83aa8c76a0d19261ca"

#: The SystemConfig fields a build fingerprint covers, in order.
CONFIG_FIELDS = (
    "cascade",
    "slo",
    "routing",
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
        policy = "periodic" if SYSTEMS[name].dynamic else "static"
        assert system.replan == ReplanConfig(policy=policy, warm_start=False)
        assert system.autoscale is None
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

"""Tests for the experiment CLI."""

import hashlib

import pytest

from repro import cli
from repro.experiments.harness import ExperimentScale


def test_every_registered_experiment_has_description_and_runner():
    assert set(cli.EXPERIMENTS) >= {
        "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "milp", "reuse",
    }
    for name, (description, runner) in cli.EXPERIMENTS.items():
        assert isinstance(description, str) and description
        assert callable(runner)


def test_list_command(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in cli.EXPERIMENTS:
        assert name in out


#: ``repro list`` output, pinned byte-for-byte: experiment names and
#: descriptions are user-facing and stay stable however experiments are built.
LIST_OUTPUT = """\
Available experiments:
  autoscale Elastic fleets: fixed vs. reactive vs. cost-aware autoscaling on spot markets
  chaos    Fault injection: self-healing recovery vs. unmitigated faults
  contention Reload/inference contention: reload-aware vs. reload-oblivious plans
  drift    Drift adaptation: static vs. online re-planned plans
  fig1     Figure 1a/1b motivation study
  fig1c    Figure 1c FID/throughput Pareto frontier
  fig4     Figure 4 static-trace comparison
  fig5     Figure 5 Azure-like trace comparison (Cascade 1)
  fig6     Figure 6 Cascades 2 & 3 comparison
  fig7     Figure 7 discriminator ablation
  fig8     Figure 8 resource-allocation ablation
  fig9     Figure 9 SLO sensitivity
  fleet    Heterogeneous fleets: homogeneous vs. mixed at equal aggregate cost
  geo      Geo-scale serving: multi-region topologies through the shard supervisor
  milp     Section 4.5 MILP solver overhead
  reuse    Section 5 reuse study"""

#: sha256 of ``repro --help`` rendered 80 columns wide.
HELP_SHA256 = "5ae5418fbbea1ffed3dfe3d7baf5841ad73be564a791bac9e9226606f6fb7146"


def test_list_output_is_pinned(capsys):
    assert cli.list_experiments() == LIST_OUTPUT
    assert capsys.readouterr().out == LIST_OUTPUT + "\n"


def test_help_output_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = cli.build_parser().format_help()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == HELP_SHA256, text


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["fig42"])


def test_scale_from_args_fast_and_custom():
    args = cli.build_parser().parse_args(["fig5", "--fast", "--workers", "8", "--seed", "3"])
    scale = cli.scale_from_args(args)
    assert scale == ExperimentScale(dataset_size=300, trace_duration=180.0, num_workers=8, seed=3)
    args = cli.build_parser().parse_args(
        ["fig5", "--dataset-size", "500", "--duration", "90", "--workers", "4"]
    )
    scale = cli.scale_from_args(args)
    assert scale.dataset_size == 500
    assert scale.trace_duration == 90.0
    assert scale.num_workers == 4


def test_main_runs_a_cheap_experiment(capsys, monkeypatch):
    calls = {}

    def fake_runner(scale):
        calls["scale"] = scale
        return "ok"

    monkeypatch.setitem(cli.EXPERIMENTS, "reuse", ("Reuse study", fake_runner))
    assert cli.main(["reuse", "--fast"]) == 0
    assert isinstance(calls["scale"], ExperimentScale)
    assert "reuse" in capsys.readouterr().out


def test_main_all_runs_every_runner(monkeypatch, capsys):
    ran = []
    for name in list(cli.EXPERIMENTS):
        monkeypatch.setitem(
            cli.EXPERIMENTS, name, (f"{name} stub", lambda scale, n=name: ran.append(n))
        )
    assert cli.main(["all", "--fast"]) == 0
    assert sorted(ran) == sorted(cli.EXPERIMENTS)


# ------------------------------------------------------------------ grid runner
TINY_ARGS = ["--dataset-size", "60", "--duration", "10", "--workers", "2"]


def test_parse_grid_cross_product():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    grid = cli.parse_grid("cascades=sdturbo,sdxs;seeds=0,1;qps=4,8;systems=diffserve", scale)
    assert len(grid) == 8
    assert {spec.scale.seed for spec in grid} == {0, 1}
    assert all(spec.systems == ("diffserve",) for spec in grid)


def test_parse_grid_rejects_unknown_keys_and_malformed_fields():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    with pytest.raises(ValueError):
        cli.parse_grid("cascadez=sdturbo", scale)
    with pytest.raises(ValueError):
        cli.parse_grid("cascades", scale)


@pytest.mark.parametrize(
    "text, message",
    [
        ("seeds=a", "grid key 'seeds': 'a' is not an integer"),
        ("seeds=0,1.5", "grid key 'seeds': '1.5' is not an integer"),
        ("qps=abc", "grid key 'qps': 'abc' is not a number"),
        ("slos=x", "grid key 'slos': 'x' is not a number"),
        ("seeds=,", "grid key 'seeds' has no values"),
        ("qps=,,", "grid key 'qps' has no values"),
    ],
)
def test_parse_grid_number_errors_name_the_key(text, message):
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    with pytest.raises(ValueError) as info:
        cli.parse_grid(text, scale)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, key",
    [
        ("cascades=,", "cascades"),
        ("cascades=sdturbo;systems=+", "systems"),
        ("cascades=sdturbo;workloads=,", "workloads"),
    ],
)
def test_parse_grid_name_keys_without_values_are_errors(text, key):
    # Neither an empty grid (cells=0, exit 0) nor the default systems/workloads.
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    with pytest.raises(ValueError) as info:
        cli.parse_grid(text, scale)
    assert str(info.value) == f"grid key {key!r} has no values"


def test_run_command_reports_empty_grid_key_on_one_line(capsys):
    assert cli.main(["run", "--grid", "cascades=,"]) == 2
    assert capsys.readouterr().err == "error: grid key 'cascades' has no values\n"


def test_parse_grid_number_keys_skip_empty_entries():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    grid = cli.parse_grid("seeds=0,,1;qps=4,,8;slos=3,,5;systems=diffserve", scale)
    assert len(grid) == 8
    assert {spec.scale.seed for spec in grid} == {0, 1}
    assert {spec.trace.qps for spec in grid} == {4.0, 8.0}


def test_run_command_reports_bad_grid_number_on_one_line(capsys):
    assert cli.main(["run", "--grid", "seeds=a"]) == 2
    assert capsys.readouterr().err == "error: grid key 'seeds': 'a' is not an integer\n"


def test_run_command_executes_and_caches(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["run", "--grid", "cascades=sdturbo;qps=4;systems=diffserve", "--jobs", "1"] + TINY_ARGS
    assert cli.main(argv + ["--json", str(tmp_path / "a.json")]) == 0
    out = capsys.readouterr().out
    assert "cells=1 ok=1 cached=0" in out

    assert cli.main(argv + ["--json", str(tmp_path / "b.json")]) == 0
    out = capsys.readouterr().out
    assert "cells=1 ok=0 cached=1" in out
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_run_command_reports_failed_cells_with_nonzero_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["run", "--grid", "cascades=nope;qps=4;systems=diffserve", "--jobs", "1"] + TINY_ARGS
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "failed=1" in captured.out
    assert "nope" in captured.err


def test_run_command_rejects_bad_grid_spec(capsys):
    assert cli.main(["run", "--grid", "wat=1"]) == 2
    assert "unknown grid keys" in capsys.readouterr().err


# ------------------------------------------------------------- workload axis
def test_parse_grid_workloads_axis():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    grid = cli.parse_grid("cascades=sdturbo;workloads=mmpp,diurnal;systems=diffserve", scale)
    assert len(grid) == 2
    assert [spec.trace.kind for spec in grid] == ["mmpp", "diurnal"]


def test_workload_flag_overrides_grid_key_and_carries_params():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    grid = cli.parse_grid(
        "cascades=sdturbo;workloads=azure;systems=diffserve",
        scale,
        workloads="mmpp,flash-crowd",
        workload_params="burst_factor=6,dwell_burst=5",
    )
    assert [spec.trace.kind for spec in grid] == ["mmpp", "flash-crowd"]
    assert grid[0].trace.params_dict() == {"burst_factor": 6.0, "dwell_burst": 5.0}
    # The two cells hash differently (the workload is a real grid dimension).
    assert len({spec.content_hash for spec in grid}) == 2


def test_workloads_cross_with_qps():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    grid = cli.parse_grid(
        "cascades=sdturbo;workloads=static,mmpp;qps=4,8;systems=diffserve", scale
    )
    assert len(grid) == 4
    assert {(s.trace.kind, s.trace.qps) for s in grid} == {
        ("static", 4.0), ("static", 8.0), ("mmpp", 4.0), ("mmpp", 8.0),
    }


def test_parse_workload_params_rejects_malformed_input():
    with pytest.raises(ValueError):
        cli.parse_workload_params("burst_factor")
    with pytest.raises(ValueError):
        cli.parse_workload_params("burst_factor=abc")
    assert cli.parse_workload_params(None) == {}
    assert cli.parse_workload_params("a=1, b=2.5") == {"a": 1.0, "b": 2.5}


def test_run_command_accepts_workload_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = [
        "run", "--grid", "cascades=sdturbo;systems=diffserve",
        "--workload", "flash-crowd", "--workload-params", "spike_factor=2",
    ] + TINY_ARGS
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "flash-crowd" in out
    assert "cells=1 ok=1 cached=0" in out


def test_workload_params_matching_no_selected_workload_are_rejected():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    with pytest.raises(ValueError, match="apply to none"):
        cli.parse_grid(
            "cascades=sdturbo;systems=diffserve",
            scale,
            workloads="diurnal",
            workload_params="burst_factor=6",
        )


def test_parse_workload_params_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate workload param"):
        cli.parse_workload_params("burst_factor=2,burst_factor=9")
    with pytest.raises(ValueError, match="--workload-params JSON: duplicate key 'burst_factor'"):
        cli.parse_workload_params('{"burst_factor": 2, "burst_factor": 9}')


def test_parse_workload_params_accepts_json_object():
    assert cli.parse_workload_params('{"burst_factor": 6, "dwell_burst": 5}') == {
        "burst_factor": 6.0,
        "dwell_burst": 5.0,
    }


def test_parse_workload_params_rejects_malformed_json_with_one_line_error():
    with pytest.raises(ValueError, match="malformed JSON"):
        cli.parse_workload_params('{"burst_factor": }')
    with pytest.raises(ValueError, match="must be an object"):
        cli.parse_workload_params("[1, 2]")
    with pytest.raises(ValueError, match="'burst_factor' must be a number"):
        cli.parse_workload_params('{"burst_factor": "six"}')


def test_run_command_malformed_json_params_is_clean_cli_error(capsys):
    argv = ["run", "--workload", "mmpp", "--workload-params", '{"burst_factor": }']
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "JSON" in captured.err
    assert "Traceback" not in captured.err


def test_run_command_out_of_range_param_value_names_the_key(capsys):
    # burst_fraction=2 passes key validation but fails the scenario's range
    # check; it must surface as a one-line parse error, not a traceback from
    # inside a grid cell.
    argv = ["run", "--workload", "mmpp", "--workload-params", "burst_fraction=2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "burst_fraction" in captured.err
    assert "Traceback" not in captured.err


# -------------------------------------------------------------- fleet flag
def test_parse_fleet_accepts_pairs_and_json():
    assert cli.parse_fleet(None) is None
    assert cli.parse_fleet("") is None
    assert cli.parse_fleet("a100=8,l4=16") == {"a100": 8, "l4": 16}
    assert cli.parse_fleet('{"a100": 8, "l4": 16}') == {"a100": 8, "l4": 16}


def test_parse_fleet_rejects_bad_input_with_one_line_errors():
    with pytest.raises(ValueError, match="expected class=count"):
        cli.parse_fleet("a100")
    with pytest.raises(ValueError, match="'a100': count must be a positive integer"):
        cli.parse_fleet("a100=eight")
    with pytest.raises(ValueError, match="'l4': count must be a positive integer"):
        cli.parse_fleet('{"l4": 2.5}')
    with pytest.raises(ValueError, match="duplicate fleet class 'a100'"):
        cli.parse_fleet("a100=2,a100=4")
    with pytest.raises(ValueError, match="unknown device class 'b200'"):
        cli.parse_fleet("b200=4")
    with pytest.raises(ValueError, match="malformed JSON for --fleet"):
        cli.parse_fleet('{"a100": }')
    with pytest.raises(ValueError, match="--fleet JSON: duplicate key 'a100'"):
        cli.parse_fleet('{"a100": 8, "a100": 4}')
    with pytest.raises(ValueError, match="count must be >= 1"):
        cli.parse_fleet("a100=0")


def test_parse_grid_fleet_becomes_cached_dimension():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    plain = cli.parse_grid("cascades=sdturbo;systems=diffserve", scale)
    typed = cli.parse_grid(
        "cascades=sdturbo;systems=diffserve", scale, fleet="l4=4,a100=2"
    )
    assert typed[0].fleet == (("a100", 2), ("l4", 4))  # canonical (sorted) order
    assert plain[0].fleet is None
    # The fleet is a real grid dimension: the cells hash differently and the
    # label names the fleet.
    assert plain[0].content_hash != typed[0].content_hash
    assert "a100x2+l4x4" in typed[0].label


def test_run_command_accepts_fleet_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = [
        "run", "--grid", "cascades=sdturbo;qps=4;systems=diffserve",
        "--fleet", "a100=1,l4=2",
    ] + TINY_ARGS
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "a100x1+l4x2" in out
    assert "cells=1 ok=1 cached=0" in out


def test_run_command_bad_fleet_is_clean_cli_error(capsys):
    argv = ["run", "--grid", "cascades=sdturbo;systems=diffserve", "--fleet", "b200=4"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "b200" in captured.err
    assert "Traceback" not in captured.err


def test_fleet_experiment_is_registered():
    assert "fleet" in cli.EXPERIMENTS
    description, runner = cli.EXPERIMENTS["fleet"]
    assert "fleet" in description.lower() or "Heterogeneous" in description
    assert callable(runner)


# ------------------------------------------------------------- replan flags
def test_parse_grid_replan_flags_become_cached_params():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    plain = cli.parse_grid("cascades=sdturbo;systems=diffserve", scale)
    replanned = cli.parse_grid(
        "cascades=sdturbo;systems=diffserve",
        scale,
        replan_epoch=3.0,
        replan_policy="adaptive",
    )
    assert replanned[0].params_dict() == {
        "replan_epoch": 3.0,
        "replan_policy": "adaptive",
    }
    # The control plane is a real grid dimension: the cells hash differently.
    assert plain[0].content_hash != replanned[0].content_hash

    epoch_only = cli.parse_grid("cascades=sdturbo;systems=diffserve", scale, replan_epoch=2.0)
    assert epoch_only[0].params_dict() == {"replan_epoch": 2.0}


def test_replan_flags_cross_with_slo_sweep():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    grid = cli.parse_grid(
        "cascades=sdturbo;systems=diffserve;slos=3,5",
        scale,
        replan_epoch=2.0,
        replan_policy="periodic",
    )
    assert len(grid) == 2
    for spec in grid:
        params = spec.params_dict()
        assert params["replan_epoch"] == 2.0
        assert params["replan_policy"] == "periodic"
    assert {spec.params_dict()["slo"] for spec in grid} == {3.0, 5.0}


# ------------------------------------------------------------ geo/shards flags
def test_parse_shards_int_auto_and_errors():
    assert cli.parse_shards("1") == 1
    assert cli.parse_shards(" 4 ") == 4
    assert 1 <= cli.parse_shards("auto") <= 8
    assert cli.parse_shards(None) == 1  # unset flag keeps the serial default
    for bad in ("0", "-2", "two", "1.5"):
        with pytest.raises(ValueError):
            cli.parse_shards(bad)


def test_parse_grid_geo_and_shards_flags():
    scale = ExperimentScale(dataset_size=60, trace_duration=10.0, num_workers=2, seed=0)
    grid = cli.parse_grid(
        "cascades=sdturbo;qps=4;systems=diffserve", scale, geo="us-eu", shards=2
    )
    assert len(grid) == 1
    assert grid[0].geo == "us-eu"
    assert grid[0].shards == 2
    plain = cli.parse_grid("cascades=sdturbo;qps=4;systems=diffserve", scale)
    assert plain[0].geo is None and plain[0].shards == 1
    assert grid[0].cache_key != plain[0].cache_key
    with pytest.raises(ValueError):
        cli.parse_grid("cascades=sdturbo;qps=4;systems=diffserve", scale, geo="atlantis")


def test_run_command_accepts_geo_and_shards(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = [
        "run",
        "--grid", "cascades=sdturbo;qps=4;systems=diffserve",
        "--geo", "us-eu",
        "--shards", "2",
        "--jobs", "1",
    ] + TINY_ARGS
    assert cli.main(argv) == 0
    assert "cells=1 ok=1" in capsys.readouterr().out


def test_run_command_bad_geo_and_shards_are_clean_cli_errors(capsys):
    argv = ["run", "--grid", "cascades=sdturbo;qps=4;systems=diffserve"]
    assert cli.main(argv + ["--geo", "atlantis"]) == 2
    assert "geo" in capsys.readouterr().err.lower()
    assert cli.main(argv + ["--shards", "zero"]) == 2
    assert "--shards" in capsys.readouterr().err


def test_geo_experiment_is_registered():
    description, runner = cli.EXPERIMENTS["geo"]
    assert "topolog" in description.lower()
    assert callable(runner)

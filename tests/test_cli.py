"""Tests for the command-line interface."""

import pytest

from repro.cli import CLUSTERS, STRATEGIES, build_parser, main


def test_parser_has_all_figure_subcommands():
    parser = build_parser()
    for fig in ("fig2", "fig8", "fig9", "fig10", "fig11", "fig12",
                "fig13", "fig14"):
        args = parser.parse_args([fig, "--scale", "ci"])
        assert args.command == fig
        assert args.scale == "ci"


def test_parser_run_defaults():
    args = build_parser().parse_args(["run"])
    assert args.cluster == "tiny"
    assert args.strategy == "rcmp"
    assert args.jobs == 7
    assert args.failures is None
    assert args.faults is None
    assert args.mtbf is None
    assert args.fault_seed is None
    assert args.heartbeat_interval is None
    assert args.heartbeat_expiry is None


def test_parser_rejects_failures_and_faults_together():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--failures", "2",
                                   "--faults", "kill@job2"])


def test_run_command_with_fault_spec(capsys):
    assert main(["run", "--cluster", "tiny", "--jobs", "2",
                 "--faults", "transient@job2:down=30", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ChainResult" in out


def test_run_command_with_mtbf_and_heartbeat(capsys):
    assert main(["run", "--cluster", "tiny", "--jobs", "2",
                 "--mtbf", "500", "--fault-seed", "7",
                 "--heartbeat-interval", "3", "--heartbeat-expiry", "9"]) == 0
    assert "ChainResult" in capsys.readouterr().out


def test_run_command_rejects_mtbf_with_legacy_failures():
    with pytest.raises(SystemExit):
        main(["run", "--jobs", "2", "--failures", "2", "--mtbf", "100"])


def test_parser_rejects_bad_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--scale", "huge"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "fig2" in out


def test_fig2_command_prints_table(capsys):
    assert main(["fig2", "--scale", "ci"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out
    assert "STIC" in out and "SUG@R" in out


def test_run_command_executes_chain(capsys):
    assert main(["run", "--cluster", "tiny", "--strategy", "rcmp",
                 "--jobs", "2", "--failures", "2"]) == 0
    out = capsys.readouterr().out
    assert "ChainResult" in out
    assert "recompute" in out or "rerun" in out


def test_run_command_every_strategy(capsys):
    for name in STRATEGIES:
        assert main(["run", "--cluster", "tiny", "--strategy", name,
                     "--jobs", "2"]) == 0
        assert "ChainResult" in capsys.readouterr().out


def test_cluster_registry_instantiates():
    for factory in CLUSTERS.values():
        spec = factory()
        spec.validate()


def test_run_command_writes_chrome_trace(tmp_path, capsys):
    import json

    path = str(tmp_path / "run.json")
    assert main(["run", "--cluster", "tiny", "--strategy", "rcmp",
                 "--jobs", "2", "--failures", "2", "--trace", path]) == 0
    out = capsys.readouterr().out
    assert f"trace written to {path}" in out
    with open(path) as fh:
        data = json.load(fh)
    assert data["schema"]["version"] >= 1
    assert data["traceEvents"], "trace must carry events"
    assert any(e.get("cat") == "job" for e in data["traceEvents"])
    assert any(name.endswith(".disk") for name in data["utilization"])


def test_analyze_command_reports_utilization(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    assert main(["run", "--cluster", "tiny", "--jobs", "2",
                 "--trace", path]) == 0
    capsys.readouterr()
    assert main(["analyze", path, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "per-link utilization" in out
    assert "hot-spot concentration" in out


def test_figure_command_accepts_trace(tmp_path, capsys):
    import json

    path = str(tmp_path / "fig.json")
    assert main(["fig8", "--scale", "ci", "--trace", path]) == 0
    with open(path) as fh:
        data = json.load(fh)
    # every simulated run binds its own trace process
    pids = {e["pid"] for e in data["traceEvents"]}
    assert len(pids) > 1


def test_parser_exec_defaults():
    args = build_parser().parse_args(["exec"])
    assert args.backend == "process"
    assert args.nodes == 4 and args.jobs == 3 and args.partitions == 4
    assert args.split_ratio is None and args.strategy == "rcmp"
    assert args.hybrid_interval == 2 and args.hybrid_replication == 2
    assert args.hybrid_reclaim is False
    assert args.faults is None and args.workdir is None


def test_parser_exec_split_ratio_auto():
    parser = build_parser()
    assert parser.parse_args(["exec", "--split-ratio", "auto"]) \
        .split_ratio is None
    assert parser.parse_args(["exec", "--split-ratio", "3"]) \
        .split_ratio == 3
    with pytest.raises(SystemExit):
        parser.parse_args(["exec", "--split-ratio", "half"])


def test_parser_exec_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["exec", "--backend", "threads"])


@pytest.mark.parametrize("argv", [
    ["exec", "--shared-memory"], ["exec", "--fetch-parallelism", "4"],
    ["serve", "--shared-memory"],
    ["exec", "--task-slots", "2"], ["serve", "--task-slots", "2"],
    ["exec", "--speculation"], ["serve", "--speculation"],
    ["submit", "--speculation"]])
def test_deleted_data_plane_flags_are_refused(argv):
    """The shared-memory handoff and the fetcher pool are gone with
    their flags (EXPERIMENTS.md "Data-plane options, judged"), and so
    are task slots and the speculation switch (speculation is always on,
    "Speculation and task slots, judged"): argparse refuses them instead
    of a run silently ignoring them."""
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args(argv)
    assert refused.value.code == 2


def test_exec_inproc_recovers_and_prints_checksum(capsys):
    assert main(["exec", "--backend", "inproc", "--nodes", "4",
                 "--jobs", "3", "--records", "32", "--block", "8",
                 "--split-ratio", "2", "--faults", "kill@job2"]) == 0
    out = capsys.readouterr().out
    assert "backend=inproc" in out
    assert "recompute" in out
    assert "deaths: 1" in out and "checksum:" in out


def test_exec_inproc_rejects_time_anchored_faults():
    with pytest.raises(SystemExit):
        main(["exec", "--backend", "inproc", "--faults", "kill@t30"])
    with pytest.raises(SystemExit):
        main(["exec", "--backend", "inproc", "--strategy", "optimistic"])
    with pytest.raises(SystemExit):
        main(["exec", "--backend", "inproc", "--faults", "mtbf=600:kill"])


def test_exec_backends_agree_byte_for_byte(tmp_path, capsys):
    """The CLI-level differential: both backends print the same checksum
    for the same chain, and the process trace feeds `analyze`."""
    import re

    path = str(tmp_path / "exec.json")
    common = ["--nodes", "2", "--jobs", "2", "--partitions", "2",
              "--records", "16", "--block", "8"]
    assert main(["exec", "--backend", "inproc"] + common) == 0
    inproc_out = capsys.readouterr().out
    assert main(["exec", "--backend", "process", "--trace", path]
                + common) == 0
    process_out = capsys.readouterr().out

    def checksum(text):
        return re.search(r"checksum: (\w+)", text).group(1)

    assert checksum(inproc_out) == checksum(process_out)
    assert main(["analyze", path]) == 0  # runtime traces are analyzable


def test_untraced_run_leaves_no_ambient_tracer():
    from repro.obs import NULL_TRACER, get_ambient_tracer

    assert main(["run", "--cluster", "tiny", "--jobs", "2"]) == 0
    assert get_ambient_tracer() is NULL_TRACER

"""CLI plumbing: every common flag reaches every runner a subcommand builds,
and every artefact subcommand prints its entry's committed text.

The runner class is replaced by a recording subclass and the paper-sized
workloads by tiny ones, so each subcommand really runs — and every runner
it constructs (the ones an artefact entry derives included) is compared
with the one :class:`RunnerSettings` the flags describe.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.quantum import AdaptiveQuantumPolicy
from repro.engine.units import MICROSECOND, MILLISECOND
from repro.faults.plan import load_plan
from repro.harness import artefacts, cli
from repro.harness.artefacts import ARTEFACTS
from repro.harness.configs import ScaleoutConfig
from repro.harness.parallel import ParallelRunner
from repro.harness.settings import RunnerSettings
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig, run_slug
from repro.workloads import EpWorkload, IsWorkload, PhaseWorkload

US = MICROSECOND
RECOVERY = TransportConfig(recovery=RecoveryConfig())
OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "out"


def tiny_scaleouts() -> list[ScaleoutConfig]:
    return [
        ScaleoutConfig(
            name=case,
            workload_factory=lambda: PhaseWorkload(phases=3, compute_ops=2e6),
            size=4,
            fixed_quanta=(100 * US,),
            dyn_label="dyn",
            dyn_factory=lambda: AdaptiveQuantumPolicy(US, 100 * US),
        )
        for case in ("EP", "IS", "NAMD")
    ]


def shrink_paper_workloads(monkeypatch) -> None:
    """Tiny stand-ins for the workloads the artefact entries run."""
    monkeypatch.setattr(artefacts, "scaleout_configs", tiny_scaleouts)
    monkeypatch.setattr(
        artefacts,
        "nas_suite",
        lambda: [
            EpWorkload(total_ops=2e7, chunks=4),
            IsWorkload(total_keys=2**15, iterations=2, ops_per_key=16),
        ],
    )
    monkeypatch.setattr(
        artefacts, "namd_workload", lambda: PhaseWorkload(phases=3, compute_ops=2e6)
    )
    monkeypatch.setattr(
        artefacts,
        "IsWorkload",
        lambda: IsWorkload(total_keys=2**15, iterations=2, ops_per_key=16),
    )
    monkeypatch.setattr(artefacts, "EpWorkload", lambda: EpWorkload(total_ops=2e7, chunks=4))


@pytest.fixture
def built(monkeypatch):
    """Runners the CLI constructs, in order; paper workloads shrunk."""
    runners: list[ParallelRunner] = []

    class RecordingRunner(ParallelRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    monkeypatch.setattr(cli, "ParallelRunner", RecordingRunner)
    shrink_paper_workloads(monkeypatch)
    return runners


#: subcommand -> (its own arguments, the settings fields it deliberately
#: varies across the runners it builds, in construction order).
SUBCOMMANDS = {
    "fig6": (["--sizes", "2"], [{}]),
    "fig7": (["--sizes", "2"], [{}]),
    "fig8": ([], [{}]),
    "sec6": (["--case", "EP"], [{}]),
    "fig9": (
        ["--case", "EP"],
        [{}, {"record_traffic": True, "timeline_bucket": MILLISECOND // 2}],
    ),
    "sweep": ([], [{}]),
    "transport": (
        [],
        [
            {},
            {"transport": RECOVERY},
            {"transport": dataclasses.replace(RECOVERY, window_bytes=65_536)},
            {"transport": dataclasses.replace(RECOVERY, window_bytes=16_384)},
        ],
    ),
    "service": (["--size", "4", "--requests", "40"], [{}]),
}


def common_flags(tmp_path) -> tuple[list[str], RunnerSettings]:
    """Every common flag at a non-default value, and what they describe."""
    checkpoints = str(tmp_path / "ckpt")
    flags = [
        "--seed", "7",
        "-j", "1",
        "--no-cache",
        "--cache-dir", str(tmp_path / "cache"),
        "--check",
        "--faults", "partitioned",
        "--shards", "2",
        "--backend", "python",
        "--trace", str(tmp_path / "traces"),
        "--trace-format", "jsonl",
        "--checkpoint-dir", checkpoints,
        "--resume",
        "--run-timeout", "600",
        "--retries", "1",
    ]  # fmt: skip
    expected = RunnerSettings(
        seed=7,
        check=True,
        faults=load_plan("partitioned"),
        transport=RECOVERY,  # a plan that can lose frames switches recovery on
        trace=TraceConfig(),
        shards=2,
        backend="python",
        checkpoint_dir=checkpoints,
        resume=True,
        run_timeout=600.0,
        stall_timeout=600.0,  # --run-timeout doubles as the stall bound
        retries=1,
    )
    return flags, expected


@pytest.mark.parametrize("placement", ["before", "after"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_common_flag_reaches_every_runner(
    command, placement, built, tmp_path, capsys
):
    own, varied = SUBCOMMANDS[command]
    flags, expected = common_flags(tmp_path)
    argv = [*flags, command, *own] if placement == "before" else [command, *own, *flags]
    assert cli.main(argv) == 0
    assert len(built) == len(varied)
    for runner, overrides in zip(built, varied):
        assert runner.settings == dataclasses.replace(expected, **overrides)
        assert runner.cache is None  # --no-cache (and traced runs never cache)
        assert runner.max_workers == 1 and runner.progress  # derived ones too
    # Every runner reports its traced runs on one list, which is exported.
    traced = built[0].traced_runs
    assert all(runner.traced_runs is traced for runner in built)
    slugs = {run_slug(r.workload_name, r.size, r.policy_label) for r in traced}
    assert slugs
    assert {path.stem for path in (tmp_path / "traces").glob("*.jsonl")} == slugs


def test_defaults_are_the_dataclass_defaults(built):
    assert cli.main(["transport", "-j", "1", "--no-cache"]) == 0
    assert built[0].settings == RunnerSettings()
    assert built[1].settings == RunnerSettings()  # eager: transport None
    assert built[2].settings == RunnerSettings(
        transport=TransportConfig(window_bytes=64 * 1024)
    )
    assert built[3].settings == RunnerSettings(
        transport=TransportConfig(window_bytes=16 * 1024)
    )
    assert all(runner.cache is None for runner in built)


def test_cache_flags_reach_the_cache(built, tmp_path):
    root = tmp_path / "cache"
    assert cli.main(["transport", "-j", "1", "--cache-dir", str(root)]) == 0
    assert [runner.cache.root for runner in built] == [root] * 4
    assert list(root.glob("*.json"))


def test_subcommand_prints_its_committed_artefact(capsys):
    """One list feeds the benchmark and the CLI: the same bytes."""
    assert cli.main(["transport", "-j", "1", "--no-cache"]) == 0
    assert capsys.readouterr().out == (OUT / "ablation_transport.txt").read_text()


def test_one_entry_per_committed_artefact():
    assert sorted(entry.name for entry in ARTEFACTS) == sorted(
        path.stem for path in OUT.glob("*.txt")
    )
    for entry in ARTEFACTS:
        names = [claim.name for claim in entry.claims]
        assert len(names) == len(set(names)), entry.name
        assert all(claim.quote.strip() for claim in entry.claims), entry.name
    # The shape assertions the per-figure benchmark files used to make.
    assert sum(len(entry.claims) for entry in ARTEFACTS) == 92


def test_artefact_subcommands_come_from_the_list():
    commands = {entry.command for entry in ARTEFACTS} - {None}
    assert commands == set(cli._ARTEFACT_COMMANDS)


class TestBackendIsHonoured:
    """The three subcommands that used to drop ``--backend``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["transport", "--backend", "native", "-j", "1", "--no-cache"],
            ["fig9", "--case", "EP", "--backend", "native", "-j", "1"],
            ["sampling", "--backend", "native"],
        ],
        ids=["transport", "fig9", "sampling"],
    )
    def test_native_request_without_native_core_is_an_error(
        self, argv, built, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="backend='native' requested but disabled"):
            cli.main(argv)


class TestUsageErrors:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint-dir"):
            cli.main(["fig7", "--resume"])

    def test_bad_fault_plan(self):
        with pytest.raises(SystemExit, match="neither a preset"):
            cli.main(["--faults", "no-such-plan", "fig7"])

    def test_sampling_refuses_tracing(self):
        with pytest.raises(SystemExit, match="not supported for 'sampling'"):
            cli.main(["sampling", "--trace-diff"])

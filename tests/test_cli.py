"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import ALGORITHMS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_algorithms(self):
        assert set(ALGORITHMS) == {"mrt", "ludwig", "turek", "sequential", "gang"}


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--family", "uniform", "--tasks", "4", "--procs", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_procs"] == 4
        assert len(payload["tasks"]) == 4

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(
            ["generate", "--family", "mixed", "--tasks", "5", "--procs", "8", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["tasks"]) == 5

    def test_generate_ocean(self, capsys):
        assert main(["generate", "--family", "ocean", "--procs", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "ocean"

    def test_generate_arrival_trace(self, capsys):
        assert main(
            ["generate", "--family", "uniform", "--tasks", "6", "--procs", "4",
             "--arrivals", "poisson"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(task.get("release", 0.0) > 0 for task in payload["tasks"])

    def test_generate_arrivals_rejects_ocean(self):
        with pytest.raises(SystemExit):
            main(["generate", "--family", "ocean", "--arrivals", "poisson"])


class TestReplay:
    def test_replay_generated_trace(self, capsys):
        code = main(
            ["replay", "--pattern", "poisson", "--family", "uniform",
             "--tasks", "8", "--procs", "4", "--seed", "0",
             "--quantum", "2", "--validate", "--compare-offline", "--json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch   0" in out and "validated:" in out
        summary = json.loads(
            next(line for line in out.splitlines() if line.startswith("REPLAY ")) [len("REPLAY "):]
        )
        assert summary["validated"] is True
        assert summary["num_tasks"] == 8
        assert summary["competitive_ratio"] > 0
        assert len(summary["epochs"]) == summary["num_epochs"]

    def test_replay_from_trace_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["generate", "--family", "uniform", "--tasks", "5", "--procs", "4",
             "--arrivals", "burst", "--output", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["replay", "--trace", str(out), "--validate"]) == 0
        assert "replay:" in capsys.readouterr().out

    def test_replay_rate_requires_poisson(self):
        with pytest.raises(SystemExit):
            main(["replay", "--pattern", "burst", "--rate", "2.0"])

    def test_replay_runs_the_barrier_kernel(self, capsys):
        code = main(
            ["replay", "--pattern", "pareto", "--family", "uniform",
             "--tasks", "8", "--procs", "4", "--seed", "1",
             "--validate", "--json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(
            next(line for line in out.splitlines() if line.startswith("REPLAY "))
            [len("REPLAY "):]
        )
        assert summary["kernel"] == "barrier" and summary["validated"] is True

    def test_replay_has_no_kernel_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--kernel", "barrier"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("quantum", ["nan", "inf"])
    def test_replay_non_finite_quantum_is_one_line(self, capsys, quantum):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--tasks", "4", "--procs", "2", "--quantum", quantum])
        (line,) = str(excinfo.value.code).splitlines()
        assert line == f"quantum must be finite (or None), got {quantum}"
        assert capsys.readouterr().out == ""

    def test_replay_negative_release_in_trace_file_rejected(self, tmp_path):
        from repro.model.instance import Instance

        payload = Instance.from_profiles([[4.0, 2.0]]).as_dict()
        payload["tasks"][0]["release"] = -1.0
        trace = tmp_path / "bad-trace.json"
        trace.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="release"):
            main(["replay", "--trace", str(trace)])


class TestSchedule:
    @pytest.mark.parametrize("algorithm", ["mrt", "sequential", "gang"])
    def test_schedule_generated_instance(self, capsys, algorithm):
        code = main(
            [
                "schedule",
                "--algorithm",
                algorithm,
                "--family",
                "uniform",
                "--tasks",
                "6",
                "--procs",
                "4",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan=" in out and "ratio<=" in out

    def test_schedule_from_file_with_gantt(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        main(["generate", "--family", "uniform", "--tasks", "4", "--procs", "4", "--output", str(out)])
        capsys.readouterr()
        code = main(["schedule", "--algorithm", "mrt", "--input", str(out), "--gantt"])
        assert code == 0
        text = capsys.readouterr().out
        assert "P  0 |" in text

    def test_unknown_algorithm_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--algorithm", "nope"])


class TestCompareAndMstar:
    def test_compare_small(self, capsys):
        code = main(
            [
                "compare",
                "--tasks",
                "6",
                "--procs",
                "4",
                "--repetitions",
                "1",
                "--families",
                "uniform",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrt-sqrt3" in out and "mean ratio" in out

    def test_mstar(self, capsys):
        assert main(["mstar", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "m*" in out
        assert "anchor" in out


class TestServe:
    def test_serve_round_trip_and_clean_shutdown(self, tmp_path):
        """Start the server on an ephemeral port, do one request, shut down."""
        from repro.service import ServiceClient
        from repro.workloads.generators import make_workload

        ready = tmp_path / "ready"
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(
                    [
                        "serve",
                        "--port",
                        "0",
                        "--allow-shutdown",
                        "--ready-file",
                        str(ready),
                        "--workers",
                        "2",
                    ]
                )
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert ready.exists(), "server never wrote the ready file"
        host, port = ready.read_text().split()
        client = ServiceClient(f"http://{host}:{port}")
        assert client.healthz()["status"] == "ok"
        instance = make_workload("uniform", 4, 4, seed=1)
        response = client.schedule(instance)
        assert response["result"]["makespan"] > 0
        assert client.schedule(instance)["cache_hit"] is True
        client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "serve did not exit after /shutdown"
        assert codes == [0]


@pytest.mark.parametrize("shards", ["1", "2"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-pending", "0", "max_pending must be >= 1"),
        ("--sample-interval", "-1", "sample interval must be positive"),
        ("--cache-capacity", "0", "cache capacity must be >= 1"),
        ("--cache-ttl", "-1", "ttl must be positive"),
        ("--workers", "-2", "workers must be >= 1"),
    ],
)
def test_serve_rejects_bad_numbers_before_binding(
    tmp_path, capsys, shards, flag, value, message
):
    """One line and exit status 2, checked before any socket or shard."""
    ready = tmp_path / "ready"
    code = main(
        ["serve", "--port", "0", "--shards", shards, "--ready-file", str(ready),
         flag, value]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro serve: ") and message in line
    assert not ready.exists()


class TestServeCluster:
    def test_sharded_serve_round_trip_and_clean_shutdown(self, tmp_path):
        """Boot `serve --shards 2`, replay an instance through the router."""
        from repro.service import ServiceClient
        from repro.workloads.generators import make_workload

        ready = tmp_path / "ready"
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(
                    [
                        "serve",
                        "--port",
                        "0",
                        "--shards",
                        "2",
                        "--shard-backend",
                        "thread",
                        "--workers",
                        "2",
                        "--allow-shutdown",
                        "--ready-file",
                        str(ready),
                    ]
                )
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert ready.exists(), "cluster never wrote the ready file"
        host, port = ready.read_text().split()
        client = ServiceClient(f"http://{host}:{port}")
        health = client.healthz()
        assert health["status"] == "ok" and health["shards"] == 2
        instance = make_workload("uniform", 4, 4, seed=1)
        response = client.schedule(instance)
        assert response["result"]["makespan"] > 0
        assert client.schedule(instance)["cache_hit"] is True
        assert client.metrics()["cluster"]["shards"] == 2
        client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "serve did not exit after /shutdown"
        assert codes == [0]

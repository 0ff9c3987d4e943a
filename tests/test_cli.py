"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import karate_club
from repro.graph.io import load_npz, read_edge_list, write_edge_list


@pytest.fixture
def karate_file(tmp_path):
    p = tmp_path / "karate.txt"
    write_edge_list(karate_club(), p)
    return str(p)


class TestAnalyze:
    def test_basic(self, karate_file, capsys):
        assert main(["analyze", karate_file]) == 0
        out = capsys.readouterr().out
        assert "n=34" in out
        assert "clustering coeff" in out

    def test_with_paths(self, karate_file, capsys):
        assert main(["analyze", karate_file, "--paths"]) == 0
        assert "effective diameter" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/graph.txt"]) == 1
        assert "error" in capsys.readouterr().err


class TestCluster:
    @pytest.mark.parametrize("algo", ["pla", "pma", "cnm"])
    def test_algorithms(self, karate_file, capsys, algo):
        assert main(["cluster", karate_file, "-a", algo]) == 0
        out = capsys.readouterr().out
        assert "Q = 0." in out

    def test_label_output(self, karate_file, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        assert main(
            ["cluster", karate_file, "-a", "pma", "-o", str(out_file)]
        ) == 0
        rows = out_file.read_text().strip().splitlines()
        assert len(rows) == 34


class TestPartition:
    def test_kmetis(self, karate_file, capsys):
        assert main(["partition", karate_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "edge cut" in out
        assert "balance" in out

    def test_partition_output(self, karate_file, tmp_path):
        out_file = tmp_path / "parts.txt"
        assert main(
            ["partition", karate_file, "-k", "2", "-o", str(out_file)]
        ) == 0
        parts = np.loadtxt(out_file, dtype=int)
        assert parts.shape[0] == 34
        assert set(parts.tolist()) == {0, 1}


class TestBackendFlags:
    def test_cluster_thread_backend(self, karate_file, capsys):
        assert main(
            ["cluster", karate_file, "-a", "pla",
             "--backend", "thread", "--workers", "2"]
        ) == 0
        assert "Q = 0." in capsys.readouterr().out

    def test_cluster_profile_output(self, karate_file, tmp_path, capsys):
        prof = tmp_path / "cluster.json"
        assert main(
            ["cluster", karate_file, "-a", "pma", "--profile", str(prof)]
        ) == 0
        doc = json.loads(prof.read_text())
        assert doc["command"] == "cluster"
        assert doc["trace"]["name"] == "trace"
        assert any(c["name"] == "pma" for c in doc["trace"]["children"])
        assert "pool" in doc and "cost_model" in doc

    def test_analyze_profile_output(self, karate_file, tmp_path):
        prof = tmp_path / "analyze.json"
        assert main(["analyze", karate_file, "--profile", str(prof)]) == 0
        doc = json.loads(prof.read_text())
        assert doc["command"] == "analyze"
        assert doc["elapsed_seconds"] > 0

    def test_partition_profile_output(self, karate_file, tmp_path):
        prof = tmp_path / "partition.json"
        assert main(
            ["partition", karate_file, "-k", "2", "--profile", str(prof)]
        ) == 0
        doc = json.loads(prof.read_text())
        assert doc["command"] == "partition"
        names = json.dumps(doc["trace"])
        assert "coarsen" in names


class TestOneRunPath:
    """``analyze``/``cluster``/``partition``/``stream`` run through
    ``repro.obs.run`` and write its document under ``--profile``."""

    PROFILE_KEYS = {
        "command", "algorithm", "trace", "cost_model", "pool", "backend",
        "n_workers", "elapsed_seconds",
    }

    def test_stream_profile_output(self, karate_file, tmp_path, capsys):
        prof = tmp_path / "stream.json"
        assert main(["stream", karate_file, "--profile", str(prof)]) == 0
        doc = json.loads(prof.read_text())
        assert self.PROFILE_KEYS <= set(doc)
        assert doc["command"] == "stream"
        assert [c["name"] for c in doc["trace"]["children"]] == ["stream"]
        assert f"profile written to {prof}" in capsys.readouterr().out

    def test_spectral_partition_profile_output(self, karate_file, tmp_path):
        prof = tmp_path / "partition.json"
        assert main(
            ["partition", karate_file, "-k", "2", "-m", "spectral-lan",
             "--profile", str(prof)]
        ) == 0
        doc = json.loads(prof.read_text())
        assert self.PROFILE_KEYS <= set(doc)
        assert doc["command"] == "partition"
        assert doc["algorithm"] == "spectral_kway"
        assert doc["backend"] == "serial" and doc["n_workers"] == 1

    @pytest.mark.parametrize("algo, line", [
        ("pla", "pLA: 3 clusters, Q = 0.3755"),
        ("pma", "pMA: 3 clusters, Q = 0.3807"),
        ("pbd", "pBD: 5 clusters, Q = 0.4013"),
        ("gn", "GN: 5 clusters, Q = 0.4013"),
        ("cnm", "CNM: 3 clusters, Q = 0.3807"),
    ])
    def test_cluster_q_lines(self, karate_file, capsys, algo, line):
        assert main(["cluster", karate_file, "-a", algo]) == 0
        assert capsys.readouterr().out.startswith(f"{line}  [")

    @pytest.mark.parametrize("algo", ["pma", "gn", "cnm"])
    def test_cluster_passes_only_flags_the_algorithm_takes(
        self, karate_file, algo
    ):
        # pma/cnm take neither flag and gn no seed: passing one raises
        assert main(
            ["cluster", karate_file, "-a", algo, "--seed", "3",
             "--patience", "2"]
        ) == 0


class TestProfile:
    def test_profile_file_input(self, karate_file, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(
            ["profile", karate_file,
             "--algorithms", "closeness,connected_components",
             "-o", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["graph"]["n_vertices"] == 34
        assert set(doc["runs"]) == {"closeness", "connected_components"}
        close = doc["runs"]["closeness"]
        assert close["trace"]["name"] == "trace"
        flat = json.dumps(close["trace"])
        for span_name in ("msbfs", "level", "map_batches", "batch"):
            assert span_name in flat
        text = capsys.readouterr().out
        assert "closeness" in text

    def test_profile_rmat_backend(self, tmp_path):
        out = tmp_path / "profile.json"
        assert main(
            ["profile", "--rmat-scale", "6", "--seed", "0",
             "--algorithms", "betweenness,pbd",
             "--backend", "thread", "--workers", "2",
             "-o", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["backend"] == "thread" and doc["n_workers"] == 2
        bet = doc["runs"]["betweenness"]
        flat = json.dumps(bet["trace"])
        for span_name in ("brandes", "forward_level", "backward_level"):
            assert span_name in flat
        assert bet["pool"]["batch_calls"] >= 1
        assert json.dumps(doc["runs"]["pbd"]["trace"]).count("brandes") >= 1

    def test_profile_unknown_algorithm(self, karate_file, capsys):
        assert main(
            ["profile", karate_file, "--algorithms", "bogus"]
        ) != 0
        assert "unknown algorithm" in capsys.readouterr().err

    def test_profile_needs_input(self, capsys):
        assert main(["profile"]) != 0
        assert capsys.readouterr().err


class TestGenerateConvert:
    def test_generate_rmat(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(
            ["generate", "rmat", "--scale", "7", "-o", str(out)]
        ) == 0
        g = read_edge_list(out)
        assert g.n_vertices <= 128

    def test_generate_planted_npz(self, tmp_path):
        out = tmp_path / "g.npz"
        assert main(
            ["generate", "planted", "-n", "80", "--blocks", "4",
             "-o", str(out)]
        ) == 0
        g = load_npz(out)
        assert g.n_vertices == 80

    def test_convert_to_metis(self, karate_file, tmp_path):
        out = tmp_path / "karate.graph"
        assert main(
            ["convert", karate_file, str(out), "--to", "metis"]
        ) == 0
        from repro.graph.io import read_metis

        g = read_metis(out)
        assert g.n_edges == 78

    def test_roundtrip_via_npz(self, karate_file, tmp_path):
        npz = tmp_path / "k.npz"
        back = tmp_path / "k2.txt"
        assert main(["convert", karate_file, str(npz), "--to", "npz"]) == 0
        assert main(["convert", str(npz), str(back), "--to", "edgelist"]) == 0
        assert read_edge_list(back).n_edges == 78


class TestStream:
    def test_crawl_and_save_events(self, karate_file, tmp_path, capsys):
        events_path = tmp_path / "karate.events"
        out = tmp_path / "stream.json"
        assert main(
            ["stream", karate_file, "--policy", "bfs", "--batch-size", "8",
             "--save-events", str(events_path), "-o", str(out)]
        ) == 0
        captured = capsys.readouterr().out
        assert "batch" in captured
        doc = json.loads(out.read_text())
        assert doc["n_vertices"] == 34
        assert doc["batches"]
        assert doc["batches"][-1]["n_edges"] == 78
        assert all("checksum" in b for b in doc["batches"])
        assert events_path.exists()

    def test_replay_events_file(self, karate_file, tmp_path, capsys):
        events_path = tmp_path / "karate.events"
        assert main(
            ["stream", karate_file, "--save-events", str(events_path)]
        ) == 0
        capsys.readouterr()
        assert main(["stream", str(events_path)]) == 0
        assert "78" in capsys.readouterr().out

    def test_check_stream_green(self, tmp_path, capsys):
        assert main(
            ["check", "--stream", "--graphs", "8",
             "--artifacts", str(tmp_path)]
        ) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_stream_planted_fault_caught(self, tmp_path, capsys):
        assert main(
            ["check", "--stream", "--graphs", "6", "--fault",
             "cc_skip_union", "--artifacts", str(tmp_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "cc_skip_union" in out or "components" in out
        assert list(tmp_path.glob("*.events"))

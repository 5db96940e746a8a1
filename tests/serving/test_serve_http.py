"""Tests for the ``repro serve`` front end and the studies listing.

The service layer is exercised directly (submission planning, progress
accounting, result downloads) and once through a real threaded HTTP
server — POST a spec, drain with a worker, poll progress, download the
rows — mirroring what the CI serving-smoke job does across processes.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.study import ExperimentSpec, Study
from repro.serving import StudyService, make_server, run_worker


def spec(**overrides):
    defaults = dict(
        variant="sr",
        protocol="stable-ranking",
        n_values=(8,),
        seeds=2,
        max_interactions_factor=2000.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def normalized(rows):
    out = []
    for row in rows:
        row = dict(row)
        row["study"] = ""
        out.append(row)
    out.sort(key=lambda row: (row["variant"], row["n"], row["seed_index"]))
    return out


class TestStudyService:
    def test_submit_plans_and_reports_progress(self, tmp_path):
        service = StudyService(tmp_path)
        summary = service.submit({"name": "s", "specs": [spec().as_dict()]})
        assert summary["total"] == 2
        assert summary["done"] == 0
        assert summary["enqueued_jobs"] == 2
        assert summary["queue"]["pending"] == 2
        assert not summary["complete"]
        # Re-submission is idempotent; extension enqueues only new cells.
        again = service.submit({"name": "s", "specs": [spec().as_dict()]})
        assert again["enqueued_jobs"] == 0
        wider = service.submit(
            {"name": "s", "specs": [spec(seeds=3).as_dict()]}
        )
        assert wider["enqueued_jobs"] == 1
        assert wider["total"] == 3

    def test_drained_study_serves_serial_identical_rows(self, tmp_path):
        service = StudyService(tmp_path / "served")
        summary = service.submit({"name": "s", "specs": [spec().as_dict()]})
        run_worker(summary["directory"], lease_timeout=5.0)
        progress = service.progress(summary["study"])
        assert progress["complete"]
        assert progress["by_engine"] == {"array": 2}
        serial = Study(spec(), name="ref", store=tmp_path / "ref").run()
        assert normalized(service.rows(summary["study"])) == normalized(
            row.as_dict() for row in serial.rows
        )
        csv_text = service.rows_csv(summary["study"])
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("study,variant,protocol,engine,n")
        assert len(lines) == 3

    def test_unknown_study_and_bad_submission_raise(self, tmp_path):
        service = StudyService(tmp_path)
        with pytest.raises(ExperimentError, match="unknown study"):
            service.progress("nope-feedc0ffee12")
        with pytest.raises(ExperimentError, match="submission"):
            service.submit({"name": "x"})

    def test_studies_lists_every_store_directory(self, tmp_path):
        service = StudyService(tmp_path)
        service.submit({"name": "a", "specs": [spec().as_dict()]})
        service.submit(
            {"name": "b", "specs": [spec(random_state=1).as_dict()]}
        )
        names = {summary["name"] for summary in service.studies()}
        assert names == {"a", "b"}


class TestHTTPEndToEnd:
    @pytest.fixture()
    def server(self, tmp_path):
        httpd, service = make_server(tmp_path / "served", port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        yield base, tmp_path
        httpd.shutdown()
        httpd.server_close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read()

    def _post(self, url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())

    def test_submit_drain_progress_download(self, server):
        base, tmp_path = server
        status, summary = self._post(
            f"{base}/studies", {"name": "s", "specs": [spec().as_dict()]}
        )
        assert status == 201
        study_id = summary["study"]

        status, body = self._get(f"{base}/studies/{study_id}")
        assert status == 200
        assert json.loads(body)["done"] == 0

        run_worker(summary["directory"], lease_timeout=5.0)

        # The watch long-poll returns as soon as progress moved.
        status, body = self._get(f"{base}/studies/{study_id}?watch=10")
        progress = json.loads(body)
        assert progress["complete"] and progress["done"] == 2

        status, body = self._get(f"{base}/studies/{study_id}/rows")
        downloaded = json.loads(body)["rows"]
        serial = Study(spec(), name="ref", store=tmp_path / "ref").run()
        assert normalized(downloaded) == normalized(
            row.as_dict() for row in serial.rows
        )

        status, body = self._get(f"{base}/studies/{study_id}/rows.csv")
        assert status == 200
        assert len(body.decode().strip().splitlines()) == 3

        status, body = self._get(f"{base}/studies")
        assert json.loads(body)[0]["study"] == study_id

    def test_errors_are_json(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{base}/studies/nope-feedc0ffee12")
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read())
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base}/studies", {"name": "x"})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{base}/nonsense")
        assert excinfo.value.code == 404


class TestHTTPInputBounds:
    """Bad or oversized client input gets a prompt 4xx, never a 500 or a
    handler thread held open."""

    @pytest.fixture()
    def served(self, tmp_path):
        httpd, service = make_server(tmp_path / "served", port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd.server_address[1], service
        httpd.shutdown()
        httpd.server_close()

    def _status(self, url):
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.status
        except urllib.error.HTTPError as error:
            assert "error" in json.loads(error.read())
            return error.code

    def test_watch_rejects_non_finite_and_clamps(self, served):
        port, service = served
        study_id = service.submit(
            {"name": "s", "specs": [spec().as_dict()]}
        )["study"]
        timeouts = []
        real_watch = service.watch

        def spy(study, timeout):
            timeouts.append(timeout)
            return real_watch(study, timeout=min(timeout, 0.0))

        service.watch = spy
        base = f"http://127.0.0.1:{port}/studies/{study_id}?watch="
        expected = {"abc": 400, "nan": 400, "inf": 400, "-5": 200, "1e9": 200}
        for value, status in expected.items():
            started = time.monotonic()
            assert self._status(base + value) == status, value
            assert time.monotonic() - started < 30, value
        # Only the two finite values reach the service, clamped to
        # [0, MAX_WATCH_SECONDS] — the default long-poll of 25 s.
        assert timeouts == [0.0, 25.0]

    def _raw_post(self, port, length):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                f"POST /studies HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            sock.settimeout(1.0)
            return sock.recv(4096).decode()

    def test_negative_content_length_is_rejected_unread(self, served):
        port, _ = served
        assert self._raw_post(port, -1).startswith("HTTP/1.0 400")

    def test_oversized_body_is_rejected_unread(self, served):
        port, _ = served
        assert self._raw_post(port, 2 << 20).startswith("HTTP/1.0 413")


class TestStudyIdBounds:
    """A study id names one study directly under the serve root; nothing
    else — the root itself, its parent, or a path with extra segments —
    is served."""

    def _raw_get(self, port, path):
        # A raw request line: clients may normalize "." and ".." away.
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Connection: close\r\n\r\n".encode()
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    def test_ids_outside_the_root_and_extra_segments_are_404(self, tmp_path):
        # The root and its parent both hold a spec.json, as if they were
        # studies themselves; the root's name even looks like a study id.
        root = tmp_path / "served-feedc0ffee12"
        httpd, service = make_server(root, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            study_id = service.submit(
                {"name": "s", "specs": [spec().as_dict()]}
            )["study"]
            spec_text = (root / study_id / "spec.json").read_text()
            (root / "spec.json").write_text(spec_text)
            (tmp_path / "spec.json").write_text(spec_text)
            port = httpd.server_address[1]
            assert self._raw_get(port, f"/studies/{study_id}")[0] == 200
            assert self._raw_get(port, f"/studies/{study_id}/rows")[0] == 200
            for path in (
                "/studies/.",
                "/studies/..",
                "/studies/./rows",
                "/studies/../rows",
                "/studies//rows",
                f"/studies/{study_id}/rows/anything",
                f"/studies/{study_id}/progress/extra",
            ):
                status, body = self._raw_get(port, path)
                assert status == 404, path
                assert "error" in body, path
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestOperatorListing:
    def test_list_studies_shows_queue_depth_and_progress(
        self, tmp_path, capsys
    ):
        service = StudyService(tmp_path)
        summary = service.submit({"name": "s", "specs": [spec().as_dict()]})
        assert main(["list", "--studies", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert summary["study"] in out
        assert "cells 0/2" in out
        assert "queue 2 pending" in out

        run_worker(summary["directory"], lease_timeout=5.0)
        assert main(["list", "--studies", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cells 2/2" in out
        assert "complete" in out
        assert "array:2" in out

    def test_list_studies_empty_root(self, tmp_path, capsys):
        assert main(["list", "--studies", str(tmp_path / "empty")]) == 0
        assert "no studies" in capsys.readouterr().out

    def test_worker_cli_reports_missing_study(self, tmp_path, capsys):
        code = main(["worker", "--study", str(tmp_path / "nope-abc123")])
        assert code == 1
        assert "no study directory" in capsys.readouterr().err

    def test_worker_cli_drains_submitted_study(self, tmp_path, capsys):
        service = StudyService(tmp_path)
        summary = service.submit({"name": "s", "specs": [spec().as_dict()]})
        code = main(
            ["worker", "--study", summary["directory"],
             "--lease-timeout", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drained 2 job(s)" in out
        assert service.progress(summary["study"])["complete"]


class TestPresetSubmission:
    def test_preset_submission_builds_cli_specs(self, tmp_path):
        service = StudyService(tmp_path)
        summary = service.submit(
            {
                "preset": "topology_sweep",
                "topology": "ring",
                "n": "16",
                "seeds": 2,
            }
        )
        assert summary["name"] == "topology_sweep"
        assert summary["total"] == 4  # (complete + ring) x 2 seeds
        assert summary["enqueued_jobs"] == 4
        # The recorded spec.json round-trips the topology axis, so any
        # worker that attaches plans the same restricted cells.
        run_worker(summary["directory"], lease_timeout=5.0)
        rows = service.rows(summary["study"])
        by_variant = {}
        for row in rows:
            by_variant.setdefault(row["variant"], []).append(row)
        assert set(by_variant) == {"complete", "ring"}
        assert all(r["topology"] == "ring" for r in by_variant["ring"])
        assert all(
            r["engine"] not in ("auto", "aggregate", "group")
            for r in by_variant["ring"]
        )

    def test_preset_submission_rejections(self, tmp_path):
        service = StudyService(tmp_path)
        with pytest.raises(ExperimentError, match="unknown experiment"):
            service.submit({"preset": "figure9"})
        with pytest.raises(ExperimentError, match="unknown preset override"):
            service.submit({"preset": "figure2", "bogus": 1})
        with pytest.raises(ExperimentError, match="not both"):
            service.submit(
                {"preset": "figure2", "specs": [spec().as_dict()]}
            )

    def test_preset_submission_over_http(self, tmp_path):
        httpd, service = make_server(tmp_path / "served", port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            request = urllib.request.Request(
                f"{base}/studies",
                data=json.dumps(
                    {"preset": "scaling", "n": "8", "seeds": 1}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 201
                summary = json.loads(response.read())
            assert summary["name"] == "scaling"
            assert summary["total"] == 1
        finally:
            httpd.shutdown()
            httpd.server_close()

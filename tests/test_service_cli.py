"""CLI surface for the service: --version, query verbs against a live
daemon, the serve subprocess lifecycle, and report --prometheus."""

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import main
from repro.service import ServiceConfig, serve_in_thread

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    handle = serve_in_thread(
        ServiceConfig(
            port=0,
            workers=2,
            max_queue=32,
            cache_dir=tmp_path_factory.mktemp("cli-cache"),
        )
    )
    yield handle
    handle.stop()


def query(service, *argv):
    host, port = service.address
    return main(["query", *argv, "--host", host, "--port", str(port)])


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_single_sourced_in_pyproject(self):
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        assert 'version = { attr = "repro.__version__" }' in pyproject
        assert 'dynamic = ["version"]' in pyproject


class TestQuery:
    def test_status(self, service, capsys):
        assert query(service, "status") == 0
        status = json.loads(capsys.readouterr().out)
        assert status["version"] == __version__

    def test_harden(self, service, capsys):
        assert query(service, "harden", "abs", "labs") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["functions"] == ["abs", "labs"]
        assert result["failed"] == {}

    def test_metrics_prints_exposition_text(self, service, capsys):
        assert query(service, "metrics") == 0
        body = capsys.readouterr().out
        assert "# TYPE service_requests_total counter" in body

    def test_inject_requires_exactly_one_function(self, service, capsys):
        assert query(service, "inject") == 2
        assert "exactly one function" in capsys.readouterr().err

    def test_semi_auto_refused_where_it_does_not_apply(self, service, capsys):
        assert query(service, "inject", "abs", "--semi-auto") == 2
        assert "--semi-auto does not apply to inject" in capsys.readouterr().err

    def test_unknown_function_is_rc_1(self, service, capsys):
        assert query(service, "inject", "nope") == 1
        assert "UNKNOWN_FUNCTION" in capsys.readouterr().err

    def test_unreachable_daemon_is_rc_2(self, capsys):
        assert main(["query", "status", "--port", "1"]) == 2
        assert "cannot reach" in capsys.readouterr().err


class TestServeSubprocess:
    def test_serve_query_sigint_lifecycle(self, tmp_path):
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(tmp_path / "cache")],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = daemon.stdout.readline()
            assert banner.startswith("serving on ")
            host, port = banner.split()[2].rsplit(":", 1)

            out = subprocess.run(
                [sys.executable, "-m", "repro.cli", "query", "declaration",
                 "abs", "--host", host, "--port", port, "--wait", "10"],
                env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
                capture_output=True, text=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            assert json.loads(out.stdout)["function"] == "abs"

            daemon.send_signal(signal.SIGINT)
            _, err = daemon.communicate(timeout=30)
            assert daemon.returncode == 0
            assert "draining..." in err
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()


class TestReportPrometheus:
    def test_trace_metrics_render_as_exposition_text(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["inject", "asctime", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--prometheus", str(trace)]) == 0
        body = capsys.readouterr().out
        assert "# TYPE" in body
        assert "sandbox_calls_total" in body

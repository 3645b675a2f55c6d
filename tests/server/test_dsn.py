"""The shared DSN grammar (repro.driver.dsn): one parser, two
transports, strict query-parameter checking."""

import pytest

from repro.driver.dsn import DEFAULT_PORT, DSN, parse_dsn
from repro.errors import InterfaceError


class TestEmbeddedDSN:
    def test_application_only(self):
        parsed = parse_dsn("repro://RTLApp")
        assert parsed == DSN(scheme="repro", application="RTLApp")
        assert not parsed.remote

    def test_application_and_project(self):
        parsed = parse_dsn("repro://RTLApp/TestDataServices")
        assert parsed.application == "RTLApp"
        assert parsed.project == "TestDataServices"

    def test_options_coerced_to_config_fields(self):
        parsed = parse_dsn(
            "repro://A/P?format=xml&timeout=5&statement_cache_capacity=7"
            "&metadata_cache_capacity=9")
        assert parsed.options == {
            "format": "xml",
            "default_timeout": 5.0,
            "statement_cache_capacity": 7,
            "metadata_cache_capacity": 9,
        }

    def test_no_address(self):
        with pytest.raises(InterfaceError, match="no network address"):
            parse_dsn("repro://A/P").address

    def test_missing_application(self):
        with pytest.raises(InterfaceError, match="no application"):
            parse_dsn("repro://")

    def test_extra_path_segments(self):
        with pytest.raises(InterfaceError, match="extra path"):
            parse_dsn("repro://A/P/EXTRA")

    def test_display_round_trip(self):
        assert parse_dsn("repro://A/P?timeout=5").display() == \
            "repro://A/P"


class TestRemoteDSN:
    def test_host_port_app_project(self):
        parsed = parse_dsn("repro+tcp://db.example:7777/A/P?token=s3")
        assert parsed.remote
        assert parsed.address == ("db.example", 7777)
        assert parsed.application == "A"
        assert parsed.project == "P"
        assert parsed.token == "s3"

    def test_default_port(self):
        parsed = parse_dsn("repro+tcp://db.example/A")
        assert parsed.address == ("db.example", DEFAULT_PORT)

    def test_connect_timeout_option(self):
        parsed = parse_dsn("repro+tcp://h:1/A?connect_timeout=2.5")
        assert parsed.options == {"remote_connect_timeout": 2.5}

    def test_common_params_apply(self):
        parsed = parse_dsn("repro+tcp://h:1/A?format=xml&timeout=3")
        assert parsed.options == {"format": "xml",
                                  "default_timeout": 3.0}

    def test_missing_host(self):
        with pytest.raises(InterfaceError, match="no host"):
            parse_dsn("repro+tcp:///A/P")

    def test_missing_application(self):
        with pytest.raises(InterfaceError, match="no application"):
            parse_dsn("repro+tcp://h:1/")

    def test_malformed_port(self):
        with pytest.raises(InterfaceError, match="malformed port"):
            parse_dsn("repro+tcp://h:notaport/A")

    def test_display_redacts_token(self):
        shown = parse_dsn("repro+tcp://h:1/A/P?token=hunter2").display()
        assert "hunter2" not in shown
        assert shown == "repro+tcp://h:1/A/P"


class TestStrictParameters:
    def test_unknown_key_rejected(self):
        with pytest.raises(InterfaceError, match="timeuot"):
            parse_dsn("repro://A/P?timeuot=5")

    def test_retired_key_rejected(self):
        with pytest.raises(InterfaceError, match="metadata_latency"):
            parse_dsn("repro://A/P?metadata_latency=0.25")

    def test_embedded_key_rejected_on_remote(self):
        with pytest.raises(InterfaceError,
                           match="applies to repro:// DSNs"):
            parse_dsn("repro+tcp://h:1/A?statement_cache_capacity=7")

    def test_remote_key_rejected_on_embedded(self):
        with pytest.raises(InterfaceError,
                           match="applies to repro\\+tcp:// DSNs"):
            parse_dsn("repro://A/P?token=abc")

    def test_bad_value_rejected(self):
        with pytest.raises(InterfaceError, match="bad value"):
            parse_dsn("repro://A/P?timeout=soon")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InterfaceError, match="unsupported DSN"):
            parse_dsn("postgres://h/db")

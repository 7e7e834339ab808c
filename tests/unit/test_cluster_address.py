"""Worker-address validation: malformed host:port fails up front, by name."""

import pytest

from repro.api import Dataflow, Pipeline, Placement
from repro.spe.cluster import RemoteRuntime, main as cluster_main, parse_address
from repro.spe.errors import SchedulingError
from repro.spe.tuples import StreamTuple


class TestParseAddress:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("localhost:7700", ("localhost", 7700)),
            ("0.0.0.0:0", ("0.0.0.0", 0)),
            ("host:65535", ("host", 65535)),
            ("::1:8080", ("::1", 8080)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_address(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["nonsense", "host:", ":7700", "host:12x", "host:-1", ""],
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError, match="expected 'host:port'"):
            parse_address(text)

    @pytest.mark.parametrize("text", ["host:65536", "host:99999"])
    def test_port_out_of_range(self, text):
        with pytest.raises(ValueError, match="out of range"):
            parse_address(text)


class TestServeCli:
    def test_malformed_serve_argument_is_named(self, capsys):
        with pytest.raises(SystemExit) as info:
            cluster_main(["--serve", "nonsense"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --serve" in err
        assert "nonsense" in err

    def test_out_of_range_port_is_named(self, capsys):
        with pytest.raises(SystemExit) as info:
            cluster_main(["--serve", "localhost:99999"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --serve" in err
        assert "out of range" in err


def _two_instance_pipeline(hosts):
    rows = [StreamTuple(ts=float(i), values={"x": i}) for i in range(4)]
    df = Dataflow("addresses")
    df.source("src", rows).map(lambda t: t, name="m").sink("out")
    placement = Placement({"spe1": ("src",), "spe2": ("m", "out")})
    return Pipeline(df, placement=placement, execution="cluster", hosts=hosts)


class TestEagerHostValidation:
    def test_bad_list_entry_is_named_before_any_worker_starts(self):
        with pytest.raises(SchedulingError, match=r"hosts\[1\]"):
            _two_instance_pipeline(["localhost:7700", "localhost:bogus"]).run()

    def test_bad_dict_entry_is_named(self):
        with pytest.raises(SchedulingError, match=r"hosts\['spe2'\]"):
            _two_instance_pipeline(
                {"spe1": "localhost:7700", "spe2": "localhost:99999"}
            ).run()

    def test_bad_tuple_entry_is_rejected(self):
        with pytest.raises(SchedulingError, match=r"hosts\[0\]"):
            _two_instance_pipeline([("localhost", 99999)]).run()

    def test_as_address_accepts_tuples(self):
        assert RemoteRuntime._as_address(("h", 7700)) == ("h", 7700)
        with pytest.raises(ValueError):
            RemoteRuntime._as_address(("h",))

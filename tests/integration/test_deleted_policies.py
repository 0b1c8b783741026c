"""Deleted replacement policies get typed errors at every entry point.

A policy name that is no longer registered must never reach a cache:
the config layer raises ``ValueError``, the serve protocol answers
``bad_request`` and the CLI exits 2 with ``repro: error: ...``.
"""

import contextlib
import io

import pytest

from repro.cli import main
from repro.experiments.config import SystemConfig, scaled_config
from repro.hierarchy.policies import check_policy_name, make_policy, policy_names
from repro.serve.client import ServeError
from repro.util.fingerprint import config_fingerprint

from tests.serve.test_server import ServerHarness

#: Policies removed from the registry.
DELETED = ["mq", "lfu", "clock"]


@pytest.mark.parametrize("name", DELETED)
class TestDeletedPolicy:
    def test_config_layer_raises_value_error(self, name):
        assert name not in policy_names()
        for call in (
            lambda: check_policy_name(name),
            lambda: make_policy(name),
            lambda: SystemConfig(policy=name),
            lambda: SystemConfig(policies=("lru", name, "lru")),
        ):
            with pytest.raises(ValueError, match="unknown policy"):
                call()

    def test_serve_answers_bad_request(self, name):
        config = dict(config_fingerprint(scaled_config(16)), policy=name)
        with ServerHarness() as h, h.client() as c:
            with pytest.raises(ServeError, match="unknown policy") as e:
                c.experiment("hf", "inter", config=config)
            assert c.statusz()["backend"]["simulations"] == 0
        assert e.value.code == "bad_request"
        assert e.value.http_status == 400

    def test_cli_exits_2(self, name):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(
                ["scenario", "run", "zipf-hot", "--scale", "8",
                 "--policies", f"lru,{name},lru"]
            )
        assert status == 2
        assert f"repro: error: unknown policy {name!r}" in err.getvalue()

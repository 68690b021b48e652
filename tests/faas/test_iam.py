"""Tests for IAM and per-namespace concurrency isolation."""

from __future__ import annotations

import pytest

from repro.cos import CloudObjectStorage
from repro.faas import CloudFunctions, CloudFunctionsClient, SystemLimits, ThrottledError
from repro.faas.iam import IAM, ApiKey, AuthenticationError, AuthorizationError
from repro.net import LatencyModel, NetworkLink


class TestIAM:
    def test_create_and_authenticate(self):
        iam = IAM(seed=1)
        key = iam.create_api_key("alice")
        assert iam.authenticate(key.key_id, key.secret) == "alice"

    def test_unknown_key(self):
        with pytest.raises(AuthenticationError):
            IAM().authenticate("key-none", "secret")

    def test_bad_secret(self):
        iam = IAM(seed=2)
        key = iam.create_api_key("bob")
        with pytest.raises(AuthenticationError):
            iam.authenticate(key.key_id, "wrong")

    def test_revoked_key(self):
        iam = IAM(seed=3)
        key = iam.create_api_key("carol")
        iam.revoke(key.key_id)
        with pytest.raises(AuthenticationError):
            iam.authenticate(key.key_id, key.secret)

    def test_authorize_wrong_namespace(self):
        iam = IAM(seed=4)
        key = iam.create_api_key("alice")
        with pytest.raises(AuthorizationError, match="bound to namespace"):
            iam.authorize(key, "bob")

    def test_keys_unique(self):
        iam = IAM(seed=5)
        keys = {iam.create_api_key("ns").key_id for _ in range(50)}
        assert len(keys) == 50

    def test_empty_namespace_rejected(self):
        with pytest.raises(ValueError):
            IAM().create_api_key("")


class TestPlatformAuth:
    def make_platform(self, kernel):
        platform = CloudFunctions(kernel, CloudObjectStorage(kernel), seed=6)

        def echo(params, ctx):
            return params

        platform.create_action("alice", "echo", echo)
        return platform

    def test_auth_off_by_default(self, kernel):
        platform = self.make_platform(kernel)

        def main():
            aid = platform.invoke("alice", "echo", {"x": 1})
            return platform.wait_activation(aid).status

        assert kernel.run(main) == "success"

    def test_require_auth_rejects_anonymous(self, kernel):
        platform = self.make_platform(kernel)
        platform.require_auth = True

        def main():
            with pytest.raises(AuthenticationError):
                platform.invoke("alice", "echo", {})
            return True

        assert kernel.run(main)

    def test_authorized_key_accepted(self, kernel):
        platform = self.make_platform(kernel)
        platform.require_auth = True
        key = platform.iam.create_api_key("alice")

        def main():
            aid = platform.invoke("alice", "echo", {"x": 1}, credentials=key)
            return platform.wait_activation(aid).result

        assert kernel.run(main) == {"x": 1}

    def test_cross_namespace_key_rejected(self, kernel):
        platform = self.make_platform(kernel)
        platform.require_auth = True
        mallory = platform.iam.create_api_key("mallory")

        def main():
            with pytest.raises(AuthorizationError):
                platform.invoke("alice", "echo", {}, credentials=mallory)
            return True

        assert kernel.run(main)

    def test_gateway_sends_credentials(self, kernel):
        platform = self.make_platform(kernel)
        platform.require_auth = True
        key = platform.iam.create_api_key("alice")

        def main():
            link = NetworkLink(kernel, LatencyModel.lan(), seed=1)
            client = CloudFunctionsClient(platform, link, credentials=key)
            aid = client.invoke("alice", "echo", {"v": 9})
            record = platform.wait_activation(aid)
            return record.result

        assert kernel.run(main) == {"v": 9}


class TestPerNamespaceConcurrency:
    def test_one_tenant_cannot_starve_another(self, kernel):
        limits = SystemLimits(max_concurrent=2)
        platform = CloudFunctions(
            kernel, CloudObjectStorage(kernel), limits=limits, seed=7
        )

        def slow(params, ctx):
            ctx.sleep(100)

        platform.create_action("alice", "slow", slow)
        platform.create_action("bob", "slow", slow)

        def main():
            platform.invoke("alice", "slow", {})
            platform.invoke("alice", "slow", {})
            with pytest.raises(ThrottledError):
                platform.invoke("alice", "slow", {})
            # bob's namespace has its own budget
            platform.invoke("bob", "slow", {})
            platform.invoke("bob", "slow", {})
            return (
                platform.active_in("alice"),
                platform.active_in("bob"),
                platform.active_count,
            )

        assert kernel.run(main) == (2, 2, 4)

    def test_slots_return_per_namespace(self, kernel):
        limits = SystemLimits(max_concurrent=1)
        platform = CloudFunctions(
            kernel, CloudObjectStorage(kernel), limits=limits, seed=8
        )

        def quick(params, ctx):
            ctx.sleep(1)

        platform.create_action("alice", "quick", quick)

        def main():
            first = platform.invoke("alice", "quick", {})
            platform.wait_activation(first)
            second = platform.invoke("alice", "quick", {})
            platform.wait_activation(second)
            return platform.active_in("alice")

        assert kernel.run(main) == 0

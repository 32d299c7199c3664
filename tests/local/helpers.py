"""Blocking shorthands over ``LocalPlatform.submit_group``."""

from __future__ import annotations


def call(platform, name, payload=None):
    """Run *payload* as a group of one; returns its future."""
    return platform.submit_group(name, [payload])[0].future


def call_group(platform, name, payloads):
    """Run *payloads* as one group; returns one future per member."""
    return [inv.future for inv in platform.submit_group(name, payloads)]

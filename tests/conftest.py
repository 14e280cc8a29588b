"""Shared test settings.

Property tests draw their examples from a fixed derandomized sequence and
have no per-example deadline, so the suite gives the same result on every
run and on a slow or loaded host.
"""
from hypothesis import settings

settings.register_profile("ctgp", derandomize=True, deadline=None)
settings.load_profile("ctgp")

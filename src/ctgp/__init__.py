"""Computed-torque tracking control with Gaussian-process model compensation."""

__version__ = "0.1.0"

"""Cluster modelling: testbed configuration, cluster building, job running."""

from repro.cluster.arming import Arming
from repro.cluster.builder import Cluster
from repro.cluster.config import TestbedConfig, fat_tree_shape
from repro.cluster.job import JobResult, Program, run_job

__all__ = ["Arming", "Cluster", "JobResult", "Program", "TestbedConfig",
           "fat_tree_shape", "run_job"]

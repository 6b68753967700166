"""Planning and control toolkit for temporal-logic reach/avoid tasks.

Pipeline: parse a task formula over a box workspace, split it along the
timeline into local tasks, plan timed waypoints with a goal-biased
spatio-temporal tree per local task, wrap the waypoints in an
obstacle-free corridor, and track everything with a smooth trajectory
from a direct-transcription optimizer.
"""

"""The leader oracle Ω (§2.1): one heartbeat Ω per process, both backends."""

from .omega import HB_INTERVAL_MS, HEARTBEAT, HeartbeatOmega, attach_omegas

__all__ = ["HB_INTERVAL_MS", "HEARTBEAT", "HeartbeatOmega", "attach_omegas"]

"""Discrete-event simulator for cooperative energy-saving routing in
multi-interface infrastructure wireless networks."""

__version__ = "0.1.0"

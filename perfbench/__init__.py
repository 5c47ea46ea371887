"""Seeded end-to-end benchmark of the security-log engine (see README.md)."""

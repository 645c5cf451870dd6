"""Seeded end-to-end benchmark of the schema designer (see README.md)."""

"""End-to-end, layer-attributed benchmark of ``repro``; see README.md."""

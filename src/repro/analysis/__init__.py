"""Analysis tools over DPI output.

- :mod:`repro.analysis.classifier` — application fingerprinting from the
  §5.2/§5.3 quirk signatures
- :mod:`repro.analysis.dissect` — human-readable per-datagram dissection

Import them by full path; this package re-exports nothing.
"""

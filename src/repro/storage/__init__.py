"""Alternative physical storage layouts.

The paper (Section 4) argues the backend should support a *spectrum* of
physical representations.  Plain 1NF tables, their typed columnar snapshots
and the nested (M5) layout live in :mod:`repro.relational` and
:mod:`repro.mapping`; this package holds the one layout the engine does not
provide: a multi-relational compressed (factorized) representation —
:mod:`repro.storage.factorized` — which the E8 ablation benchmark measures
against the flat co-stored table.
"""

from .factorized import FactorizedStore

__all__ = ["FactorizedStore"]

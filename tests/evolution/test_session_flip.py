"""An explicit-session transaction that straddles an online-migration flip.

The transaction lives on the layout it began on; once the flip has published
a new one its reads and writes belong to a layout that no longer serves,
so it rolls back there and fails with the *retryable* SerializationError —
``Session.run`` then re-executes the closure against the new layout.
"""

from __future__ import annotations

import pytest

from repro.errors import SerializationError
from repro.mapping import named_mapping
from tests.conftest import build_university_system

KEY = 9001
NEW_PERSON = {
    "person_id": KEY,
    "name": {"firstname": "Flip", "lastname": "Straddle"},
    "street": "1 Main",
    "city": "College Park",
}


def _system():
    system = build_university_system()
    # a migration pins a read view; MVCC cannot be switched on from inside the
    # transaction that will straddle it
    system.db.activate_mvcc()
    return system


def _flip(system):
    system.migrate_online(new_spec=named_mapping(system.schema, "M2"), reconcile_after=False)


@pytest.mark.parametrize("isolation", ["live", "snapshot"])
def test_commit_after_flip_is_a_serialization_error(isolation):
    system = _system()
    old_db = system.db
    session = system.session(isolation=isolation)
    session.begin()
    session.insert("person", NEW_PERSON)
    _flip(system)
    assert system.db is not old_db
    with pytest.raises(SerializationError):
        session.commit()
    # rolled back where it began: no transaction, no writer lock left behind
    assert not session.in_transaction()
    assert not old_db.transactions.in_transaction()
    assert system.get("person", KEY) is None
    # the session is usable again, now against the new layout
    with session:
        session.insert("person", NEW_PERSON)
    assert system.get("person", KEY)["city"] == "College Park"


def test_write_after_flip_fails_before_touching_the_new_layout():
    system = _system()
    session = system.session(isolation="snapshot")
    session.begin()
    assert session.get("person", KEY) is None
    _flip(system)
    with pytest.raises(SerializationError):
        session.insert("person", NEW_PERSON)
    assert not session.in_transaction()
    assert system.get("person", KEY) is None


def test_session_run_retries_across_the_flip():
    system = _system()
    session = system.session()
    attempts = []

    def closure(s):
        attempts.append(s.system.db)
        s.insert("person", NEW_PERSON)
        if len(attempts) == 1:
            _flip(system)
        return s.get("person", KEY)["street"]

    assert session.run(closure, sleep=lambda delay: None) == "1 Main"
    assert len(attempts) == 2 and attempts[0] is not attempts[1]
    assert system.mapping.name == "M2"
    assert system.count("person") == len(set(system.crud.entity_keys("person")))
    assert system.get("person", KEY)["city"] == "College Park"

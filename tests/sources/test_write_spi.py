"""SPI write-capability conformance across the shipped backends.

Memory and SQLite implement the full contract (``supports_write``,
atomic ``apply_mutations``, ``begin_txn``/``commit_txn``/
``rollback_txn``); the XML file source keeps the read-only defaults.
Includes the regression scenarios behind the two fuzzer-found
stale-token bugs: version tokens must never identify two different
visible row-sets, even across a rollback.
"""

from decimal import Decimal

import pytest

from repro.engine import Storage
from repro.errors import NotSupportedError, OperationalError
from repro.sources.memory import TableSource
from repro.sources.spi import Mutation
from repro.sources.sqlite import SQLiteSource
from repro.sources.xmlfile import XMLFileSource
from repro.sql.types import SQLType

ROWS = [(1, "Ann", Decimal("10.50")),
        (2, "Bob", None),
        (3, None, Decimal("3.25"))]


def build_storage() -> Storage:
    storage = Storage()
    table = storage.create_table("ACCOUNTS", [
        ("ID", SQLType("INTEGER")),
        ("OWNER", SQLType("VARCHAR")),
        ("BAL", SQLType("DECIMAL", precision=7, scale=2))])
    table.insert_many(ROWS)
    return storage


@pytest.fixture(params=["memory", "sqlite"])
def source(request):
    storage = build_storage()
    if request.param == "memory":
        built = TableSource(storage)
    else:
        built = SQLiteSource.from_storage(storage, name="sqlite")
    yield built
    built.close()


def rows_of(source):
    return sorted(tuple(r) for r in source.scan("ACCOUNTS"))


def handles_of(source):
    """The current rows' handles, in scan order — what a plan made now
    would address them by (SQLite rowids, memory positions)."""
    return [handle for handle, _row
            in source.scan("ACCOUNTS", handles=True)]


class TestWriteCapability:
    def test_supports_write_opt_in(self, source):
        assert source.supports_write("ACCOUNTS")
        assert not source.supports_write("NOPE")

    def test_insert_update_delete_roundtrip(self, source):
        result = source.apply_mutations([Mutation(
            kind="insert", table="ACCOUNTS",
            rows=((4, "Dee", Decimal("1.00")),))])
        assert result.rowcount == 1
        assert (4, "Dee", Decimal("1.00")) in rows_of(source)

        result = source.apply_mutations([Mutation(
            kind="update", table="ACCOUNTS",
            changes=((handles_of(source)[0],
                      (1, "Ann", Decimal("99.00"))),))])
        assert result.rowcount == 1
        assert (1, "Ann", Decimal("99.00")) in rows_of(source)

        result = source.apply_mutations([Mutation(
            kind="delete", table="ACCOUNTS",
            handles=tuple(handles_of(source)[1:3]))])
        assert result.rowcount == 2
        assert rows_of(source) == [(1, "Ann", Decimal("99.00")),
                                   (4, "Dee", Decimal("1.00"))]

    def test_every_mutation_moves_the_token(self, source):
        tokens = [source.version("ACCOUNTS")]
        for build in (
                lambda first: Mutation(kind="insert", table="ACCOUNTS",
                                       rows=((5, "E", None),)),
                lambda first: Mutation(kind="update", table="ACCOUNTS",
                                       changes=((first, (1, "Z", None)),)),
                lambda first: Mutation(kind="delete", table="ACCOUNTS",
                                       handles=(first,))):
            source.apply_mutations([build(handles_of(source)[0])])
            tokens.append(source.version("ACCOUNTS"))
        assert len(set(tokens)) == len(tokens)

    def test_stale_version_refused(self, source):
        token = source.version("ACCOUNTS")
        source.apply_mutations([Mutation(
            kind="insert", table="ACCOUNTS", rows=((9, "X", None),))])
        with pytest.raises(OperationalError, match="changed under"):
            source.apply_mutations(
                [Mutation(kind="delete", table="ACCOUNTS",
                          handles=(handles_of(source)[0],))],
                expected_version=token)

    def test_statement_atomicity_on_failure(self, source):
        """A batch that fails part-way leaves the visible rows
        untouched — the insert ahead of the dead handle must not
        survive. The token may move forward spuriously (SQLite's
        ``total_changes`` cannot be rewound) but must never stay put on
        changed rows; here the rows are unchanged either way."""
        before_rows = rows_of(source)
        dead = max(handles_of(source)) + 99
        with pytest.raises(OperationalError, match="stale plan"):
            source.apply_mutations([
                Mutation(kind="insert", table="ACCOUNTS",
                         rows=((8, "Gone", None),)),
                Mutation(kind="update", table="ACCOUNTS",
                         changes=((dead, (1, "x", None)),)),
            ])
        assert rows_of(source) == before_rows
        # Whatever the token did, a fresh write must move it again.
        settled = source.version("ACCOUNTS")
        source.apply_mutations([Mutation(
            kind="insert", table="ACCOUNTS", rows=((10, "New", None),))])
        assert source.version("ACCOUNTS") != settled


class TestTransactions:
    def test_commit_keeps_writes(self, source):
        source.begin_txn()
        source.apply_mutations([Mutation(
            kind="insert", table="ACCOUNTS", rows=((4, "D", None),))])
        source.commit_txn()
        assert (4, "D", None) in rows_of(source)

    def test_rollback_restores_rows(self, source):
        before = rows_of(source)
        source.begin_txn()
        source.apply_mutations([Mutation(
            kind="delete", table="ACCOUNTS",
            handles=tuple(handles_of(source)))])
        assert rows_of(source) == []
        source.rollback_txn()
        assert rows_of(source) == before

    def test_double_begin_raises(self, source):
        source.begin_txn()
        with pytest.raises(OperationalError, match="already"):
            source.begin_txn()
        source.rollback_txn()

    def test_commit_rollback_require_transaction(self, source):
        with pytest.raises(OperationalError, match="no open"):
            source.commit_txn()
        with pytest.raises(OperationalError, match="no open"):
            source.rollback_txn()

    def test_rolled_back_tokens_never_identify_new_state(self, source):
        """The stale-token regression (both backends): a token observed
        mid-transaction must not reappear on a different row-set after
        rollback. Memory restores the pre-transaction token exactly and
        skips the burned ones; SQLite moves forward via the rollback
        epoch — either strategy satisfies this invariant."""
        pre_txn = source.version("ACCOUNTS")
        source.begin_txn()
        burned = []
        for i in range(3):
            source.apply_mutations([Mutation(
                kind="insert", table="ACCOUNTS",
                rows=((100 + i, "GHOST", None),))])
            burned.append(source.version("ACCOUNTS"))
        source.rollback_txn()
        after = source.version("ACCOUNTS")
        assert after not in set(burned) - {pre_txn}
        source.apply_mutations([Mutation(
            kind="insert", table="ACCOUNTS", rows=((200, "REAL", None),))])
        assert source.version("ACCOUNTS") not in burned

    def test_memory_restores_token_exactly(self):
        built = TableSource(build_storage())
        pre_txn = built.version("ACCOUNTS")
        built.begin_txn()
        built.apply_mutations([Mutation(
            kind="insert", table="ACCOUNTS", rows=((9, "G", None),))])
        assert built.version("ACCOUNTS") != pre_txn
        built.rollback_txn()
        assert built.version("ACCOUNTS") == pre_txn


class TestReadOnlySource:
    def test_xmlfile_declines_writes(self, tmp_path):
        (tmp_path / "ACCOUNTS.xml").write_text(
            "<ACCOUNTS><ROW><ID>1</ID></ROW></ACCOUNTS>",
            encoding="utf-8")
        with XMLFileSource(tmp_path) as xml:
            assert not xml.supports_write("ACCOUNTS")
            with pytest.raises(NotSupportedError, match="read-only"):
                xml.apply_mutations([Mutation(
                    kind="insert", table="ACCOUNTS", rows=((2,),))])
            with pytest.raises(NotSupportedError):
                xml.begin_txn()

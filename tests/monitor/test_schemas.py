"""Tests for the Table I schema types."""

import pytest

from repro.monitor.schemas import (
    AttackPulse,
    BotnetRecord,
    BotRecord,
    DDoSAttackRecord,
    Protocol,
)


class TestProtocol:
    def test_seven_traffic_types(self):
        # Table III: "# of traffic types: 7".
        assert len(Protocol) == 7

    def test_from_name(self):
        assert Protocol.from_name("http") is Protocol.HTTP
        assert Protocol.from_name("SYN") is Protocol.SYN

    def test_from_name_unknown(self):
        with pytest.raises(ValueError):
            Protocol.from_name("quic")


class TestRecords:
    def _attack(self, start=100.0, end=400.0, botnet=7) -> DDoSAttackRecord:
        return DDoSAttackRecord(
            ddos_id=1,
            botnet_id=botnet,
            family="pandora",
            category=Protocol.HTTP,
            target_ip=0x01020304,
            timestamp=start,
            end_time=end,
            asn=64500,
            country_code="RU",
            city="RU-city-000",
            organization="hosting-ru-000",
            lat=55.0,
            lon=37.0,
            magnitude=42,
        )

    def test_duration_and_ip(self):
        rec = self._attack()
        assert rec.duration == 300.0
        assert rec.target_ip_str == "1.2.3.4"

    def test_overlaps(self):
        a = self._attack(100.0, 400.0)
        b = self._attack(350.0, 500.0)
        c = self._attack(400.0, 500.0)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)  # half-open touch is not overlap

    def test_bot_record_activity(self):
        bot = BotRecord(
            bot_index=0, ip=1, botnet_id=1, family="x", country_code="US",
            city="c", organization="o", asn=1, lat=0.0, lon=0.0,
            recruited_at=100.0, left_at=200.0,
        )
        assert bot.active_at(100.0)
        assert bot.active_at(150.0)
        assert not bot.active_at(200.0)

    def test_botnet_record_ip(self):
        rec = BotnetRecord(1, "pandora", 0x7F000001 + 1, 0.0, 1.0)
        assert rec.controller_ip_str.count(".") == 3

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            AttackPulse(
                botnet_id=1, family="x", target_index=0,
                start=10.0, end=5.0, protocol=Protocol.HTTP, attack_tag=0,
            )


def _drop_asn(row):
    del row["asn"]
    return row


class TestRowCodec:
    """The wire's column decoder and the file readers' record decoder
    read one schema table, so they accept and reject the same rows."""

    @pytest.fixture(scope="class")
    def rows(self, tiny_ds):
        from repro.io.jsonlio import record_to_json

        return [record_to_json(r) for r in list(tiny_ds.iter_attacks())[:4]]

    @pytest.mark.parametrize(
        "spoil, decodes",
        [
            (_drop_asn, False),
            (lambda row: dict(row, timestamp=None), False),
            (lambda row: dict(row, magnitude="lots"), False),
            (lambda row: dict(row, timestamp=float("nan")), True),
            (lambda row: dict(row, end_time=float("inf")), True),
            (lambda row: dict(row, target_ip="10.0.0"), False),
            (lambda row: dict(row, category="quic"), False),
            (lambda row: [row["ddos_id"]], False),
            (lambda row: dict(row, family=5), False),
            (lambda row: dict(row, cc=None), False),
            (lambda row: dict(row, category=5), False),
            (lambda row: dict(row, category=None), False),
            (lambda row: dict(row, target_ip=5), False),
            (lambda row: dict(row, target_ip=None), False),
        ],
        ids=["missing-key", "null-time", "non-numeric", "nan", "infinity",
             "bad-dotted-quad", "unknown-protocol", "non-object", "numeric-family",
             "null-country", "numeric-protocol", "null-protocol", "numeric-address",
             "null-address"],
    )
    def test_columns_and_records_agree(self, rows, spoil, decodes):
        import json

        from repro.errors import FormatError, IngestError
        from repro.io.jsonlio import record_from_json
        from repro.monitor.schemas import columns_of_rows
        from repro.serve.codec import decode_ingest
        from repro.stream import StreamingDataset

        rows = list(rows)
        rows[2] = spoil(dict(rows[2]))
        body = json.dumps({"records": rows}).encode()
        if not decodes:
            with pytest.raises((KeyError, TypeError, ValueError)) as rec_err:
                [record_from_json(row) for row in rows]
            with pytest.raises(FormatError) as col_err:
                columns_of_rows(rows)
            expected = (
                "records[2] is not a row object"
                if isinstance(rows[2], list)
                else f"records[2] is malformed: {rec_err.value}"
            )
            assert str(col_err.value) == expected
            with pytest.raises(FormatError) as wire_err:
                decode_ingest(body)
            assert str(wire_err.value) == expected
            return
        records = [record_from_json(row) for row in rows]
        messages = []
        for batch in (decode_ingest(body), columns_of_rows(rows), records):
            stream = StreamingDataset()
            with pytest.raises(IngestError) as exc_info:
                stream.append_batch(batch)
            assert exc_info.value.index == 2
            messages.append(str(exc_info.value))
            assert stream.append_batch(batch, strict=False) == 3
        assert messages[0] == messages[1] == messages[2]
        assert "record #2" in messages[0] and "not finite" in messages[0]

    @pytest.mark.parametrize("key, value", [("category", 5), ("target_ip", None)])
    def test_non_string_protocol_or_address_is_a_400(self, rows, key, value):
        import json

        from repro.serve.routes import Router

        rows = list(rows)
        rows[1] = dict(rows[1], **{key: value})
        router = Router()
        try:
            response = router.handle("POST", "/v1/ingest", json.dumps({"records": rows}).encode())
        finally:
            router.close()
        assert response.status == 400
        assert "records[1] is malformed: expected a string" in json.dumps(response.payload)

    @pytest.mark.parametrize("key, value", [("botnet_id", 2**40), ("ddos_id", 2**64)])
    def test_number_outside_its_dtype_names_the_row(self, rows, key, value):
        from repro.errors import FormatError
        from repro.monitor.schemas import columns_of_rows

        rows = list(rows)
        rows[1] = dict(rows[1], **{key: value})
        with pytest.raises(FormatError, match=r"^records\[1\] is malformed: .*int"):
            columns_of_rows(rows)

from erbench.compare import compare, format_compare, report, verdict


def entry(value, spread=None):
    return {"value": value, "unit": "ms", "spread": spread, "runs": [value]}


def test_verdicts():
    assert verdict(entry(100), entry(104), "lower", 0.10) == "unchanged"
    assert verdict(entry(100), entry(120), "lower", 0.10) == "worse"
    assert verdict(entry(100), entry(80), "lower", 0.10) == "better"
    assert verdict(entry(100), entry(80), "higher", 0.10) == "worse"
    assert verdict(entry(100), entry(120), "higher", 0.10) == "better"
    # a spread wider than the bound: the difference cannot be told from noise
    assert verdict(entry(100, 0.2), entry(120), "lower", 0.10) == "unresolved"


def document(ops):
    return {"workloads": {"oltp_point": {"end_to_end": {"ops_per_s": entry(ops), "setup_s": entry(1.0)}}}}


def test_compare_rows_and_exit_signal(tmp_path):
    rows, worse = compare(document(1000.0), document(700.0))
    assert worse
    row = [r for r in rows if r["metric"] == "ops_per_s"][0]
    assert row["verdict"] == "worse" and abs(row["ratio"] - 0.7) < 1e-9
    assert "0.700 (base 1000)" in format_compare(rows)
    rows, worse = compare(document(1000.0), document(1010.0))
    assert not worse and {r["verdict"] for r in rows} == {"unchanged"}


def test_report_orders_documents_by_pr(tmp_path):
    import json

    paths = []
    for pr, ops in ((12, 1200.0), (11, 1000.0)):
        path = tmp_path / f"BENCH_{pr}.json"
        path.write_text(json.dumps(document(ops)))
        paths.append(str(path))
    table = report(sorted(paths, key=lambda p: int(p.rsplit("_", 1)[1][:-5])))
    assert "| oltp_point | ops_per_s (1/s) | 1000 | 1200 |" in table

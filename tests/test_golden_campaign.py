"""A fault-injected screening campaign's files pinned byte for byte.

The digests were recorded before the shard-line encoder and the fault-draw
hashing were rewritten for speed; any change to a shard line, a job
manifest, an error log, the campaign manifest (apart from its ``timings``)
or the returned predictions shows up here as a changed digest.  Regenerate
(only for an intended format change) with

    PYTHONPATH=src python tests/test_golden_campaign.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from fusionscreen import harness

# all three fault rates above zero: corrupt records, lost jobs, dead ranks
PLAN = harness.FaultPlan(record_corruption_rate=0.02, rank_failure_rate=0.2,
                         job_failure_rate=0.15, seed=21)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def record() -> dict:
    """Per written file its digest, plus the report and the predictions."""
    library = [harness.PoseRecord(f"cpd{i // 6:04d}", "t0", i % 6)
               for i in range(3000)]
    with tempfile.TemporaryDirectory() as tmp:
        preds, report = harness.run_campaign(
            library, harness.SyntheticScorer(seed=5), n_jobs=8, plan=PLAN,
            out_dir=tmp, parallelism=2, retries=5, ranks_per_job=4)
        out = {}
        for path in sorted(Path(tmp).iterdir()):
            data = path.read_bytes()
            if path.name == harness.MANIFEST_NAME:
                manifest = json.loads(data)
                assert set(manifest.pop("timings")) == {
                    "wall_s", "evaluation_s", "output_s"}
                data = json.dumps(manifest, indent=2).encode()
            out[path.name] = _sha(data)
    out["predictions"] = _sha("".join(
        f"{r.compound_id}/{r.target_id}/{r.pose_id}/{r.predicted_pk.hex()}/"
        f"{r.job_id}/{r.rank_id}\n" for r in preds).encode())
    out["report"] = (len(preds), report.attempts, report.abandoned,
                     len(report.corrupted))
    return out


GOLDEN = {
    "campaign_manifest.json": "3c56d7f0d3fe2631",
    "job_00000_errors.jsonl": "4a2932a222ca0e99",
    "job_00000_manifest.json": "f2bad87e4cd32b7a",
    "job_00001_errors.jsonl": "4adeaf817db8f6c5",
    "job_00001_manifest.json": "cd3c0e7c8908c85c",
    "job_00002_errors.jsonl": "41b5989acc3e57a1",
    "job_00002_manifest.json": "6fc76fd5662e5af7",
    "job_00003_errors.jsonl": "a2f0a34ccc25996b",
    "job_00003_manifest.json": "86a2b3eefcfb75a1",
    "job_00004_errors.jsonl": "2b514ea8b13f0c44",
    "job_00004_manifest.json": "e81ee9ce902e0270",
    "job_00005_errors.jsonl": "2016e8fec5d88caa",
    "job_00005_manifest.json": "320b220da3a27a8f",
    "job_00006_errors.jsonl": "94e259c7885dc4de",
    "job_00006_manifest.json": "3fe5f71b1051041b",
    "job_00007_errors.jsonl": "43f9a97fcb9e2470",
    "job_00007_manifest.json": "4fd4f0d8f20f5d68",
    "predictions": "eb6e16712caebc13",
    "report": (2948, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1, 7: 1}, [],
               52),
    "shard_00000_000.jsonl": "b48ab7d7315baf8a",
    "shard_00000_001.jsonl": "98e1bf2af933e7bd",
    "shard_00000_002.jsonl": "03f8c38e9945c63f",
    "shard_00000_003.jsonl": "63523b4f823f9253",
    "shard_00001_000.jsonl": "716d0930d5e79d42",
    "shard_00001_001.jsonl": "314b1c8ebcfd8bcb",
    "shard_00001_002.jsonl": "700e7a122101cbf7",
    "shard_00001_003.jsonl": "3211c35bb48724d2",
    "shard_00002_000.jsonl": "cec68935afbd1642",
    "shard_00002_001.jsonl": "c648ca61d907eb7b",
    "shard_00002_002.jsonl": "22fbbbc6ec38435c",
    "shard_00002_003.jsonl": "de828cbad5d20468",
    "shard_00003_000.jsonl": "dab4ba2142fc307c",
    "shard_00003_001.jsonl": "bb510ef0a2f255f0",
    "shard_00003_002.jsonl": "82984b0cb9bc3e5e",
    "shard_00003_003.jsonl": "2b8ff5d18c0b1f9f",
    "shard_00004_000.jsonl": "95537671f43fa010",
    "shard_00004_001.jsonl": "ea690dfc05cf09c1",
    "shard_00004_002.jsonl": "a7acf54978020aec",
    "shard_00004_003.jsonl": "e8622af492b00eb1",
    "shard_00005_000.jsonl": "57e856ed5d513c27",
    "shard_00005_001.jsonl": "2a49438982bfcdf1",
    "shard_00005_002.jsonl": "a2887e7d9c4773de",
    "shard_00005_003.jsonl": "60b413f7ccde8193",
    "shard_00006_000.jsonl": "49b90c9570456dee",
    "shard_00006_001.jsonl": "fe361d9815d9e5a4",
    "shard_00006_002.jsonl": "aa81f38c17712222",
    "shard_00006_003.jsonl": "e73558ed283ddd15",
    "shard_00007_000.jsonl": "c659c176a567e460",
    "shard_00007_001.jsonl": "f18f8a7e75973737",
    "shard_00007_002.jsonl": "4400687f34481494",
    "shard_00007_003.jsonl": "a1ccb94cc5e3b3a2",
}


def test_campaign_files_byte_equal_to_golden():
    got = record()
    assert sorted(got) == sorted(GOLDEN)
    for name in GOLDEN:
        assert got[name] == GOLDEN[name], name


if __name__ == "__main__":
    import pprint

    pprint.pprint(record(), width=78)

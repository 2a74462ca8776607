"""The memoized handler helpers against the per-call code they replaced.

Handlers compute their synthetic payloads once per distinct input per
process (simulated cost comes only from ``ctx.compute``).  The oracles below
are the pre-memo inline implementations, kept verbatim so any drift in a
memo's output -- values, float bits, key order -- fails here.
"""

from typing import Dict, List

import numpy as np
import pytest

from repro.benchmarks import genome, mapreduce, ml

MEMOS = (mapreduce._corpus_chunks, ml._train_accuracy, genome._variant_counts)


@pytest.fixture(autouse=True)
def fresh_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


class FakeContext:
    """The slice of ``InvocationContext`` the handlers touch, recorded."""

    def __init__(self, invocation_id: str = "inv-0") -> None:
        self.invocation_id = invocation_id
        self.calls: List[tuple] = []

    def object_exists(self, key):
        return True

    def download(self, key):
        self.calls.append(("download", key))

    def upload(self, key, size):
        self.calls.append(("upload", key, size))

    def compute(self, work):
        self.calls.append(("compute", work))


# ------------------------------------------------------------------ oracles
def oracle_make_corpus(total_words: int, num_chunks: int, seed: int) -> List[List[str]]:
    words: List[str] = []
    state = seed * 2654435761 % (2**32) or 1
    for _ in range(total_words):
        state = (1103515245 * state + 12345) % (2**31)
        words.append(mapreduce.WORDS[state % len(mapreduce.WORDS)])
    chunk_size = max(1, (len(words) + num_chunks - 1) // num_chunks)
    return [words[i : i + chunk_size] for i in range(0, len(words), chunk_size)]


def oracle_count_words(words: List[str]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    return counts


def oracle_accuracy(kind: str, seed: int) -> float:
    features, labels = ml._make_dataset(seed)
    if kind == "svm":
        weights = ml._train_svm(features, labels)
        predictions = np.sign(features @ weights)
        predictions[predictions == 0] = 1.0
        return float((predictions == labels).mean())
    forest = ml._train_forest(features, labels, seed=seed)
    votes = np.array([sum(ml._tree_predict(tree, row) for tree in forest) for row in features])
    predictions = np.sign(votes)
    predictions[predictions == 0] = 1.0
    return float((predictions == labels).mean())


def oracle_grow_tree(x, y, depth, rng):
    """``ml._grow_tree`` as it was: ``np.unique`` leaf test, ``np.median`` split."""
    if depth == 0 or len(np.unique(y)) == 1 or len(y) < 4:
        return {"leaf": float(np.sign(y.sum()) or 1.0)}
    feature = int(rng.integers(0, x.shape[1]))
    threshold = float(np.median(x[:, feature]))
    left = x[:, feature] <= threshold
    if left.all() or (~left).all():
        return {"leaf": float(np.sign(y.sum()) or 1.0)}
    return {
        "feature": feature,
        "threshold": threshold,
        "left": oracle_grow_tree(x[left], y[left], depth - 1, rng),
        "right": oracle_grow_tree(x[~left], y[~left], depth - 1, rng),
    }


def oracle_synthetic_variants(chunk_id: int, lines: int) -> List[Dict[str, object]]:
    variants = []
    state = (chunk_id + 1) * 48271 % (2**31)
    for line in range(lines):
        state = (16807 * state) % (2**31 - 1)
        variants.append(
            {
                "position": chunk_id * 1_000_000 + line,
                "ref": "ACGT"[state % 4],
                "alt": "ACGT"[(state // 4) % 4],
                "af": (state % 1000) / 1000.0,
            }
        )
    return variants


# ---------------------------------------------------------------- mapreduce
class TestCorpusMemo:
    @pytest.mark.parametrize("total_words,num_chunks", [(5000, 3), (1000, 7), (10, 4), (1, 3)])
    def test_matches_the_per_call_corpus(self, total_words, num_chunks):
        for seed in range(0, 40):
            chunks = mapreduce._corpus_chunks(total_words, num_chunks, seed)
            expected = oracle_make_corpus(total_words, num_chunks, seed)
            assert [list(words) for words, _ in chunks] == expected
            assert [size for _, size in chunks] == [
                sum(len(w) + 1 for w in chunk) for chunk in expected
            ]
            assert chunks == mapreduce._corpus_chunks.__wrapped__(total_words, num_chunks, seed)

    def test_split_payloads_never_alias_the_memo(self):
        payload = {"total_words": 300, "num_mappers": 3, "seed": 5}
        first = mapreduce.split_handler(FakeContext(), payload)
        for chunk in first["chunks"]:
            chunk["words"].append("mutated")
            chunk["words"][0] = "mutated"
        second = mapreduce.split_handler(FakeContext(), payload)
        assert [chunk["words"] for chunk in second["chunks"]] == oracle_make_corpus(300, 3, 5)
        assert mapreduce._corpus_chunks.cache_info().hits == 1

    def test_split_charges_and_uploads_as_before(self):
        ctx = FakeContext("inv-7")
        mapreduce.split_handler(ctx, {"total_words": 5000, "num_mappers": 3, "seed": 9})
        expected = [("download", "mapreduce/input.txt"), ("compute", 6e-5 * 5000)]
        expected += [
            ("upload", f"mapreduce/chunk-inv-7-{index}", sum(len(w) + 1 for w in chunk))
            for index, chunk in enumerate(oracle_make_corpus(5000, 3, 9))
        ]
        assert ctx.calls == expected

    def test_map_counts_match_the_loop_including_key_order(self):
        for seed in range(1, 31):
            for words in oracle_make_corpus(5000, 3, seed):
                counts = mapreduce.map_handler(FakeContext(), {"words": words})["counts"]
                expected = oracle_count_words(words)
                assert type(counts) is dict
                assert list(counts.items()) == list(expected.items())
        assert mapreduce.map_handler(FakeContext(), {})["counts"] == {}


# ----------------------------------------------------------------------- ml
class TestTrainAccuracyMemo:
    @pytest.mark.parametrize("kind", ["svm", "forest", "gbdt"])
    def test_matches_the_inline_training(self, kind):
        for seed in range(5, 17):
            accuracy = ml._train_accuracy(kind, seed)
            assert accuracy == oracle_accuracy(kind, seed)
            assert accuracy == ml._train_accuracy.__wrapped__(kind, seed)

    @pytest.mark.parametrize("kind,work,model_size", [
        ("svm", ml._SVM_WORK_PER_CELL * 500 * 1024, 1024 * 8),
        ("forest", ml._FOREST_WORK_PER_CELL * 500 * 1024, 50_000),
    ])
    def test_handler_charges_and_uploads_as_before(self, kind, work, model_size):
        task = {"kind": kind, "dataset_key": "ml/d.npy", "samples": 500,
                "features": 1024, "seed": 8}
        for _ in range(2):  # the memo hit must charge exactly like the miss
            ctx = FakeContext("inv-3")
            result = ml.train_handler(ctx, task)
            assert ctx.calls == [
                ("download", "ml/d.npy"),
                ("compute", work),
                ("upload", f"ml/model-{kind}-inv-3.bin", model_size),
            ]
            assert result == {"kind": kind, "accuracy": oracle_accuracy(kind, 8),
                              "model_key": f"ml/model-{kind}-inv-3.bin"}
        assert ml._train_accuracy.cache_info().hits == 1


class TestGrowTree:
    """The tree grower against its ``np.unique``/``np.median`` original."""

    @pytest.mark.parametrize("kind", ["svm", "forest"])
    def test_accuracy_bits_match_the_original_grower(self, kind, monkeypatch):
        train = ml._train_accuracy.__wrapped__
        current = [train(kind, seed).hex() for seed in range(400)]
        monkeypatch.setattr(ml, "_grow_tree", oracle_grow_tree)
        assert current == [train(kind, seed).hex() for seed in range(400)]

    def test_median_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for size in range(1, 130):
            for values in (rng.normal(size=size), rng.integers(0, 4, size).astype(float)):
                assert ml._median(values).hex() == float(np.median(values)).hex()


# ------------------------------------------------------------------- genome
class TestVariantCountsMemo:
    @pytest.mark.parametrize("lines", [0, 1, 150, 200])
    def test_matches_the_per_call_variant_lists(self, lines):
        for chunk_id in range(0, 97):
            variants = oracle_synthetic_variants(chunk_id, lines)
            assert genome._variant_counts(chunk_id, lines) == (
                len(variants),
                sum(1 for v in variants if v["af"] < 0.05),
                sum(1 for v in variants if v["ref"] != v["alt"] and v["af"] > 0.1),
                sum(v["af"] for v in variants),
            )

    def test_handlers_report_the_oracle_values(self):
        ctx = FakeContext()
        for chunk_id in range(5):
            result = genome.individuals_handler(ctx, {"chunk_id": chunk_id, "lines": 250})
            variants = oracle_synthetic_variants(chunk_id, 200)
            assert result["variant_count"] == 200
            assert result["rare_variant_count"] == sum(1 for v in variants if v["af"] < 0.05)
        for population in genome.POPULATIONS:
            item = {"population": population, "merged_key": "genome/merged-x"}
            variants = oracle_synthetic_variants(genome._population_chunk(population, 97), 150)
            assert genome.mutation_overlap_handler(ctx, item)["overlap"] == sum(
                1 for v in variants if v["ref"] != v["alt"] and v["af"] > 0.1
            )
            variants = oracle_synthetic_variants(genome._population_chunk(population, 89), 150)
            assert genome.frequency_handler(ctx, item)["mean_frequency"] == round(
                sum(v["af"] for v in variants) / len(variants), 4
            )

    def test_population_chunks_are_pinned(self):
        # SHA-256 derived: identical under every PYTHONHASHSEED and process.
        assert [genome._population_chunk(p, 97) for p in genome.POPULATIONS] == \
            [74, 59, 73, 89, 50, 28]
        assert [genome._population_chunk(p, 89) for p in genome.POPULATIONS] == \
            [56, 24, 68, 19, 26, 20]


# ------------------------------------------------------------------- bounds
class TestMemoBounds:
    def test_every_memo_is_bounded(self):
        for memo in MEMOS:
            assert memo.cache_info().maxsize is not None

    def test_corpus_memo_evicts_past_maxsize(self):
        maxsize = mapreduce._corpus_chunks.cache_info().maxsize
        for seed in range(maxsize + 20):
            mapreduce._corpus_chunks(20, 3, seed)
        assert mapreduce._corpus_chunks.cache_info().currsize == maxsize

    def test_variant_memo_evicts_past_maxsize(self):
        maxsize = genome._variant_counts.cache_info().maxsize
        for chunk_id in range(maxsize + 20):
            genome._variant_counts(chunk_id, 1)
        assert genome._variant_counts.cache_info().currsize == maxsize

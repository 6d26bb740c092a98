// Concurrency stress for the sharded draw/count fan-out and the engine
// facade. These tests are meaningful in every build, but their real job is
// under the `tsan` preset (-fsanitize=thread), where they hammer the
// lock-free paths this PR introduced:
//
//   1. A shared const sampler serves DrawManySharded / sharded DrawCounts /
//      sharded SampleSetGroup::Draw from many OS threads at once — the alias
//      tables must be safely readable concurrently, and every caller's
//      result must stay byte-identical to a sequential reference.
//   2. SampleCounter's per-worker shard design (CountSink::AcquireShard)
//      must produce byte-identical SampleSets at ANY worker count with no
//      locking on the Consume hot path.
//   3. Concurrent Engine sessions over one oracle must not interfere:
//      every thread's Report matches the single-threaded reference.
//   4. ConcurrentHistogram's lock-free ingest: many writers Record while
//      readers Snapshot/Merge/DeltaSince concurrently — totals must be
//      monotone per reader, and the final snapshot byte-identical to a
//      sequential reference over the same values.
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "sample/counter.h"
#include "sample/sample_set.h"
#include "stream/concurrent_histogram.h"
#include "stream/log_bucket.h"
#include "util/interval.h"
#include "util/rng.h"

namespace histk {
namespace {

// Large enough that the sharded paths split into several kShardChunk
// chunks, small enough that the suite stays fast under TSan's slowdown.
constexpr int64_t kDraws = int64_t{1} << 18;
constexpr int kOuterThreads = 8;

Distribution DenseSkewed() { return MakeZipf(512, 1.1); }

Distribution BucketHuge() {
  const int64_t n = int64_t{1} << 30;
  return Distribution::FromBucketWeights(
      n, {999, n / 4, n / 2, n - 2, n - 1}, {4.0, 2.0, 0.0, 3.0, 1.0});
}

void ExpectSameSampleSet(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  ASSERT_EQ(a.distinct_values(), b.distinct_values());
  const Interval full = Interval::Full(a.n());
  EXPECT_EQ(a.Count(full), b.Count(full));
  EXPECT_EQ(a.Collisions(full), b.Collisions(full));
  Rng probe(0xABCD);
  for (int q = 0; q < 32; ++q) {
    const int64_t x = probe.UniformInRange(0, a.n() - 1);
    const int64_t y = probe.UniformInRange(0, a.n() - 1);
    const Interval I(std::min(x, y), std::max(x, y));
    EXPECT_EQ(a.Count(I), b.Count(I));
    EXPECT_EQ(a.Collisions(I), b.Collisions(I));
  }
}

// ------------------------------------------------- shared-sampler readers

// Many threads draw from ONE const sampler simultaneously, each through the
// sharded batched kernel (which itself spawns workers). Every thread's
// output must equal the sequential reference for its seed: the sampler's
// tables are read-only shared state, and the per-thread Rngs are the only
// mutable state.
TEST(ConcurrencyStressTest, ConcurrentDrawManyShardedOnSharedSampler) {
  const Distribution d = DenseSkewed();
  const AliasSampler sampler(d);

  std::vector<std::vector<int64_t>> expected(kOuterThreads);
  for (int t = 0; t < kOuterThreads; ++t) {
    Rng rng(1000 + t);
    expected[t] = sampler.DrawManySharded(kDraws, rng, /*threads=*/1);
  }

  std::vector<std::vector<int64_t>> got(kOuterThreads);
  std::vector<std::thread> threads;
  threads.reserve(kOuterThreads);
  for (int t = 0; t < kOuterThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      got[t] = sampler.DrawManySharded(kDraws, rng, /*threads=*/4);
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kOuterThreads; ++t) EXPECT_EQ(got[t], expected[t]);
}

// The fused draw->count path under the same regime: concurrent
// sharded SampleSet::Draw callers over one sampler, inner worker counts
// varying per caller. Byte-identical sets regardless, on the per-draw and
// on the count kernel.
TEST(ConcurrencyStressTest, ConcurrentShardedDrawCountsOnSharedSampler) {
  for (const AliasKernel kernel : {AliasKernel::kReplay, AliasKernel::kCounts})
  for (const Distribution& d : {DenseSkewed(), BucketHuge()}) {
    const AliasSampler sampler(d, kernel);

    std::vector<SampleSet> expected;
    for (int t = 0; t < kOuterThreads; ++t) {
      Rng rng(2000 + t);
      expected.push_back(
          SampleSet::Draw(sampler, kDraws, rng, /*threads=*/1));
    }

    std::vector<std::optional<SampleSet>> got(kOuterThreads);
    std::vector<std::thread> threads;
    threads.reserve(kOuterThreads);
    for (int t = 0; t < kOuterThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(2000 + t);
        got[t] = SampleSet::Draw(sampler, kDraws, rng, /*threads=*/1 + t % 4);
      });
    }
    for (std::thread& th : threads) th.join();

    for (int t = 0; t < kOuterThreads; ++t) {
      ASSERT_TRUE(got[t].has_value());
      ExpectSameSampleSet(*got[t], expected[t]);
    }
  }
}

// Sharded SampleSetGroup::Draw (r sets, each fused+sharded) from many
// threads at once against one sampler.
TEST(ConcurrencyStressTest, ConcurrentGroupDrawShardedOnSharedSampler) {
  const Distribution d = DenseSkewed();
  const AliasSampler sampler(d);
  const int64_t r = 4;
  const int64_t m = kDraws / 8;

  Rng ref_rng(42);
  const SampleSetGroup reference =
      SampleSetGroup::Draw(sampler, r, m, ref_rng, /*threads=*/1);

  std::vector<std::thread> threads;
  std::vector<int> failures(kOuterThreads, 0);
  threads.reserve(kOuterThreads);
  for (int t = 0; t < kOuterThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(42);
      const SampleSetGroup g =
          SampleSetGroup::Draw(sampler, r, m, rng, /*threads=*/2 + t % 3);
      if (g.r() != reference.r() || g.n() != reference.n()) {
        failures[t] = 1;
        return;
      }
      for (int64_t j = 0; j < r; ++j) {
        if (g.set(j).distinct_values() !=
            reference.set(j).distinct_values()) {
          failures[t] = 1;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kOuterThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t << " diverged";
  }
}

// ------------------------------------------------- shard-merge parity

// The SampleCounter per-worker shard design directly: the fused sharded
// pipeline must yield byte-identical sets and exact totals at every worker
// count, including counts far above the chunk count (idle workers).
TEST(ConcurrencyStressTest, ShardMergeByteIdenticalAcrossWorkerCounts) {
  for (const Distribution& d : {DenseSkewed(), BucketHuge()}) {
    const AliasSampler sampler(d);

    Rng ref_rng(7);
    SampleCounter ref_counter(sampler.n(), kDraws);
    sampler.DrawCounts(kDraws, ref_rng, ref_counter, 1);
    ASSERT_EQ(ref_counter.total(), kDraws);
    const SampleSet reference = ref_counter.Build();
    Rng ref_probe = ref_rng;  // post-draw rng state fingerprint
    const uint64_t expect_next = ref_probe.NextU64();

    for (int workers : {2, 3, 4, 8, 16}) {
      Rng rng(7);
      SampleCounter counter(sampler.n(), kDraws);
      sampler.DrawCounts(kDraws, rng, counter, workers);
      EXPECT_EQ(counter.total(), kDraws) << "workers=" << workers;
      ExpectSameSampleSet(counter.Build(), reference);
      EXPECT_EQ(rng.NextU64(), expect_next) << "workers=" << workers;
    }
  }
}

// ------------------------------------------------- concurrent engine runs

// Engine sessions are stateless and hold only const references; running
// the same spec from many threads (each spec itself drawing sharded) must
// give every thread the single-threaded reference report.
TEST(ConcurrencyStressTest, ConcurrentEngineSessionsOverOneOracle) {
  const Distribution d = MakeZipf(256, 1.2);
  const AliasSampler oracle(d);
  const Engine engine(oracle, d);

  LearnSpec spec;
  spec.seed = 11;
  spec.budget = 400'000;
  spec.options.k = 4;
  spec.options.eps = 0.25;
  spec.draw_threads = 2;

  const Result<Report> reference = engine.Run(spec);
  ASSERT_TRUE(reference.ok());

  std::vector<int> failures(kOuterThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kOuterThreads);
  for (int t = 0; t < kOuterThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread constructs its own session over the shared oracle.
      const Engine session(oracle, d);
      const Result<Report> r = session.Run(spec);
      if (!r.ok() ||
          r->outcome != reference->outcome ||
          r->telemetry.samples_drawn !=
              reference->telemetry.samples_drawn ||
          !r->learn.has_value() ||
          r->learn->tiling.ToString() !=
              reference->learn->tiling.ToString()) {
        failures[t] = 1;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kOuterThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t << " diverged";
  }
}

// ------------------------------------------------- lock-free telemetry

// N writers hammer Record while M readers hammer Snapshot/Merge/DeltaSince
// against the same histogram, with no coordination beyond the final joins.
// Contracts under fire:
//   * every value is conserved: the final snapshot's count VECTOR equals a
//     sequential reference over the same deterministic value streams;
//   * each reader observes monotone non-decreasing totals, and successive
//     snapshots satisfy the DeltaSince domination contract (its always-on
//     check doubles as the assertion);
//   * Merge during writes conserves whatever the two operands held.
// Under the tsan preset this is the race gauntlet for the relaxed-atomics
// design; in normal builds it is a hard conservation test.
TEST(ConcurrencyStressTest, ConcurrentHistogramWritersAndReaders) {
  constexpr int kWriters = 8;
  constexpr int kReaders = 4;
  constexpr int64_t kPerWriter = kDraws / 8;
  constexpr int kSnapshotsPerReader = 64;
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kWriters) * static_cast<uint64_t>(kPerWriter);

  // Writer w's value stream is Rng(6000 + w): replayable sequentially.
  auto writer_value = [](Rng& rng, int w) {
    // Mix of narrow and full-width values so both the denormal and the
    // geometric bucket regions see traffic.
    return rng.NextU64() >> (8 * (w % 8));
  };

  ConcurrentHistogram sequential(kLogBucketDefaultMantissaBits, /*num_shards=*/1);
  for (int w = 0; w < kWriters; ++w) {
    Rng rng(6000 + w);
    for (int64_t i = 0; i < kPerWriter; ++i) {
      sequential.Record(writer_value(rng, w));
    }
  }
  const HistogramSnapshot expected = sequential.Snapshot();
  ASSERT_EQ(expected.TotalCount(), kTotal);

  ConcurrentHistogram hist;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  std::vector<int> reader_failures(kReaders, 0);

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&hist, &writer_value, w] {
      Rng rng(6000 + w);
      for (int64_t i = 0; i < kPerWriter; ++i) {
        hist.Record(writer_value(rng, w));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&hist, &reader_failures, r] {
      HistogramSnapshot prev = hist.Snapshot();
      HistogramSnapshot merged = prev;  // rolling Merge target under fire
      for (int s = 0; s < kSnapshotsPerReader; ++s) {
        const HistogramSnapshot now = hist.Snapshot();
        if (now.TotalCount() < prev.TotalCount() || now.TotalCount() > kTotal) {
          reader_failures[r] = 1;
          return;
        }
        // DeltaSince returns InvalidArgument if `now` fails to dominate
        // `prev` bucketwise — per-reader snapshots of one histogram must be
        // an ordered pair even mid-write.
        const Result<HistogramSnapshot> window = now.DeltaSince(prev);
        if (!window.ok() || !merged.Merge(*window).ok()) {
          reader_failures[r] = 1;
          return;
        }
        if (merged != now) {
          reader_failures[r] = 1;  // rolling merge lost or invented counts
          return;
        }
        prev = now;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(reader_failures[r], 0) << "reader " << r << " saw a violation";
  }

  // Byte-checked conservation: not just the totals — the entire per-bucket
  // count vector must match the sequential reference exactly.
  const HistogramSnapshot final_snap = hist.Snapshot();
  EXPECT_EQ(final_snap.TotalCount(), kTotal);
  EXPECT_EQ(final_snap.counts(), expected.counts());
  EXPECT_EQ(final_snap, expected);
}

// Cross-histogram aggregation while both operands are still being written:
// Merge of two concurrent snapshots conserves exactly the counts the two
// snapshots held (commutativity under fire).
TEST(ConcurrencyStressTest, ConcurrentHistogramMergeUnderWrites) {
  constexpr int64_t kPerHistogram = kDraws / 8;
  ConcurrentHistogram a, b;

  std::vector<std::thread> writers;
  writers.reserve(2);
  for (ConcurrentHistogram* h : {&a, &b}) {
    writers.emplace_back([h] {
      Rng rng(7000);  // same stream for both: only conservation is at stake
      for (int64_t i = 0; i < kPerHistogram; ++i) h->Record(rng.NextU64() >> 20);
    });
  }

  for (int round = 0; round < 32; ++round) {
    const HistogramSnapshot sa = a.Snapshot();
    const HistogramSnapshot sb = b.Snapshot();
    HistogramSnapshot ab = sa;
    ASSERT_TRUE(ab.Merge(sb).ok());
    HistogramSnapshot ba = sb;
    ASSERT_TRUE(ba.Merge(sa).ok());
    ASSERT_EQ(ab, ba) << "round " << round;
    ASSERT_EQ(ab.TotalCount(), sa.TotalCount() + sb.TotalCount());
  }
  for (std::thread& th : writers) th.join();

  HistogramSnapshot final_ab = a.Snapshot();
  ASSERT_TRUE(final_ab.Merge(b.Snapshot()).ok());
  EXPECT_EQ(final_ab.TotalCount(),
            2 * static_cast<uint64_t>(kPerHistogram));
}

TEST(ConcurrencyStressTest, GovernedSessionsBackpressureUnderLoad) {
  // 8 threads hammer one governor with Engine sessions while only 2 slots
  // (and a finite aggregate budget) exist. Every run must end ok or be
  // rejected with a typed kUnavailable — never crash, hang, or trip the
  // governor's release-accounting invariant — and afterwards the governor
  // must drain back to zero.
  const Distribution d = MakeZipf(256, 1.1);
  const AliasSampler oracle(d);
  const Engine engine(oracle);

  SessionGovernor governor(
      {/*max_sessions=*/2, /*max_outstanding_budget=*/1 << 26, /*retry_after_ms=*/1});

  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 6;
  std::vector<std::thread> workers;
  std::vector<int> completed(kThreads, 0), rejected(kThreads, 0), wrong(kThreads, 0);
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int run = 0; run < kRunsPerThread; ++run) {
        TestSpec spec;
        spec.seed = static_cast<uint64_t>(101 + t * kRunsPerThread + run);
        spec.budget = 1 << 23;  // a ~5M-draw session fits with headroom
        spec.config.k = 4;
        spec.config.eps = 0.3;
        spec.config.sample_scale = 0.005;  // keep each session small
        spec.config.r_override = 9;        // and fast (like the parity tests)
        spec.policy.governor = &governor;
        spec.policy.retry.max_retries = 0;
        const Result<Report> result = engine.Run(spec);
        if (result.ok() && result->status == StatusCode::kOk &&
            !result->degraded) {
          ++completed[static_cast<size_t>(t)];
        } else if (!result.ok() &&
                   result.status().code() == StatusCode::kUnavailable) {
          ++rejected[static_cast<size_t>(t)];
        } else {
          ++wrong[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : workers) th.join();

  int total_completed = 0, total_rejected = 0, total_wrong = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_completed += completed[static_cast<size_t>(t)];
    total_rejected += rejected[static_cast<size_t>(t)];
    total_wrong += wrong[static_cast<size_t>(t)];
  }
  EXPECT_EQ(total_wrong, 0);
  EXPECT_EQ(total_completed + total_rejected, kThreads * kRunsPerThread);
  EXPECT_GT(total_completed, 0);  // 2 slots: someone always gets through
  EXPECT_EQ(governor.in_flight(), 0);
  EXPECT_EQ(governor.outstanding_budget(), 0);
  EXPECT_EQ(governor.rejected(), total_rejected);
}

}  // namespace
}  // namespace histk

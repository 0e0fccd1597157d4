// Production sweep service (DESIGN.md §14): content-hash cache and
// checkpoint/resume. The contracts under test are all BIT-identity
// contracts — a restored or resumed result must be indistinguishable
// from a cold computation, byte for byte across every output format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/result_cache.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_io.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.systems.push_back({"h1x2", topo::SystemConfig::homogeneous(4, 1, 2)});
  spec.patterns.push_back({"uniform", sim::TrafficPattern{}});
  PatternEntry local{"local", {}};
  local.pattern.kind = sim::PatternKind::kLocalFavor;
  local.pattern.local_fraction = 0.7;
  spec.patterns.push_back(local);
  spec.loads = {5e-4, 1e-3};
  spec.replications = 2;
  spec.warmup = 200;
  spec.measured = 2'000;
  spec.find_knee = true;
  return spec;
}

/// A scratch directory unique to the calling test.
std::string scratch_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "mcs_service_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void expect_rows_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const std::string ctx = "row " + std::to_string(i);
    EXPECT_EQ(encode_row_payload(a.rows[i]), encode_row_payload(b.rows[i]))
        << ctx;
    EXPECT_EQ(a.rows[i].grid_index, b.rows[i].grid_index) << ctx;
    EXPECT_EQ(a.rows[i].system_id, b.rows[i].system_id) << ctx;
    EXPECT_EQ(a.rows[i].pattern_id, b.rows[i].pattern_id) << ctx;
    EXPECT_EQ(a.rows[i].lambda, b.rows[i].lambda) << ctx;
  }
}

/// Every user-facing rendering, byte for byte.
void expect_outputs_byte_identical(const SweepResult& a,
                                   const SweepResult& b,
                                   const std::string& dir) {
  EXPECT_EQ(to_table(a).render(), to_table(b).render());

  std::ostringstream ja, jb;
  write_json(a, ja, /*stable=*/true);
  write_json(b, jb, /*stable=*/true);
  EXPECT_EQ(ja.str(), jb.str());

  write_csv(a, dir + "/a.csv");
  write_csv(b, dir + "/b.csv");
  EXPECT_EQ(util::read_file(dir + "/a.csv"), util::read_file(dir + "/b.csv"));
}

// --- row payload codec ---------------------------------------------------

TEST(RowPayload, RoundTripsEveryOutputFieldBitExact) {
  SweepRow row;
  row.paper_run = true;
  row.paper_latency = 0.1 + 0.2;  // not exactly 0.3: hexfloat must keep it
  row.paper_stable = true;
  row.refined_run = true;
  row.refined_latency = std::numeric_limits<double>::infinity();
  row.refined_stable = false;
  row.knee_lambda = 1.23456789012345e-4;
  row.sim_lambda_sat = 9.87e-5;
  row.sat_ratio = 0.913;
  row.sim_run = true;
  row.replications = 7;
  row.completed = 5;
  row.saturated = 2;
  row.saturation_causes = "worms+events";
  row.sim_latency = 17.25;
  row.sim_ci = 0.03125;
  row.sim_internal = 3.5;
  row.sim_external = 21.75;
  row.external_share = 0.875;
  row.sim_p50 = 16.0;
  row.sim_p95 = 40.5;
  row.sim_p99 = 55.125;
  row.sim_state = 2;

  const std::string payload = encode_row_payload(row);
  SweepRow restored;
  ASSERT_TRUE(decode_row_payload(payload, restored));
  // Bit-identity: re-encoding the restored row reproduces the payload.
  EXPECT_EQ(encode_row_payload(restored), payload);
  EXPECT_EQ(restored.paper_latency, row.paper_latency);
  EXPECT_TRUE(std::isinf(restored.refined_latency));
  EXPECT_EQ(restored.saturation_causes, "worms+events");
  EXPECT_EQ(restored.sim_state, 2);
}

TEST(RowPayload, EmptySaturationCausesSurvive) {
  SweepRow row;
  row.sim_run = true;
  const std::string payload = encode_row_payload(row);
  SweepRow restored;
  restored.saturation_causes = "stale";
  ASSERT_TRUE(decode_row_payload(payload, restored));
  EXPECT_EQ(restored.saturation_causes, "");
}

TEST(RowPayload, RejectsMalformedAndWrongVersion) {
  SweepRow row;
  EXPECT_FALSE(decode_row_payload("", row));
  EXPECT_FALSE(decode_row_payload("not-a-payload v1", row));
  EXPECT_FALSE(decode_row_payload("mcs-row-payload v999 sim_state=0", row));
  // Truncated: right magic, missing fields.
  EXPECT_FALSE(decode_row_payload("mcs-row-payload v1 sim_state=0", row));
  // Corrupt value.
  std::string payload = encode_row_payload(SweepRow{});
  const std::size_t pos = payload.find("sim_state=");
  payload.replace(pos, std::string::npos, "sim_state=banana");
  EXPECT_FALSE(decode_row_payload(payload, row));
}

// --- digest sensitivity --------------------------------------------------

TEST(RowDigest, SensitiveToEveryKeyedInput) {
  const ScenarioSpec spec = tiny_spec();
  const SweepRunner runner(spec);
  const SweepPlan plan = runner.plan("fp");
  ASSERT_EQ(plan.rows.size(), 4u);

  // All digests distinct (different grid points).
  for (std::size_t i = 0; i < plan.digests.size(); ++i)
    for (std::size_t j = i + 1; j < plan.digests.size(); ++j)
      EXPECT_NE(plan.digests[i], plan.digests[j]);

  const SweepRow& row = plan.rows.front();
  const std::string base = row_digest(spec, row, "fp");
  EXPECT_EQ(base.size(), 64u);
  EXPECT_EQ(base, plan.digests.front());  // plan agrees with row_digest

  // Binary fingerprint enters the key (rebuild invalidation).
  EXPECT_NE(row_digest(spec, row, "fp2"), base);

  // Scenario seed and evaluation switches enter the key.
  ScenarioSpec mutated = spec;
  mutated.seed += 1;
  EXPECT_NE(row_digest(mutated, row, "fp"), base);
  mutated = spec;
  mutated.measured += 1;
  EXPECT_NE(row_digest(mutated, row, "fp"), base);
  mutated = spec;
  mutated.run_paper_model = false;
  EXPECT_NE(row_digest(mutated, row, "fp"), base);

  // Grid coordinates enter the key even at equal resolved values: task
  // seeds derive from the coordinates, so the same lambda at a different
  // load index is a different simulation.
  SweepRow moved = row;
  moved.load_idx += 1;
  EXPECT_NE(row_digest(spec, moved, "fp"), base);
}

// The digest of a bundled scenario's row, pinned: any change to the key
// set or its encoding orphans every existing --cache entry and
// --checkpoint journal, so it must be deliberate (and update this pin).
TEST(RowDigest, PinnedForBundledSmokeScenario) {
  const ScenarioSpec spec =
      load_scenario(default_scenario_dir() + "/smoke.ini");
  const SweepPlan plan = SweepRunner(spec).plan("fixed-fingerprint");
  ASSERT_FALSE(plan.digests.empty());
  EXPECT_EQ(plan.digests.front(),
            "5229cd79abc043a7ea08b0b0944d2473bf39b5492c5d11f38b3ab47299ac029c");
}

// --- result cache --------------------------------------------------------

TEST(ResultCacheService, WarmRunExecutesZeroSimulationsByteIdentically) {
  const std::string dir = scratch_dir("warm");
  const SweepRunner runner(tiny_spec());

  SweepRunOptions options;
  options.threads = 2;
  options.cache_dir = dir + "/cache";
  options.fingerprint = "test-fp";
  const SweepResult cold = runner.run(options);
  EXPECT_EQ(cold.cached_rows, 0);
  EXPECT_EQ(cold.sim_tasks, 8);  // 4 rows x 2 replications

  const SweepResult warm = runner.run(options);
  EXPECT_EQ(warm.cached_rows, 4);
  EXPECT_EQ(warm.sim_tasks, 0);      // zero simulations
  EXPECT_TRUE(warm.task_stats.empty());  // zero tasks of any kind

  expect_rows_identical(cold, warm);
  expect_outputs_byte_identical(cold, warm, dir);
}

TEST(ResultCacheService, FingerprintChangeInvalidatesEveryEntry) {
  const std::string dir = scratch_dir("fp");
  const SweepRunner runner(tiny_spec());

  SweepRunOptions options;
  options.cache_dir = dir + "/cache";
  options.fingerprint = "build-A";
  (void)runner.run(options);

  options.fingerprint = "build-B";  // same cache dir, new binary identity
  const SweepResult rebuilt = runner.run(options);
  EXPECT_EQ(rebuilt.cached_rows, 0);
  EXPECT_EQ(rebuilt.sim_tasks, 8);
}

TEST(ResultCacheService, CorruptEntryIsTreatedAsMiss) {
  const std::string dir = scratch_dir("corrupt");
  const SweepRunner runner(tiny_spec());

  SweepRunOptions options;
  options.cache_dir = dir + "/cache";
  options.fingerprint = "fp";
  const SweepResult cold = runner.run(options);

  // Truncate every cache entry.
  for (const auto& entry : fs::directory_iterator(options.cache_dir))
    util::write_file_atomic(entry.path().string(), "mcs-row-payload v1 gar");

  const SweepResult rerun = runner.run(options);
  EXPECT_EQ(rerun.cached_rows, 0);  // misses, not crashes or stale rows
  expect_rows_identical(cold, rerun);
}

/// The segment files (`*.pack`) in a cache directory, sorted by name.
std::vector<std::string> packs_in(const std::string& dir) {
  std::vector<std::string> packs;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".pack")
      packs.push_back(entry.path().string());
  std::sort(packs.begin(), packs.end());
  return packs;
}

TEST(ResultCacheService, TornLastLineMissesOnlyThatDigest) {
  const std::string dir = scratch_dir("torn") + "/cache";
  {
    const ResultCache cache(dir);
    cache.store("d1", "mcs-row-payload v1 a=1 b=2");
    cache.store("d2", "mcs-row-payload v1 a=3 b=4");
  }
  const std::vector<std::string> packs = packs_in(dir);
  ASSERT_EQ(packs.size(), 1U);
  std::string bytes = util::read_file(packs[0]).value();
  ASSERT_EQ(bytes.back(), '\n');
  bytes.pop_back();  // a crash before the last newline landed
  util::write_file_atomic(packs[0], bytes);

  const ResultCache reopened(dir);
  EXPECT_EQ(reopened.load("d1"), "mcs-row-payload v1 a=1 b=2");
  EXPECT_EQ(reopened.load("d2"), std::nullopt);

  // The re-store goes to a new segment, never behind the torn fragment.
  reopened.store("d2", "mcs-row-payload v1 a=3 b=4");
  EXPECT_EQ(util::read_file(packs[0]), bytes);
  EXPECT_EQ(packs_in(dir).size(), 2U);
  EXPECT_EQ(ResultCache(dir).load("d2"), "mcs-row-payload v1 a=3 b=4");
}

TEST(ResultCacheService, InstancesWriteSeparateSegmentsAThirdSeesBoth) {
  const std::string dir = scratch_dir("two_writers") + "/cache";
  const ResultCache a(dir);
  const ResultCache b(dir);
  a.store("da", "payload from a");
  b.store("db", "payload from b");
  EXPECT_EQ(packs_in(dir).size(), 2U);

  const ResultCache c(dir);
  EXPECT_EQ(c.load("da"), "payload from a");
  EXPECT_EQ(c.load("db"), "payload from b");
}

TEST(ResultCacheService, ConcurrentStoresReloadByteEqual) {
  const std::string dir = scratch_dir("threads") + "/cache";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  // Appended piecewise: `"t" + std::to_string(...)` trips GCC 12's
  // -Wrestrict false positive (GCC bug 105651) at -O3.
  const auto digest = [](int t, int i) {
    std::string d = "t";
    d += std::to_string(t);
    d += 'i';
    d += std::to_string(i);
    return d;
  };
  const auto payload = [](int t, int i) {
    std::ostringstream out;
    out << "mcs-row-payload v1 thread=" << t << " i=" << i
        << " x=" << std::hexfloat << (t + 1) * 0.1 * i;
    return out.str();
  };
  {
    const ResultCache cache(dir);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i)
          cache.store(digest(t, i), payload(t, i));
      });
    for (std::thread& w : writers) w.join();
    EXPECT_EQ(cache.load(digest(3, kPerThread - 1)),
              payload(3, kPerThread - 1));
  }
  EXPECT_EQ(packs_in(dir).size(), 1U);
  const ResultCache reloaded(dir);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      EXPECT_EQ(reloaded.load(digest(t, i)), payload(t, i)) << digest(t, i);
}

TEST(ResultCacheService, LegacyRowFilesRestoreNothing) {
  const std::string dir = scratch_dir("legacy") + "/cache";
  fs::create_directories(dir);
  const std::string digest(64, 'a');
  util::write_file_atomic(dir + "/" + digest + ".row",
                          "mcs-row-payload v1 paper_run=0");

  std::optional<ResultCache> cache;
  ASSERT_NO_THROW(cache.emplace(dir));
  EXPECT_EQ(cache->load(digest), std::nullopt);
}

// --- plan ----------------------------------------------------------------

// A knee_loads scenario resolves its knee in the runner, so plan() sees
// the same absolute lambda, and so the same digest, as run().
TEST(SweepPlan, KneeLoadsPlanMatchesRun) {
  ScenarioSpec spec = tiny_spec();
  spec.loads = {0.3, 0.6};
  spec.knee_relative_loads = true;
  const SweepRunner runner(spec);

  SweepRunOptions plain;
  plain.fingerprint = "fp";
  const SweepResult whole = runner.run(plain);

  const SweepPlan plan = runner.plan("fp");
  ASSERT_EQ(plan.rows.size(), whole.rows.size());
  for (std::size_t r = 0; r < plan.rows.size(); ++r) {
    EXPECT_EQ(plan.rows[r].grid_index, whole.rows[r].grid_index);
    EXPECT_EQ(plan.rows[r].lambda, whole.rows[r].lambda);
    EXPECT_EQ(plan.digests[r], row_digest(runner.spec(), whole.rows[r], "fp"));
  }
  EXPECT_EQ(plan.rows[0].lambda, 0.3 * whole.rows[0].knee_lambda);
}

// --- checkpoint / resume -------------------------------------------------

TEST(Checkpoint, JournalRoundTripsAndSortsByGridIndex) {
  const std::string path = scratch_dir("journal") + "/j.journal";
  CheckpointWriter writer(path, "tiny", 0, 1);
  writer.add(3, "d3", "mcs-row-payload v1 x=1");
  writer.add(1, "d1", "mcs-row-payload v1 y=2");

  const std::optional<Journal> journal = load_journal(path);
  ASSERT_TRUE(journal.has_value());
  EXPECT_EQ(journal->scenario, "tiny");
  EXPECT_EQ(journal->shard_count, 1);
  ASSERT_EQ(journal->entries.size(), 2u);
  EXPECT_EQ(journal->entries[0].grid_index, 1);  // sorted
  EXPECT_EQ(journal->entries[1].grid_index, 3);
  EXPECT_EQ(journal->entries[0].digest, "d1");
  EXPECT_EQ(journal->entries[0].payload, "mcs-row-payload v1 y=2");

  EXPECT_FALSE(load_journal(path + ".does-not-exist").has_value());
}

// The append segment: adds past the first land as one appended line
// each (with periodic compaction), in whatever order scheduling
// completes rows — the loader must hand back a sorted, deduplicated
// view regardless. 200 reverse-order adds also push well past the
// compaction threshold (floor 64), so both the append and the fold-back
// paths are exercised.
TEST(Checkpoint, AppendedRowsLoadSortedAndDeduplicated) {
  const std::string path = scratch_dir("append") + "/j.journal";
  CheckpointWriter writer(path, "tiny", 0, 1);
  for (int i = 199; i >= 0; --i) {
    // A named suffix: `"lit" + std::to_string(i)` trips GCC 12's
    // -Wrestrict false positive (GCC bug 105651) at -O3.
    const std::string n = std::to_string(i);
    writer.add(i, "d" + n, "mcs-row-payload v1 p=" + n);
  }
  // Re-record one index (the resume-then-recompute pattern): the fresh
  // entry must supersede the stale one.
  writer.add(42, "d42-fresh", "mcs-row-payload v1 p=fresh");

  const std::optional<Journal> journal = load_journal(path);
  ASSERT_TRUE(journal.has_value());
  ASSERT_EQ(journal->entries.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(journal->entries[static_cast<std::size_t>(i)].grid_index, i);
  EXPECT_EQ(journal->entries[42].digest, "d42-fresh");
  EXPECT_EQ(journal->entries[42].payload, "mcs-row-payload v1 p=fresh");
}

// A crash mid-append leaves a torn trailing line (no final newline).
// The loader must drop exactly that fragment — and only that fragment:
// malformed lines before the final newline are real corruption.
TEST(Checkpoint, TornTrailingLineIsDropped) {
  const std::string dir = scratch_dir("torn");
  const std::string header =
      "mcs-journal v1\nscenario x\nshard 0 1\n";
  const std::string row1 = "row 1 d1 mcs-row-payload v1 y=2\n";

  // Torn mid-payload.
  util::write_file_atomic(dir + "/a", header + row1 + "row 7 d7 mcs-row-pa");
  std::optional<Journal> j = load_journal(dir + "/a");
  ASSERT_TRUE(j.has_value());
  ASSERT_EQ(j->entries.size(), 1u);
  EXPECT_EQ(j->entries[0].grid_index, 1);

  // Torn mid-tag.
  util::write_file_atomic(dir + "/b", header + row1 + "ro");
  j = load_journal(dir + "/b");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->entries.size(), 1u);

  // A torn duplicate of a recorded index must not shadow the complete
  // earlier copy (last-occurrence-wins applies to complete lines only).
  util::write_file_atomic(dir + "/c", header + row1 + "row 1 d1-torn");
  j = load_journal(dir + "/c");
  ASSERT_TRUE(j.has_value());
  ASSERT_EQ(j->entries.size(), 1u);
  EXPECT_EQ(j->entries[0].digest, "d1");
  EXPECT_EQ(j->entries[0].payload, "mcs-row-payload v1 y=2");

  // Malformed BEFORE the final newline: still a loud error.
  util::write_file_atomic(dir + "/d", header + "row nope\n" + row1);
  EXPECT_THROW((void)load_journal(dir + "/d"), ConfigError);
}

TEST(Checkpoint, DuplicateGridIndexLastOccurrenceWins) {
  const std::string dir = scratch_dir("dup");
  util::write_file_atomic(
      dir + "/j", "mcs-journal v1\nscenario x\nshard 0 1\n"
                  "row 1 d1-old mcs-row-payload v1 p=old\n"
                  "row 2 d2 mcs-row-payload v1 p=2\n"
                  "row 1 d1-new mcs-row-payload v1 p=new\n");
  const std::optional<Journal> j = load_journal(dir + "/j");
  ASSERT_TRUE(j.has_value());
  ASSERT_EQ(j->entries.size(), 2u);
  EXPECT_EQ(j->entries[0].grid_index, 1);
  EXPECT_EQ(j->entries[0].digest, "d1-new");
  EXPECT_EQ(j->entries[0].payload, "mcs-row-payload v1 p=new");
  EXPECT_EQ(j->entries[1].grid_index, 2);
}

// The scheduling-independence contract: mid-run bytes track completion
// order, but finalize() folds the segment so the finished file depends
// only on the recorded rows.
TEST(Checkpoint, FinalizedBytesIndependentOfAddOrder) {
  const std::string dir = scratch_dir("finalorder");
  const auto entry = [](std::int64_t i) {
    return JournalEntry{i, "d" + std::to_string(i),
                        "mcs-row-payload v1 p=" + std::to_string(i)};
  };

  CheckpointWriter a(dir + "/a.journal", "tiny", 0, 1);
  for (const std::int64_t i : {3, 1, 2})
    a.add(entry(i).grid_index, entry(i).digest, entry(i).payload);
  CheckpointWriter b(dir + "/b.journal", "tiny", 0, 1);
  for (const std::int64_t i : {2, 3, 1})
    b.add(entry(i).grid_index, entry(i).digest, entry(i).payload);

  // Mid-run the files differ (append order) — the loaders already agree.
  EXPECT_NE(util::read_file(dir + "/a.journal"),
            util::read_file(dir + "/b.journal"));

  a.finalize();
  b.finalize();
  const std::optional<std::string> bytes_a =
      util::read_file(dir + "/a.journal");
  ASSERT_TRUE(bytes_a.has_value());
  EXPECT_EQ(bytes_a, util::read_file(dir + "/b.journal"));
}

TEST(Checkpoint, MalformedJournalThrows) {
  const std::string dir = scratch_dir("badjournal");
  util::write_file_atomic(dir + "/bad1", "not-a-journal\n");
  EXPECT_THROW((void)load_journal(dir + "/bad1"), ConfigError);
  util::write_file_atomic(dir + "/bad2", "mcs-journal v1\nscenario x\n"
                                         "shard 5 2\n");
  EXPECT_THROW((void)load_journal(dir + "/bad2"), ConfigError);
  util::write_file_atomic(dir + "/bad3", "mcs-journal v1\nscenario x\n"
                                         "shard 0 1\nrow nope\n");
  EXPECT_THROW((void)load_journal(dir + "/bad3"), ConfigError);
}

TEST(Checkpoint, ResumeFromPartialJournalCompletesIdentically) {
  const std::string dir = scratch_dir("resume");
  const SweepRunner runner(tiny_spec());

  SweepRunOptions full;
  full.fingerprint = "fp";
  full.checkpoint_path = dir + "/full.journal";
  const SweepResult whole = runner.run(full);

  // A half-finished campaign: a journal recording 2 of the 4 rows — the
  // same file state an interrupted (killed) run leaves behind.
  const std::optional<Journal> complete = load_journal(full.checkpoint_path);
  ASSERT_TRUE(complete.has_value());
  ASSERT_EQ(complete->entries.size(), 4u);
  {
    CheckpointWriter half(dir + "/run.journal", complete->scenario, 0, 1);
    for (const std::size_t r : {0u, 2u}) {
      const JournalEntry& entry = complete->entries[r];
      half.add(entry.grid_index, entry.digest, entry.payload);
    }
  }

  SweepRunOptions resume;
  resume.fingerprint = "fp";
  resume.checkpoint_path = dir + "/run.journal";
  resume.resume = true;
  const SweepResult resumed = runner.run(resume);
  EXPECT_EQ(resumed.cached_rows, 2);
  EXPECT_EQ(resumed.sim_tasks, 4);  // only the 2 missing rows x 2 reps
  expect_rows_identical(whole, resumed);
  expect_outputs_byte_identical(whole, resumed, dir);

  // The finalized journal is the uninterrupted run's, byte for byte.
  EXPECT_EQ(util::read_file(resume.checkpoint_path),
            util::read_file(full.checkpoint_path));
}

// Rewrite a journal with its row lines permuted (header untouched).
// load_journal's on-disk files are always grid_index-sorted, so this
// forges the adversarial input: a journal whose ENTRY order disagrees
// with grid order, as a hand-edited or foreign-tool journal could.
std::string permute_journal_rows(const std::string& path,
                                 const std::string& out_path) {
  const std::optional<std::string> text = util::read_file(path);
  EXPECT_TRUE(text.has_value());
  std::istringstream in(*text);
  std::string line, header;
  std::vector<std::string> row_lines;
  int headers = 0;
  while (std::getline(in, line)) {
    if (headers < 3) {
      header += line + "\n";
      ++headers;
    } else if (!line.empty()) {
      row_lines.push_back(line);
    }
  }
  // Reverse, then swap the middle pair when there is one: distinct from
  // both forward and strictly-reversed order.
  std::reverse(row_lines.begin(), row_lines.end());
  if (row_lines.size() >= 3)
    std::swap(row_lines[0], row_lines[row_lines.size() / 2]);
  std::string out = header;
  for (const std::string& row : row_lines) out += row + "\n";
  util::write_file_atomic(out_path, out);
  return out_path;
}

// Regression for the unordered_map digest index of the resume restore
// (sweep.cpp): it is lookup-only — probed per grid row, never iterated
// into output — so restoring from a journal whose entries arrive in any
// order restores the same rows with the same bytes.
TEST(Checkpoint, ResumeOrderIndependent) {
  const std::string dir = scratch_dir("resumeorder");
  const SweepRunner runner(tiny_spec());

  SweepRunOptions make;
  make.fingerprint = "fp";
  make.checkpoint_path = dir + "/full.journal";
  (void)runner.run(make);

  SweepRunOptions resume;
  resume.fingerprint = "fp";
  resume.checkpoint_path = dir + "/full.journal";
  resume.resume = true;
  const SweepResult from_sorted = runner.run(resume);
  EXPECT_EQ(from_sorted.cached_rows, 4);
  EXPECT_EQ(from_sorted.sim_tasks, 0);  // fully restored, zero recompute

  SweepRunOptions resume_permuted;
  resume_permuted.fingerprint = "fp";
  resume_permuted.checkpoint_path = permute_journal_rows(
      make.checkpoint_path, dir + "/permuted.journal");
  resume_permuted.resume = true;
  const SweepResult from_permuted = runner.run(resume_permuted);
  EXPECT_EQ(from_permuted.cached_rows, 4);
  EXPECT_EQ(from_permuted.sim_tasks, 0);

  expect_rows_identical(from_sorted, from_permuted);
  expect_outputs_byte_identical(from_sorted, from_permuted, dir);
}

TEST(Checkpoint, StaleJournalRestoresNothing) {
  const std::string dir = scratch_dir("stale");
  const SweepRunner runner(tiny_spec());

  SweepRunOptions first;
  first.fingerprint = "old-build";
  first.checkpoint_path = dir + "/run.journal";
  (void)runner.run(first);

  // Same journal, new fingerprint: digests match nothing, so every row
  // recomputes — stale bytes can never leak into the result.
  SweepRunOptions resume;
  resume.fingerprint = "new-build";
  resume.checkpoint_path = dir + "/run.journal";
  resume.resume = true;
  const SweepResult resumed = runner.run(resume);
  EXPECT_EQ(resumed.cached_rows, 0);
  EXPECT_EQ(resumed.sim_tasks, 8);
}

// --- option validation ---------------------------------------------------

TEST(ServiceOptions, InvalidCombinationsRejected) {
  const SweepRunner runner(tiny_spec());

  SweepRunOptions resume_only;
  resume_only.resume = true;  // no checkpoint path
  EXPECT_THROW((void)runner.run(resume_only), ConfigError);

  SweepRunOptions observed;
  observed.cache_dir = scratch_dir("observed") + "/cache";
  observed.collect_probes = true;
  EXPECT_THROW((void)runner.run(observed), ConfigError);
  observed.collect_probes = false;
  observed.explain = true;
  EXPECT_THROW((void)runner.run(observed), ConfigError);
}

// --- search results ride the cache ---------------------------------------

TEST(ResultCacheService, SaturationSearchResultsAreCachedToo) {
  const std::string dir = scratch_dir("search");
  ScenarioSpec spec = tiny_spec();
  spec.patterns.resize(1);  // single pattern: one search group
  spec.find_sim_saturation = true;
  spec.search.seq = sim::SequentialSpec{2, 3, 0.3};
  spec.search.rel_tol = 0.2;
  spec.search.max_probes = 8;
  const SweepRunner runner(spec);

  SweepRunOptions options;
  options.cache_dir = dir + "/cache";
  options.fingerprint = "fp";
  const SweepResult cold = runner.run(options);
  ASSERT_GT(cold.rows.size(), 0u);

  const SweepResult warm = runner.run(options);
  EXPECT_EQ(warm.sim_tasks, 0);
  EXPECT_TRUE(warm.task_stats.empty());  // search tasks skipped too
  expect_rows_identical(cold, warm);
}

}  // namespace
}  // namespace mcs::exp

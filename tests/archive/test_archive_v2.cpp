// Sharded archive (format v2): journaled ingest, shard packing, point
// queries that touch a sliver of the archive, dtype-aware accounting,
// and error handling on damaged/missing directories.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "szp/archive/archive_v2.hpp"
#include "szp/archive/layout.hpp"
#include "szp/data/registry.hpp"
#include "szp/metrics/error.hpp"
#include "szp/robust/io.hpp"
#include "szp/util/rng.hpp"

namespace szp::archive {
namespace {

WriterOptions rel_options(double rel, size_t shard_budget = 4u << 20) {
  WriterOptions o;
  o.params.mode = core::ErrorMode::kRel;
  o.params.error_bound = rel;
  o.shard_budget_bytes = shard_budget;
  return o;
}

std::vector<data::Field> suite_fields() {
  return data::make_suite(data::Suite::kHurricane, 0.02);
}

TEST(ArchiveV2, MultiFieldRoundtrip) {
  robust::MemFs fs;
  const auto fields = suite_fields();
  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  for (const auto& f : fields) w.add(f);
  EXPECT_EQ(w.num_pending(), fields.size());
  EXPECT_EQ(w.commit(), 1u);

  ArchiveReader r(fs, "arc");
  EXPECT_EQ(r.generation(), 1u);
  ASSERT_EQ(r.entries().size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(r.entries()[i].name, fields[i].name);
    EXPECT_EQ(r.entries()[i].dims, fields[i].dims);
    EXPECT_GT(r.entries()[i].compression_ratio(), 1.0);
    const auto out = r.extract(i);
    const auto stats = metrics::compare(fields[i].values, out.values);
    EXPECT_LE(stats.max_rel_err, 1e-3 * (1 + 1e-9)) << fields[i].name;
  }
  // A committed archive holds no journal and no temp files.
  EXPECT_FALSE(fs.exists(layout::journal_path("arc")));
}

TEST(ArchiveV2, ShardBudgetSplitsAndZeroMeansPerStream) {
  robust::MemFs fs;
  const auto fields = suite_fields();
  {
    ArchiveWriter w(fs, "tiny", rel_options(1e-3, 1));  // 1-byte budget
    for (const auto& f : fields) w.add(f);
    w.commit();
    ArchiveReader r(fs, "tiny");
    EXPECT_EQ(r.index().shards.size(), fields.size());
  }
  {
    ArchiveWriter w(fs, "per-stream", rel_options(1e-3, 0));
    for (const auto& f : fields) w.add(f);
    w.commit();
    ArchiveReader r(fs, "per-stream");
    EXPECT_EQ(r.index().shards.size(), fields.size());
  }
  {
    ArchiveWriter w(fs, "one", rel_options(1e-3, 64u << 20));
    for (const auto& f : fields) w.add(f);
    w.commit();
    ArchiveReader r(fs, "one");
    EXPECT_EQ(r.index().shards.size(), 1u);
  }
}

TEST(ArchiveV2, ParallelIngestMatchesSerialByteForByte) {
  const auto fields = suite_fields();
  robust::MemFs serial_fs;
  robust::MemFs parallel_fs;
  {
    ArchiveWriter w(serial_fs, "a", rel_options(1e-3));
    for (const auto& f : fields) w.add(f);
    w.commit();
  }
  {
    auto opts = rel_options(1e-3);
    opts.threads = 4;
    ArchiveWriter w(parallel_fs, "a", opts);
    for (const auto& f : fields) w.add(f);
    w.commit();
  }
  EXPECT_EQ(serial_fs.read_file(layout::index_path("a")),
            parallel_fs.read_file(layout::index_path("a")));
  const auto shards = serial_fs.list_dir(layout::shard_dir("a"));
  EXPECT_EQ(shards, parallel_fs.list_dir(layout::shard_dir("a")));
  for (const auto& s : shards) {
    EXPECT_EQ(serial_fs.read_file(layout::shard_path("a", s)),
              parallel_fs.read_file(layout::shard_path("a", s)));
  }
}

TEST(ArchiveV2, AppendCommitBumpsGeneration) {
  robust::MemFs fs;
  const auto fields = suite_fields();
  {
    ArchiveWriter w(fs, "arc", rel_options(1e-3));
    w.add(fields[0]);
    EXPECT_EQ(w.commit(), 1u);
  }
  {
    ArchiveWriter w(fs, "arc", rel_options(1e-3));
    w.add(fields[1]);
    EXPECT_EQ(w.commit(), 2u);
  }
  ArchiveReader r(fs, "arc");
  EXPECT_EQ(r.generation(), 2u);
  ASSERT_EQ(r.entries().size(), 2u);
  EXPECT_EQ(r.extract(fields[0].name).values.size(), fields[0].count());
  EXPECT_EQ(r.extract(fields[1].name).values.size(), fields[1].count());
  // Committing against an existing archive rejects committed names too.
  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  w.add(fields[0]);
  EXPECT_THROW(w.commit(), format_error);
}

TEST(ArchiveV2, RangeQueryMatchesFullDecodeAndStaysLocal) {
  robust::MemFs fs;
  // The locality bar needs a realistically sized entry: on a toy archive
  // the fixed per-query overhead (header + per-block length bytes +
  // footer + index) dominates. Noisy data keeps the payload honest.
  data::Field big;
  big.name = "big";
  big.dims.extents = {1u << 19};
  big.values.resize(big.dims.count());
  Rng rng(42);
  for (auto& v : big.values) v = static_cast<float>(rng.normal() * 16.0);

  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  for (const auto& f : suite_fields()) w.add(f);
  w.add(big);
  w.commit();

  ArchiveReader full_reader(fs, "arc");
  const size_t idx = full_reader.entry_index("big");
  const auto full = full_reader.extract(idx);

  ArchiveReader r(fs, "arc");
  const size_t n = full.values.size();
  const size_t begin = n / 3;
  const size_t end = begin + 2048;
  const auto range = r.extract_range(idx, begin, end);
  ASSERT_EQ(range.size(), end - begin);
  for (size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(range[i], full.values[begin + i]) << i;
  }
  // The point query must touch a small fraction of the archive: the
  // acceptance bar is < 5% of total committed bytes.
  const double fraction =
      static_cast<double>(r.io_stats().bytes_read) /
      static_cast<double>(r.archive_bytes());
  EXPECT_LT(fraction, 0.05) << "touched " << r.io_stats().bytes_read
                            << " of " << r.archive_bytes();

  // And it must answer faster than decoding the whole entry. Each side is
  // the best of three cold readers, so one preempted rep cannot decide.
  using Clock = std::chrono::steady_clock;
  double full_s = 1e30;
  double query_s = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    ArchiveReader full_cold(fs, "arc");
    auto t0 = Clock::now();
    (void)full_cold.extract(idx);
    full_s = std::min(
        full_s, std::chrono::duration<double>(Clock::now() - t0).count());
    ArchiveReader query_cold(fs, "arc");
    t0 = Clock::now();
    (void)query_cold.extract_range(idx, begin, end);
    query_s = std::min(
        query_s, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  EXPECT_LT(query_s, full_s);

  // Degenerate ranges and bounds.
  EXPECT_TRUE(r.extract_range(idx, 5, 5).empty());
  EXPECT_THROW((void)r.extract_range(idx, 0, n + 1), format_error);
  EXPECT_THROW((void)r.extract_range(idx, 3, 2), format_error);
}

TEST(ArchiveV2, F64EntriesRoundtripWithHonestRatio) {
  robust::MemFs fs;
  std::vector<double> values(4096);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i) * 0.01) * 40.0;
  }
  auto opts = rel_options(1e-4);
  ArchiveWriter w(fs, "arc", opts);
  w.add_f64("pressure", data::Dims{{64, 64}}, values);
  w.add(suite_fields()[0]);
  w.commit();

  ArchiveReader r(fs, "arc");
  const size_t i = r.entry_index("pressure");
  EXPECT_EQ(r.entries()[i].dtype, Dtype::kF64);
  EXPECT_EQ(r.entries()[i].element_bytes(), 8u);
  const auto out = r.extract_f64(i);
  ASSERT_EQ(out.size(), values.size());

  // Regression: the ratio numerator must use 8-byte elements. The v1
  // container hardcoded 4 and halved every f64 ratio.
  const auto& e = r.entries()[i];
  const double expected = static_cast<double>(e.dims.count() * 8) /
                          static_cast<double>(e.stream_bytes);
  EXPECT_DOUBLE_EQ(e.compression_ratio(), expected);
  EXPECT_THROW((void)r.extract(i), format_error);
  EXPECT_THROW((void)r.extract_f64(r.entry_index(suite_fields()[0].name)),
               format_error);
}

TEST(ArchiveV2, DuplicatePendingNameRejected) {
  robust::MemFs fs;
  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  const auto f = suite_fields()[0];
  w.add(f);
  EXPECT_THROW(w.add(f), format_error);
}

TEST(ArchiveV2, OpenErrorsAreDistinct) {
  robust::MemFs fs;
  // Missing archive: format_error naming the directory.
  EXPECT_THROW(ArchiveReader(fs, "nope"), format_error);

  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  w.add(suite_fields()[0]);
  w.commit();
  // Truncated index: rejected at open.
  auto* index = fs.find(layout::index_path("arc"));
  ASSERT_NE(index, nullptr);
  index->resize(index->size() / 2);
  EXPECT_THROW(ArchiveReader(fs, "arc"), format_error);
}

TEST(ArchiveV2, MissingShardFailsExtractionNotOpen) {
  robust::MemFs fs;
  ArchiveWriter w(fs, "arc", rel_options(1e-3, 0));
  const auto fields = suite_fields();
  w.add(fields[0]);
  w.add(fields[1]);
  w.commit();
  ArchiveReader r(fs, "arc");
  const auto victim =
      layout::shard_path("arc",
                         r.index().shards[r.entries()[0].shard_index]
                             .file_name());
  fs.remove(victim);
  EXPECT_THROW((void)r.extract(0), robust::io_error);
  // The other entry still extracts; try_extract reports instead of throwing.
  EXPECT_EQ(r.extract(1).values.size(), fields[1].count());
  data::Field out;
  const auto rep = r.try_extract(0, out);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(out.values.empty());
}

}  // namespace
}  // namespace szp::archive

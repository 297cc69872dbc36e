// Concurrency hammer for the arena memtablet: one writer applies commit
// groups while readers open cursors against it with no lock held. Each
// reader takes its watermark the way Table does — under the mutex the writer
// holds for a whole group — and checks that its cursor yields strictly
// ordered keys and exactly the rows inserted below the watermark. One case
// scatters every row into a series of its own (the searched insert path);
// the other appends each row after its series' newest row (the series-tail
// path, which links most nodes with no search). Each hammer ends with the
// link-order check of every skiplist level. Labeled `stress`, so the TSan
// CI job runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "core/memtablet.h"
#include "core/row_codec.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

constexpr int kRows = 24000;
constexpr int kGroupRows = 64;
constexpr int kNetworks = 7;
constexpr int kReaders = 3;

// Row k, inserted k-th. Its keys are scattered (the device is a bijection
// of k, since 100003 is prime) so inserts land all over the skiplist; its
// timestamp gives k back.
Row ScatteredRowAt(int k) {
  return UsageRow(k % kNetworks, (static_cast<int64_t>(k) * 7919) % 100003,
                  1000 + k, k, 0.5);
}

// Row k of 7 × 40 series taken round robin: after each series' first row,
// every row is newer than its series' newest, so it takes the tail path.
Row SeriesRowAt(int k) {
  return UsageRow(k % kNetworks, (k / kNetworks) % 40, 1000 + k, k, 0.5);
}

void Hammer(Row (*row_at)(int)) {
  auto schema = std::make_shared<const Schema>(UsageSchema());
  auto mt = std::make_shared<MemTablet>(1, schema, Period{0, kMicrosPerDay}, 0);
  std::mutex mu;  // Table::mu_'s role: held while a group applies.
  std::atomic<bool> done{false};

  std::atomic<int> scans{0};
  std::thread writer([&] {
    const KeyOrder order(*schema);
    std::vector<KeyCell> cells;
    std::string enc;
    for (int k = 0; k < kRows;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (int end = k + kGroupRows; k < end; k++) {
          const Row row = row_at(k);
          const Key key = schema->KeyOf(row);
          order.CellsOf(key, &cells);
          EXPECT_FALSE(mt->ContainsKey(cells.data()));
          enc.clear();
          EncodeRow(&enc, *schema, row);
          EXPECT_TRUE(mt->InsertEncoded(enc));
        }
      }
      // Some scan must run while groups are still landing.
      while (k == kGroupRows && scans.load() == 0) std::this_thread::yield();
      std::this_thread::yield();
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random rnd(r + 1);
      const KeyOrder order(*schema);
      std::vector<KeyCell> prev(schema->num_key_columns());
      while (!done.load() || rnd.Uniform(4) != 0) {
        size_t watermark;
        {
          std::lock_guard<std::mutex> lock(mu);
          watermark = mt->num_rows();
        }
        QueryBounds bounds;
        int network = -1;
        if (rnd.Bernoulli(0.5)) {
          network = static_cast<int>(rnd.Uniform(kNetworks));
          bounds = QueryBounds::ForPrefix({Value::Int64(network)});
        }
        const bool ascending = rnd.Bernoulli(0.5);
        bounds.direction =
            ascending ? Direction::kAscending : Direction::kDescending;
        size_t expected = 0;
        for (size_t k = 0; k < watermark; k++) {
          if (network < 0 || static_cast<int>(k % kNetworks) == network) {
            expected++;
          }
        }
        size_t seen = 0;
        MemTabletCursor c(mt, bounds, watermark, schema.get(), nullptr);
        for (; c.Valid(); c.Next()) {
          const int64_t k = c.ts() - 1000;
          ASSERT_GE(k, 0);
          ASSERT_LT(static_cast<size_t>(k), watermark);
          if (network >= 0) {
            ASSERT_EQ(c.key()[0].i, network);
          }
          if (seen > 0) {
            int cmp = order.Compare(prev.data(), c.key(), prev.size());
            ASSERT_EQ(cmp, ascending ? -1 : 1);
          }
          std::copy(c.key(), c.key() + prev.size(), prev.begin());
          if (rnd.Uniform(64) == 0) {
            Row row;
            c.MaterializeRow(&row);
            ASSERT_EQ(row[3].i64(), k);
          }
          seen++;
        }
        ASSERT_EQ(seen, expected) << "watermark " << watermark;
        scans++;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mt->num_rows(), static_cast<size_t>(kRows));
  EXPECT_GT(scans.load(), 0);
  const Status links = mt->CheckLinksForTest();
  EXPECT_TRUE(links.ok()) << links.ToString();
}

TEST(MemTabletStressTest, ReadersSeeExactlyTheRowsBelowTheirWatermark) {
  Hammer(ScatteredRowAt);
}

TEST(MemTabletStressTest, ReadersSeeTailAppendsBelowTheirWatermark) {
  Hammer(SeriesRowAt);
}

}  // namespace
}  // namespace lt

// Unit tests for the engine's completion queue, the binary EventHeap: the
// (time, insertion-sequence) ordering contract and clear/reuse. The
// randomized operation fuzz against a reference model lives in
// event_queue_fuzz.cpp; the basic heap contract in sim_test.cpp and
// engine_test.cpp.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_heap.h"
#include "util/rng.h"

namespace laps {
namespace {

/// Minimal event payload: a time plus an identity so tests can distinguish
/// same-tick events (the FIFO invariant is about identities, not times).
struct Ev {
  TimeNs time = 0;
  int id = 0;
};

using PopLog = std::vector<std::pair<TimeNs, int>>;

PopLog drain(EventHeap<Ev>& q) {
  PopLog log;
  while (!q.empty()) {
    const Ev e = q.pop();
    log.emplace_back(e.time, e.id);
  }
  return log;
}

// ------------------------------------------------------- ordering basics ---

TEST(EventHeap, FifoAmongSameTickEvents) {
  EventHeap<Ev> heap;
  // Enough colliding timestamps to force sift_up/sift_down tie handling,
  // interleaved across two ticks so parent/child comparisons see equal
  // times: a naive (time-only) heap would reorder these.
  for (int i = 0; i < 32; ++i) heap.push(Ev{i % 2 == 0 ? 10 : 20, i});
  const PopLog log = drain(heap);
  ASSERT_EQ(log.size(), 32u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)],
              (std::pair<TimeNs, int>{10, 2 * i}))
        << "tick 10, position " << i;
    EXPECT_EQ(log[static_cast<std::size_t>(i) + 16],
              (std::pair<TimeNs, int>{20, 2 * i + 1}))
        << "tick 20, position " << i;
  }
}

// ------------------------------------------------------------ clear/reuse ---

// clear() must reset the insertion sequence as well as the storage: a
// cleared heap replays a schedule bit-identically to a fresh one.
PopLog replay_schedule(EventHeap<Ev>& q) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    q.push(Ev{static_cast<TimeNs>(rng.below(32)), i});  // dense tie field
  }
  return drain(q);
}

TEST(EventHeap, ClearResetsToFreshState) {
  EventHeap<Ev> heap;
  const PopLog fresh = replay_schedule(heap);
  heap.push(Ev{999, -1});
  heap.clear();
  EXPECT_TRUE(heap.empty());
  const PopLog replay = replay_schedule(heap);
  EXPECT_EQ(fresh, replay);
}

}  // namespace
}  // namespace laps

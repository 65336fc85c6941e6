// Ordered fan-out: a list of independent items worked over a few threads,
// with results committed in item order on the calling thread.
//
// Start-up work here is lists of independent items (routing-table slots,
// prefixes to survey, sources whose atlas to build) whose results must land
// exactly as a serial loop over the list would land them: the caller's rng
// drawn in item order, counters and insertion orders unchanged. Each thread
// claims the next item from an atomic index, so every item runs on exactly
// one thread. A finished result waits in its item's slot until every
// earlier item is committed. Only the calling thread commits: after each
// item it works itself it commits the run of consecutive finished items,
// and after joining the helpers it commits the rest. Helpers never wait for
// a turn, and whatever a commit allocates comes from the calling thread's
// malloc arena, as in a serial loop (memory allocated on short-lived helper
// threads stays scattered over their arenas).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <future>
#include <optional>
#include <type_traits>
#include <vector>

#include "util/annotate.h"
#include "util/check.h"

namespace revtr::util {

// Runs `work(lane, i)` for every item i in [0, count) on `lanes` threads
// (capped at `count`; lane 0 is the calling thread), and `commit(i,
// result)` with each result, in item order, on the calling thread. The
// helper threads are joined before the call returns, and the first
// exception one of them threw is rethrown after the join.
template <typename Work, typename Commit>
void ordered_fan_out(std::size_t lanes, std::size_t count, Work&& work,
                     Commit&& commit) {
  using Result = std::invoke_result_t<Work&, std::size_t, std::size_t>;
  lanes = std::clamp<std::size_t>(lanes, 1, std::max<std::size_t>(count, 1));
  std::atomic<std::size_t> next{0};
  Mutex order_mu;
  // Guarded by order_mu.
  std::vector<std::optional<Result>> finished(count);
  std::size_t committed = 0;  // Calling thread only.
  const auto commit_ready = [&] {
    for (; committed < count; ++committed) {
      std::optional<Result> ready;
      {
        const MutexLock lock(order_mu);
        if (!finished[committed].has_value()) return;
        ready.swap(finished[committed]);
      }
      commit(committed, std::move(*ready));
    }
  };
  const auto run = [&](std::size_t lane) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      Result done = work(lane, i);
      {
        const MutexLock lock(order_mu);
        finished[i].emplace(std::move(done));
      }
      if (lane == 0) commit_ready();
    }
  };
  std::vector<std::future<void>> helpers;
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    helpers.push_back(std::async(std::launch::async, run, lane));
  }
  run(0);
  for (auto& helper : helpers) helper.get();
  commit_ready();
  REVTR_CHECK(committed == count);
}

}  // namespace revtr::util

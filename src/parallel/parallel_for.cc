#include "parallel/parallel_for.h"

#include <exception>
#include <future>

#include "obs/query_registry.h"

namespace fuzzydb {

size_t WorkerSlots(const ParallelContext& ctx) {
  return ctx.pool == nullptr || ctx.pool->size() == 0 ? 1 : ctx.pool->size();
}

bool ParallelFor(const ParallelContext& ctx, size_t total,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  return ParallelFor(ctx, total, ctx.morsel_size, body);
}

bool ParallelFor(const ParallelContext& ctx, size_t total, size_t morsel_size,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  if (total == 0) return true;
  MorselCursor cursor(total, morsel_size);
  if (ctx.pool == nullptr || ctx.pool->size() <= 1 ||
      cursor.NumMorsels() <= 1) {
    // Serial: the calling thread drains the cursor as worker 0. Same
    // morsel decomposition as the parallel path, so per-morsel work (and
    // anything counted inside it) is identical.
    size_t begin = 0, end = 0;
    while (!QueryStopRequested(ctx.query) && cursor.Next(&begin, &end)) {
      body(0, begin, end);
      if (ctx.progress != nullptr) ctx.progress->AddMorsel(end - begin);
    }
    // Workers only leave the loop early on a stop; a morsel still
    // unclaimed now was skipped.
    return !cursor.Next(&begin, &end);
  }

  const size_t workers = std::min(ctx.pool->size(), cursor.NumMorsels());
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    futures.push_back(ctx.pool->Submit([&ctx, &cursor, &body, w] {
      size_t begin = 0, end = 0;
      while (!QueryStopRequested(ctx.query) && cursor.Next(&begin, &end)) {
        body(w, begin, end);
        if (ctx.progress != nullptr) ctx.progress->AddMorsel(end - begin);
      }
    }));
  }
  // Barrier: wait for every worker, remember the first failure, rethrow
  // after all of them stopped touching shared state.
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  size_t begin = 0, end = 0;
  return !cursor.Next(&begin, &end);  // see the serial path
}

}  // namespace fuzzydb

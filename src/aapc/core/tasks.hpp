// The fan-out seam of the parallel core passes.
//
// The hierarchical assignment (core/hierarchical.hpp) and the verifier
// (core/verify.hpp) cut their work into independent tasks and hand them
// to a caller-supplied TaskRunner; the service installs
// CompilerPool::run_tasks. Every task writes only its own slice, so the
// result is the same for every runner, inline included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace aapc::core {

/// One parallelizable piece of a pass. Must not throw (pool workers
/// have no exception channel); run_jobs wraps jobs that may.
using Task = std::function<void()>;

/// Executes every task and returns once all of them have finished.
/// Tasks are independent; any order and any number of threads is
/// correct. nullptr means "run inline on the calling thread".
using TaskRunner = std::function<void(const std::vector<Task>&)>;

/// Messages below which a pass is not split: smaller pieces cost more
/// to hand out than they save.
inline constexpr std::int64_t kTaskGrain = std::int64_t{1} << 16;

/// Runs job(0), ..., job(count - 1) as one task each on `runner`
/// (inline, in index order, when it is null) and returns after the
/// join. A job may throw: its exception is captured, and after the join
/// the lowest-index failure is rethrown unchanged, which is the one an
/// inline run would have met first. A runner that returns without
/// executing some task fails the call with InternalError naming `pass`,
/// since that task's slice of the output is unwritten.
void run_jobs(const TaskRunner& runner, std::size_t count,
              const std::function<void(std::size_t)>& job,
              std::string_view pass);

}  // namespace aapc::core

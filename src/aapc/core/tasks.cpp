#include "aapc/core/tasks.hpp"

#include <exception>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::core {

void run_jobs(const TaskRunner& runner, std::size_t count,
              const std::function<void(std::size_t)>& job,
              std::string_view pass) {
  std::vector<std::exception_ptr> errors(count);
  std::vector<char> completed(count, 0);
  std::vector<Task> tasks;
  tasks.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    tasks.push_back([&job, &errors, &completed, t] {
      try {
        job(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
      completed[t] = 1;
    });
  }
  if (runner) {
    runner(tasks);
  } else {
    for (const Task& task : tasks) task();
  }
  for (std::size_t t = 0; t < count; ++t) {
    if (!completed[t]) {
      throw InternalError(str_cat(pass, ": task runner returned without "
                                        "executing task ",
                                  t, " of ", count,
                                  "; its slice is unwritten"));
    }
    if (errors[t]) std::rethrow_exception(errors[t]);
  }
}

}  // namespace aapc::core

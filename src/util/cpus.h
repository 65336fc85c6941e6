// How many CPUs this process may use.
#pragma once

#include <cstddef>

namespace revtr::util {

// CPUs this process may run on (its sched_getaffinity mask, what nproc
// prints); at least 1. Fan-outs size themselves with it rather than with an
// option, since their output never depends on the thread count.
std::size_t available_cpus();

}  // namespace revtr::util

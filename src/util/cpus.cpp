#include "util/cpus.h"

#include <sched.h>

#include <algorithm>

namespace revtr::util {

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

}  // namespace revtr::util

#include "support/cpus.hpp"

#include <algorithm>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace arvy::support {

std::size_t usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace arvy::support

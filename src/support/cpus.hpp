// usable_cpus(): how many CPUs this process may run on - its affinity mask
// where the platform reports one, else the hardware thread count, and at
// least 1. The threaded layers read it twice: Options::workers defaults to
// one fewer (the caller keeps a CPU), and runtime::spin_fits lets a pool
// poll only when its threads and one caller fit.
#pragma once

#include <cstddef>

namespace arvy::support {

[[nodiscard]] std::size_t usable_cpus() noexcept;

}  // namespace arvy::support

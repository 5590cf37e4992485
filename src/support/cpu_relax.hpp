// cpu_relax(): the processor's spin-wait hint, for a loop that polls a word
// it expects another thread to change within microseconds
// (runtime::spin_until). On x86 `pause` and on aarch64 `yield` tell the core
// the loop is a spin: it stops speculating ahead of the polled load and, on
// an SMT core, yields execution resources to its sibling thread. Elsewhere
// the hint compiles to nothing and the loop is a plain poll.
#pragma once

namespace arvy::support {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace arvy::support

// The other half of the cross-object fixture (see hot_caller.cpp): a plain,
// un-annotated function that allocates.
#include <cstddef>
#include <new>

void* grow_buffer(std::size_t n) { return ::operator new(n); }

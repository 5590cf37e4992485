// Audit fixture, two translation units: the hot function below is clean in
// its own object, but the helper it calls is defined - and allocates - in
// grow.cpp. In this object the helper is an undefined symbol, so an audit
// that walks one object at a time trusts it as a leaf; the cross-object
// walk resolves it to grow.cpp's definition and must reject the path
// hot_entry -> grow_buffer -> operator new.
//
// Compiled at test time (g++/clang++ -O2 -ffunction-sections -c); the
// attributes are spelled directly so the fixture stands alone.
#include <cstddef>

#define FIXTURE_HOT [[gnu::hot]]

void* grow_buffer(std::size_t n);  // defined in grow.cpp

FIXTURE_HOT void* hot_entry(std::size_t n) { return grow_buffer(n + 1); }

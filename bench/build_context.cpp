// Linked into every google-benchmark binary: records which build of this
// repository a capture measured. The JSON context's "library_build_type" is
// the google-benchmark library's own build; "arvy_build_type" is ours.
// CI adds the commit with --benchmark_context=arvy_git_sha=<sha>.
#include <benchmark/benchmark.h>

namespace {

const bool kBuildTypeRecorded = [] {
  benchmark::AddCustomContext("arvy_build_type", ARVY_BUILD_TYPE);
  return true;
}();

}  // namespace

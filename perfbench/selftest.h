#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include <cstdint>
#include <iosfwd>
#include <string>

namespace perfbench {

// Runs the benchmark's self-checks (see selftest.cc); returns the exit code.
int RunSelfTest(uint64_t seed, uint64_t held_out_seed, const std::string& out_dir,
                std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_

// The correctness gate every benchmark run passes: the trace replayed into a
// MemStore (OpenStore engine=mem) gives the expected NotFound count and the
// expected final value of every distinct key.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/stores/kvstore.h"
#include "src/streams/state_access.h"

namespace perfbench {

class Oracle {
 public:
  static gadget::StatusOr<Oracle> Build(const std::vector<gadget::StateAccess>& trace);

  uint64_t not_found() const { return not_found_; }
  const std::vector<std::string>& keys() const { return keys_; }

  // Reads keys()[i] for every i in a batch and fills (*found)[i] / (*values)[i].
  using BatchReader = std::function<gadget::Status(
      const std::vector<std::string>& keys, std::vector<std::string>* values,
      std::vector<bool>* found)>;

  // Compares the run's NotFound count and every key's final value against the
  // oracle, reading through `read`. Returns the number of mismatches and
  // prints the first few to `err`.
  gadget::StatusOr<uint64_t> Check(uint64_t run_not_found, const BatchReader& read,
                                   std::ostream& err) const;

  // A BatchReader over an in-process store (MultiGet).
  static BatchReader StoreReader(gadget::KVStore* store);

 private:
  uint64_t not_found_ = 0;
  std::vector<std::string> keys_;    // distinct encoded keys, sorted
  std::vector<bool> found_;          // expected presence per key
  std::vector<std::string> values_;  // expected value per key
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

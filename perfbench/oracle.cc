#include "perfbench/oracle.h"

#include <algorithm>
#include <ostream>

#include "src/gadget/evaluator.h"

namespace perfbench {

using gadget::Status;

gadget::StatusOr<Oracle> Oracle::Build(const std::vector<gadget::StateAccess>& trace) {
  gadget::StoreOptions opts;
  opts.engine = "mem";
  auto mem = gadget::OpenStore(opts);
  if (!mem.ok()) {
    return mem.status();
  }
  auto replay = gadget::ReplayTrace(trace, mem->get());
  if (!replay.ok()) {
    return replay.status();
  }
  Oracle o;
  o.not_found_ = replay->not_found;
  o.keys_.reserve(trace.size() / 2);
  for (const gadget::StateAccess& a : trace) {
    o.keys_.push_back(gadget::EncodeStateKey(a.key));
  }
  std::sort(o.keys_.begin(), o.keys_.end());
  o.keys_.erase(std::unique(o.keys_.begin(), o.keys_.end()), o.keys_.end());
  o.found_.resize(o.keys_.size());
  o.values_.resize(o.keys_.size());
  for (size_t i = 0; i < o.keys_.size(); ++i) {
    Status s = (*mem)->Get(o.keys_[i], &o.values_[i]);
    if (!s.ok() && !s.IsNotFound()) {
      return s;
    }
    o.found_[i] = s.ok();
  }
  GADGET_RETURN_IF_ERROR((*mem)->Close());
  return o;
}

gadget::StatusOr<uint64_t> Oracle::Check(uint64_t run_not_found, const BatchReader& read,
                                         std::ostream& err) const {
  uint64_t mismatches = 0;
  if (run_not_found != not_found_) {
    ++mismatches;
    err << "oracle: run saw " << run_not_found << " NotFound gets, oracle " << not_found_ << "\n";
  }
  constexpr size_t kBatch = 256;
  std::vector<std::string> batch;
  std::vector<std::string> got;
  std::vector<bool> found;
  for (size_t base = 0; base < keys_.size(); base += kBatch) {
    const size_t n = std::min(kBatch, keys_.size() - base);
    batch.assign(keys_.begin() + static_cast<ptrdiff_t>(base),
                 keys_.begin() + static_cast<ptrdiff_t>(base + n));
    GADGET_RETURN_IF_ERROR(read(batch, &got, &found));
    for (size_t i = 0; i < n; ++i) {
      const size_t k = base + i;
      const bool match = found_[k] ? (found[i] && got[i] == values_[k]) : !found[i];
      if (!match) {
        if (++mismatches <= 5) {
          const gadget::StateKey sk = gadget::DecodeStateKey(keys_[k]);
          err << "oracle: key (" << sk.hi << "," << sk.lo << ") expected "
              << (found_[k] ? std::to_string(values_[k].size()) + " bytes" : "NotFound")
              << ", got " << (found[i] ? std::to_string(got[i].size()) + " bytes" : "NotFound")
              << "\n";
        }
      }
    }
  }
  return mismatches;
}

Oracle::BatchReader Oracle::StoreReader(gadget::KVStore* store) {
  return [store](const std::vector<std::string>& keys, std::vector<std::string>* values,
                 std::vector<bool>* found) -> Status {
    std::vector<Status> statuses;
    GADGET_RETURN_IF_ERROR(store->MultiGet(keys, values, &statuses));
    found->assign(keys.size(), false);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!statuses[i].ok() && !statuses[i].IsNotFound()) {
        return statuses[i];
      }
      (*found)[i] = statuses[i].ok();
    }
    return Status::Ok();
  };
}

}  // namespace perfbench

#include "perfbench/traced_store.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using gadget::Status;

struct SpanRecorder::ThreadBuffer {
  uint32_t thread = 0;
  uint64_t calls = 0;  // every call this thread made; the sampling clock
  CallTotals totals;
  std::vector<Span> spans;
};

namespace {

// Each recorder instance gets a process-unique number so a thread's cached
// buffer pointer is never reused by a later recorder at the same address.
std::atomic<uint64_t> g_instances{1};

struct LocalCache {
  uint64_t instance = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

double CallTotals::MeanNs(Call c) const {
  const int i = static_cast<int>(c);
  return count[i] == 0 ? 0 : static_cast<double>(ns[i]) / static_cast<double>(count[i]);
}

double CallTotals::P99Ns(Call c) const { return PercentileNs(hist[static_cast<int>(c)], 99); }

uint64_t CallTotals::TotalNs() const {
  uint64_t sum = 0;
  for (uint64_t v : ns) {
    sum += v;
  }
  return sum;
}

SpanRecorder::SpanRecorder(uint64_t sample_every)
    : sample_every_(std::max<uint64_t>(sample_every, 1)),
      instance_(g_instances.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::~SpanRecorder() = default;

SpanRecorder::ThreadBuffer* SpanRecorder::Local() {
  if (t_cache.instance == instance_) {
    return static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buf = buffers_.back().get();
  buf->thread = static_cast<uint32_t>(buffers_.size() - 1);
  t_cache.instance = instance_;
  t_cache.buffer = buf;
  return buf;
}

void SpanRecorder::AddSpan(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_spans_.push_back(std::move(span));
}

void SpanRecorder::AddCall(Call c, const char* name, uint64_t start_ns, uint64_t end_ns,
                           uint64_t request) {
  ThreadBuffer* buf = Local();
  const int i = static_cast<int>(c);
  const uint64_t d = end_ns - start_ns;
  ++buf->totals.count[i];
  buf->totals.ns[i] += d;
  buf->totals.hist[i].Record(d);
  if (++buf->calls % sample_every_ == 0) {
    Span s;
    s.id = NewId();
    s.parent = parent();
    s.request = request != 0 ? request : (static_cast<uint64_t>(buf->thread) << 40) | buf->calls;
    s.thread = buf->thread;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    buf->spans.push_back(std::move(s));
  }
}

CallTotals SpanRecorder::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  CallTotals out;
  for (const auto& b : buffers_) {
    for (int i = 0; i < static_cast<int>(Call::kCount); ++i) {
      out.count[i] += b->totals.count[i];
      out.ns[i] += b->totals.ns[i];
      out.hist[i].Merge(b->totals.hist[i]);
    }
  }
  return out;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out = phase_spans_;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,parent,request,thread,name,start_ns,end_ns\n");
  for (const Span& s : Spans()) {
    std::fprintf(f, "%llu,%llu,%llu,%u,%s,%llu,%llu\n", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread, s.name.c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// --- TracedStore -------------------------------------------------------------

Status TracedStore::Put(std::string_view key, std::string_view value) {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->Put(key, value);
  rec_->AddCall(Call::kPut, "store.put", t0, rec_->NowNs());
  return s;
}

Status TracedStore::Get(std::string_view key, std::string* value,
                        const gadget::ReadOptions& options) {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->Get(key, value, options);
  const bool miss = s.IsNotFound();
  rec_->AddCall(miss ? Call::kGetMiss : Call::kGet, miss ? "store.get_miss" : "store.get", t0,
                rec_->NowNs());
  return s;
}

Status TracedStore::Merge(std::string_view key, std::string_view operand) {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->Merge(key, operand);
  rec_->AddCall(Call::kMerge, "store.merge", t0, rec_->NowNs());
  return s;
}

Status TracedStore::Delete(std::string_view key) {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->Delete(key);
  rec_->AddCall(Call::kDelete, "store.delete", t0, rec_->NowNs());
  return s;
}

Status TracedStore::ReadModifyWrite(std::string_view key, std::string_view operand) {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->ReadModifyWrite(key, operand);
  rec_->AddCall(Call::kRmw, "store.rmw", t0, rec_->NowNs());
  return s;
}

Status TracedStore::Write(const gadget::WriteBatch& batch) {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->Write(batch);
  rec_->AddCall(Call::kWrite, "store.write", t0, rec_->NowNs());
  return s;
}

Status TracedStore::MultiGet(const std::vector<std::string>& keys,
                             std::vector<std::string>* values, std::vector<Status>* statuses,
                             const gadget::ReadOptions& options) {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->MultiGet(keys, values, statuses, options);
  rec_->AddCall(Call::kMultiGet, "store.multi_get", t0, rec_->NowNs());
  return s;
}

Status TracedStore::Flush() {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->Flush();
  rec_->AddCall(Call::kOther, "store.flush", t0, rec_->NowNs());
  return s;
}

gadget::StatusOr<gadget::CheckpointInfo> TracedStore::Checkpoint(
    const std::string& dir, const gadget::CheckpointOptions& options) {
  const uint64_t t0 = rec_->NowNs();
  auto info = inner_->Checkpoint(dir, options);
  rec_->AddCall(Call::kOther, "store.checkpoint", t0, rec_->NowNs());
  return info;
}

Status TracedStore::Close() {
  const uint64_t t0 = rec_->NowNs();
  Status s = inner_->Close();
  rec_->AddCall(Call::kOther, "store.close", t0, rec_->NowNs());
  return s;
}

}  // namespace perfbench

// Checks on the benchmark itself (run with --selftest):
//   1. TracedStore is transparent: on a prefix of each workload's trace a
//      decorated replay leaves the same final state, StoreStats op counters
//      and NotFound count as an undecorated one.
//   2. The open-loop generator does not hide a stall: with the server's
//      test_delay hook slowing one shard, the open-loop p99 (timed from the
//      scheduled send) rises by about the injected delay while the
//      generator's own lateness stays small.
//   3. The default and held-out seeds give different traces.
#include "perfbench/selftest.h"

#include <ostream>

#include "perfbench/loadgen.h"
#include "perfbench/oracle.h"
#include "perfbench/traced_store.h"
#include "perfbench/workloads.h"
#include "src/common/file_util.h"
#include "src/common/hash.h"
#include "src/gadget/harness.h"
#include "src/server/server.h"

namespace perfbench {

using gadget::Status;
using gadget::StateAccess;
using gadget::StoreStats;

namespace {

constexpr size_t kPrefixOps = 100'000;

bool SameOpCounters(const StoreStats& a, const StoreStats& b) {
  return a.gets == b.gets && a.puts == b.puts && a.merges == b.merges && a.deletes == b.deletes &&
         a.rmws == b.rmws && a.bytes_written == b.bytes_written && a.bytes_read == b.bytes_read;
}

// One workload's decorated-vs-plain comparison.
gadget::StatusOr<bool> TracedEquivalence(const WorkloadSpec& spec, uint64_t seed,
                                         const std::string& dir, std::ostream& out) {
  auto full = gadget::BuildAccessTrace(TraceConfig(spec, seed));
  if (!full.ok()) {
    return full.status();
  }
  std::vector<StateAccess> trace(full->begin(),
                                 full->begin() + static_cast<ptrdiff_t>(
                                                     std::min(kPrefixOps, full->size())));
  auto plain = OpenWorkloadStore(spec, dir + "/plain");
  auto inner = OpenWorkloadStore(spec, dir + "/traced");
  if (!plain.ok() || !inner.ok()) {
    return plain.ok() ? inner.status() : plain.status();
  }
  SpanRecorder rec(64);
  TracedStore traced(inner->get(), &rec);
  auto r_plain = Replay(trace, plain->get(), spec.threads);
  auto r_traced = Replay(trace, &traced, spec.threads);
  if (!r_plain.ok() || !r_traced.ok()) {
    return r_plain.ok() ? r_traced.status() : r_plain.status();
  }
  const uint64_t nf_plain = r_plain->not_found;
  const uint64_t nf_traced = r_traced->not_found;
  const StoreStats sp = (*plain)->stats();
  const StoreStats st = traced.stats();
  auto oracle = Oracle::Build(trace);
  if (!oracle.ok()) {
    return oracle.status();
  }
  auto bad_plain = oracle->Check(nf_plain, Oracle::StoreReader(plain->get()), out);
  auto bad_traced = oracle->Check(nf_traced, Oracle::StoreReader(&traced), out);
  if (!bad_plain.ok() || !bad_traced.ok()) {
    return bad_plain.ok() ? bad_traced.status() : bad_plain.status();
  }
  GADGET_RETURN_IF_ERROR(traced.Flush());
  GADGET_RETURN_IF_ERROR(traced.Close());
  GADGET_RETURN_IF_ERROR((*plain)->Close());
  const CallTotals calls = rec.Totals();
  uint64_t counted = 0;
  for (Call c : {Call::kGet, Call::kGetMiss, Call::kPut, Call::kMerge, Call::kDelete}) {
    counted += calls.count[static_cast<int>(c)];
  }
  const bool ok = nf_plain == nf_traced && SameOpCounters(sp, st) && *bad_plain == 0 &&
                  *bad_traced == 0 && counted == trace.size();
  out << "selftest traced-equivalence " << spec.name << ": " << trace.size() << " ops, NotFound "
      << nf_plain << "/" << nf_traced << ", op counters "
      << (SameOpCounters(sp, st) ? "equal" : "DIFFER") << ", state mismatches " << *bad_plain
      << "/" << *bad_traced << ", decorator counted " << counted << " calls -> "
      << (ok ? "ok" : "FAIL") << "\n";
  return ok;
}

struct OpenLoopFigures {
  double p99_ms = 0;
  double late_p99_ms = 0;
};

gadget::StatusOr<OpenLoopFigures> OpenLoopAt(const std::vector<StateAccess>& trace,
                                             const std::string& dir, int delay_ms, size_t ops,
                                             double rate) {
  gadget::wire::ServerOptions so;
  so.shards = 4;
  so.store.engine = "lsm";
  so.store.dir = dir;
  if (delay_ms > 0) {
    so.test_delay_shard = 0;
    so.test_delay_ms = delay_ms;
  }
  auto server = StartServer(so);
  if (!server.ok()) {
    return server.status();
  }
  auto gen = Generator::Connect((*server)->port(), 4, &trace);
  if (!gen.ok()) {
    return gen.status();
  }
  LoadResult r;
  GADGET_RETURN_IF_ERROR((*gen)->RunPhase(0, ops, Pace{.rate_ops_s = rate}, &r, nullptr));
  gen->reset();
  (*server)->Stop();
  if (r.errors != 0) {
    return Status::Internal("open-loop self-test saw errors");
  }
  return OpenLoopFigures{PercentileNs(r.latency_ns, 99) / 1e6, PercentileNs(r.late_ns, 99) / 1e6};
}

// Shard 0 sleeps kDelayMs before each task. At kRate ops/s a quarter of the
// ops reach shard 0 (~25 tasks/s, ~25% busy), so the shard keeps up and the
// p99 op — one of shard 0's — waits about one delay plus some queueing.
gadget::StatusOr<bool> OpenLoopSelfTest(uint64_t seed, const std::string& dir, std::ostream& out) {
  constexpr int kDelayMs = 10;
  constexpr double kRate = 100;
  constexpr size_t kOps = 600;
  auto trace = gadget::BuildAccessTrace(TraceConfig(*FindWorkload("incr_served"), seed));
  if (!trace.ok()) {
    return trace.status();
  }
  auto base = OpenLoopAt(*trace, dir + "/base", 0, kOps, kRate);
  if (!base.ok()) {
    return base.status();
  }
  auto slow = OpenLoopAt(*trace, dir + "/delayed", kDelayMs, kOps, kRate);
  if (!slow.ok()) {
    return slow.status();
  }
  const double rise = slow->p99_ms - base->p99_ms;
  const double late_max = std::max(base->late_p99_ms, slow->late_p99_ms);
  const bool ok = rise >= 0.8 * kDelayMs && rise <= 4.0 * kDelayMs && late_max < 0.1 * kDelayMs;
  out << "selftest open-loop: p99 " << base->p99_ms << " ms -> " << slow->p99_ms
      << " ms with a " << kDelayMs << " ms shard stall (rise " << rise
      << " ms), generator late p99 " << base->late_p99_ms << " / " << slow->late_p99_ms
      << " ms -> " << (ok ? "ok" : "FAIL") << "\n";
  return ok;
}

uint64_t Fingerprint(const std::vector<StateAccess>& trace) {
  uint64_t h = trace.size();
  for (const StateAccess& a : trace) {
    h = gadget::Mix64(h ^ (a.key.hi * 31 + a.key.lo) ^ (static_cast<uint64_t>(a.op) << 56) ^
                      a.value_size);
  }
  return h;
}

gadget::StatusOr<bool> SeedsDiffer(uint64_t seed, uint64_t held_out, std::ostream& out) {
  bool ok = true;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    auto a = gadget::BuildAccessTrace(TraceConfig(spec, seed));
    auto b = gadget::BuildAccessTrace(TraceConfig(spec, held_out));
    if (!a.ok() || !b.ok()) {
      return a.ok() ? b.status() : a.status();
    }
    const bool differ = Fingerprint(*a) != Fingerprint(*b);
    ok = ok && differ;
    out << "selftest seeds " << spec.name << ": seed " << seed << " -> " << a->size()
        << " ops, seed " << held_out << " -> " << b->size() << " ops, traces "
        << (differ ? "differ" : "IDENTICAL") << "\n";
  }
  return ok;
}

}  // namespace

int RunSelfTest(uint64_t seed, uint64_t held_out_seed, const std::string& out_dir,
                std::ostream& out) {
  const std::string dir = out_dir + "/selftest";
  bool ok = true;
  auto check = [&](gadget::StatusOr<bool> r) {
    if (!r.ok()) {
      out << "selftest error: " << r.status().ToString() << "\n";
      ok = false;
    } else {
      ok = ok && *r;
    }
  };
  for (const WorkloadSpec& spec : AllWorkloads()) {
    check(TracedEquivalence(spec, seed, dir + "/eq-" + spec.name, out));
  }
  check(OpenLoopSelfTest(seed, dir + "/open", out));
  check(SeedsDiffer(seed, held_out_seed, out));
  (void)gadget::RemoveDirRecursively(dir);
  out << "selftest " << (ok ? "passed" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace perfbench

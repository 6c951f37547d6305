#include "perfbench/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <ostream>

#include "perfbench/loadgen.h"
#include "perfbench/oracle.h"
#include "perfbench/traced_store.h"
#include "src/common/file_util.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/harness.h"
#include "src/gadget/multi.h"
#include "src/server/router.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/stores/lsm/lsm_store.h"

namespace perfbench {

using gadget::LatencyHistogram;
using gadget::Status;
using gadget::StateAccess;
using gadget::StoreStats;
namespace wire = gadget::wire;

namespace {

constexpr int kMinRounds = 3;
// No round starts after this much wall time, whatever --seconds asks for, so
// a badly regressed build still finishes well inside the run time limit.
constexpr double kMaxLoopSeconds = 60;
constexpr double kMiB = 1024.0 * 1024.0;

// Served workload shape. Untraced rounds replay the whole trace closed-loop
// (capacity and round-trip latency). Traced rounds replay the first half
// closed-loop and the second half open-loop at a fixed offered rate, timed
// from each op's scheduled send. The rate is frozen at ~1/6 of the
// closed-loop capacity measured when the benchmark was defined (4-vCPU x86
// VM): at half capacity the open-loop tail on that box is set by millisecond
// vCPU scheduling stalls and differs run to run by more than any bound.
constexpr int kServedShards = 4;
constexpr int kServedConns = 4;
constexpr int kClosedWindow = 4;  // frames in flight per connection
constexpr double kOpenRateOpsS = 40'000;

// Every Nth engine call / client request per thread keeps a full span.
constexpr uint64_t kSpanEvery = 64;

struct Round {
  double setup_s = 0;
  double gen_s = 0;
  double busy_s = 0;         // all timed phases (the round-loop clock)
  uint64_t ops = 0;          // ops behind ops_s
  double ops_seconds = 0;    // the phase ops_s is measured over
  uint64_t trace_ops = 0;
  LatencyHistogram latency_ns;  // the samples behind p50/p99/p999
  StoreStats delta;             // engine counters over the timed phase
  uint64_t l0_files = 0;
  double write_amp = 0;
  double disk_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  // In-process: wall time of the replay call.
  uint64_t replay_ns = 0;
  // Served only.
  LoadResult closed;
  LoadResult open;
  wire::NetStats net;  // delta over both phases
};

wire::NetStats NetDelta(const wire::NetStats& a, const wire::NetStats& b) {
  wire::NetStats d;
  d.bytes_in = b.bytes_in - a.bytes_in;
  d.bytes_out = b.bytes_out - a.bytes_out;
  d.writev_calls = b.writev_calls - a.writev_calls;
  d.output_queue_stall_micros = b.output_queue_stall_micros - a.output_queue_stall_micros;
  d.thread_ops.resize(b.thread_ops.size());
  for (size_t i = 0; i < b.thread_ops.size(); ++i) {
    d.thread_ops[i] = b.thread_ops[i] - (i < a.thread_ops.size() ? a.thread_ops[i] : 0);
  }
  return d;
}

double WriteAmp(const StoreStats& s) {
  return s.bytes_written == 0 ? 0
                              : static_cast<double>(s.io_bytes_written + s.wal_bytes) /
                                    static_cast<double>(s.bytes_written);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& opts, std::ostream& err)
      : spec_(spec), opts_(opts), err_(err) {
    work_dir_ = opts.out_dir + "/work-" + spec.name + "-" + std::to_string(::getpid());
  }
  ~Runner() { (void)gadget::RemoveDirRecursively(work_dir_); }

  // Runs rounds until kMinRounds are done and `seconds` of timed work is
  // covered. `rec` != nullptr makes them traced rounds.
  Status Loop(double seconds, SpanRecorder* rec, std::vector<Round>* rounds) {
    const Clock::time_point start = Clock::now();
    double busy = 0;
    while (static_cast<int>(rounds->size()) < kMinRounds || busy < seconds) {
      if (Seconds(start, Clock::now()) > kMaxLoopSeconds) {
        break;
      }
      Round r;
      GADGET_RETURN_IF_ERROR(spec_.threads == 0 ? Served(rec, &r) : InProcess(rec, &r));
      busy += r.busy_s;
      rounds->push_back(std::move(r));
    }
    return Status::Ok();
  }

  // A traced single-threaded replay of the workload's trace on a fresh store;
  // returns the engine-call totals (the in-process baseline of a workload).
  Status SingleThreadTotals(CallTotals* totals, uint64_t* ops) {
    auto trace = gadget::BuildAccessTrace(TraceConfig(spec_, opts_.seed));
    if (!trace.ok()) {
      return trace.status();
    }
    const std::string dir = NextDir();
    auto store = OpenWorkloadStore(spec_, dir);
    if (!store.ok()) {
      return store.status();
    }
    SpanRecorder rec(kSpanEvery);
    TracedStore traced(store->get(), &rec);
    auto result = gadget::ReplayTrace(*trace, &traced);
    if (!result.ok()) {
      return result.status();
    }
    *totals = rec.Totals();
    *ops = result->ops;
    GADGET_RETURN_IF_ERROR((*store)->Close());
    store->reset();
    return gadget::RemoveDirRecursively(dir);
  }

  const WorkloadSpec& spec() const { return spec_; }
  uint64_t seed() const { return opts_.seed; }

 private:
  std::string NextDir() { return work_dir_ + "/r" + std::to_string(next_dir_++); }

  Status BuildTrace(std::vector<StateAccess>* out, Round* r) {
    const Clock::time_point t0 = Clock::now();
    auto trace = gadget::BuildAccessTrace(TraceConfig(spec_, opts_.seed));
    if (!trace.ok()) {
      return trace.status();
    }
    *out = std::move(*trace);
    r->gen_s = Seconds(t0, Clock::now());
    r->trace_ops = out->size();
    return Status::Ok();
  }

  Status CheckOracle(const std::vector<StateAccess>& trace, uint64_t not_found,
                     const Oracle::BatchReader& read, Round* r) {
    if (oracle_ == nullptr) {
      auto o = Oracle::Build(trace);
      if (!o.ok()) {
        return o.status();
      }
      oracle_ = std::make_unique<Oracle>(std::move(*o));
    }
    auto mismatches = oracle_->Check(not_found, read, err_);
    if (!mismatches.ok()) {
      return mismatches.status();
    }
    r->mismatches = *mismatches;
    return Status::Ok();
  }

  // Records a phase span (a root: the engine calls and client requests made
  // during the phase name it as their parent).
  void AddSpan(SpanRecorder* rec, uint64_t id, const char* name, Clock::time_point a,
               Clock::time_point b) {
    if (rec == nullptr) {
      return;
    }
    Span s;
    s.id = id;
    s.name = name;
    s.start_ns = rec->ToNs(a);
    s.end_ns = rec->ToNs(b);
    rec->AddSpan(std::move(s));
  }

  Status InProcess(SpanRecorder* rec, Round* r) {
    const Clock::time_point t0 = Clock::now();
    std::vector<StateAccess> trace;
    GADGET_RETURN_IF_ERROR(BuildTrace(&trace, r));
    const std::string dir = NextDir();
    auto store = OpenWorkloadStore(spec_, dir);
    if (!store.ok()) {
      return store.status();
    }
    r->setup_s = Seconds(t0, Clock::now());

    std::unique_ptr<TracedStore> traced;
    gadget::KVStore* target = store->get();
    uint64_t span_id = 0;
    if (rec != nullptr) {
      traced = std::make_unique<TracedStore>(target, rec);
      target = traced.get();
      span_id = rec->NewId();
      rec->set_parent(span_id);
    }
    const StoreStats before = (*store)->stats();
    const Clock::time_point start = Clock::now();
    auto result = Replay(trace, target, spec_.threads);
    const Clock::time_point end = Clock::now();
    AddSpan(rec, span_id, "replay", start, end);
    if (!result.ok()) {
      return result.status();
    }
    r->attempted = trace.size();
    r->replay_ns = Nanos(start, end);
    r->busy_s = Seconds(start, end);
    r->ops = result->ops;
    r->ops_seconds = r->busy_s;
    r->latency_ns = std::move(result->latency_ns);
    const StoreStats after = (*store)->stats();
    r->delta = after.DeltaSince(before);
    r->l0_files = after.level_files.empty() ? 0 : after.level_files[0];

    GADGET_RETURN_IF_ERROR(
        CheckOracle(trace, result->not_found, Oracle::StoreReader(store->get()), r));
    GADGET_RETURN_IF_ERROR((*store)->Close());
    r->write_amp = WriteAmp((*store)->stats());
    r->disk_mb = static_cast<double>(DirBytes(dir)) / kMiB;
    store->reset();
    return gadget::RemoveDirRecursively(dir);
  }

  Status Served(SpanRecorder* rec, Round* r) {
    const Clock::time_point t0 = Clock::now();
    std::vector<StateAccess> trace;
    GADGET_RETURN_IF_ERROR(BuildTrace(&trace, r));
    const std::string dir = NextDir();
    wire::ServerOptions so;
    so.shards = kServedShards;
    so.store.engine = "lsm";
    so.store.dir = dir;
    auto server = StartServer(so);
    if (!server.ok()) {
      return server.status();
    }
    auto gen = Generator::Connect((*server)->port(), kServedConns, &trace);
    if (!gen.ok()) {
      return gen.status();
    }
    r->setup_s = Seconds(t0, Clock::now());

    const wire::NetStats net0 = (*server)->net_stats();
    const StoreStats st0 = (*server)->shard_set()->MergedStats();
    const size_t split = rec != nullptr ? trace.size() / 2 : trace.size();
    const uint64_t closed_id = rec != nullptr ? rec->NewId() : 0;
    if (rec != nullptr) {
      rec->set_parent(closed_id);
    }
    const Clock::time_point c0 = Clock::now();
    Status s = (*gen)->RunPhase(0, split, Pace{.window = kClosedWindow}, &r->closed, rec);
    const Clock::time_point c1 = Clock::now();
    AddSpan(rec, closed_id, "closed_loop", c0, c1);
    if (s.ok() && split < trace.size()) {
      const uint64_t open_id = rec->NewId();
      rec->set_parent(open_id);
      s = (*gen)->RunPhase(split, trace.size(), Pace{.rate_ops_s = kOpenRateOpsS}, &r->open, rec);
      AddSpan(rec, open_id, "open_loop", c1, Clock::now());
    }
    GADGET_RETURN_IF_ERROR(s);
    r->attempted = trace.size();
    r->failed = r->closed.errors + r->open.errors;
    r->net = NetDelta(net0, (*server)->net_stats());
    r->delta = (*server)->shard_set()->MergedStats().DeltaSince(st0);
    r->l0_files = r->delta.level_files.empty() ? 0 : r->delta.level_files[0];
    r->busy_s = r->closed.seconds + r->open.seconds;
    r->ops = r->closed.acked;
    r->ops_seconds = r->closed.seconds;
    r->latency_ns = r->closed.latency_ns;

    GADGET_RETURN_IF_ERROR(
        CheckOracle(trace, r->closed.not_found + r->open.not_found, (*gen)->Reader(), r));
    gen->reset();
    (*server)->Stop();
    r->write_amp = WriteAmp((*server)->shard_set()->MergedStats());
    r->disk_mb = static_cast<double>(DirBytes(dir)) / kMiB;
    server->reset();
    return gadget::RemoveDirRecursively(dir);
  }

  const WorkloadSpec& spec_;
  const RunOptions& opts_;
  std::ostream& err_;
  std::string work_dir_;
  int next_dir_ = 0;
  std::unique_ptr<Oracle> oracle_;
};

double MedianOpsPerSecond(const std::vector<Round>& rounds) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    v.push_back(Ratio(static_cast<double>(r.ops), r.ops_seconds));
  }
  return Median(v);
}

void EndToEnd(const std::vector<Round>& rounds, Report* rep) {
  // Every figure is a median over rounds: a round that a scheduling hiccup
  // of this shared box hit moves it less than it would a pooled figure.
  std::vector<double> p50, p99, p999, setup, amp, disk;
  uint64_t samples = 0;
  for (const Round& r : rounds) {
    p50.push_back(PercentileNs(r.latency_ns, 50) / 1000);
    p99.push_back(PercentileNs(r.latency_ns, 99) / 1000);
    p999.push_back(PercentileNs(r.latency_ns, 99.9) / 1000);
    samples = samples == 0 ? r.latency_ns.count() : std::min(samples, r.latency_ns.count());
    setup.push_back(r.setup_s);
    amp.push_back(r.write_amp);
    disk.push_back(r.disk_mb);
  }
  rep->end_to_end = {
      {"ops_s", MedianOpsPerSecond(rounds), "ops/s"},
      {"p50_us", Median(p50), "us"},
      {"p99_us", Median(p99), "us"},
      {"p999_us", Median(p999), "us"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"write_amp", Median(amp), "ratio"},
      {"disk_mb", Median(disk), "MiB"},
  };
  rep->notes.push_back("rounds " + std::to_string(rounds.size()) + ", >= " +
                       std::to_string(samples) + " latency samples per round (p999_us has >= " +
                       std::to_string(samples / 1000) + " beyond it)");
}

// Encodes every op of `trace` as a single-op request frame, then decodes the
// frames back; the per-frame cost of each direction of the wire codec.
void CodecTiming(const std::vector<StateAccess>& trace, double* encode_ns, double* decode_ns) {
  std::string buf;
  buf.reserve(trace.size() * 40);
  std::string key;
  std::string value;
  const Clock::time_point t0 = Clock::now();
  uint32_t id = 1;
  for (const StateAccess& a : trace) {
    AppendOpRequest(a, id++, &key, &value, &buf);
  }
  const Clock::time_point t1 = Clock::now();
  std::string_view rest(buf);
  wire::Request req;
  uint64_t frames = 0;
  for (;;) {
    wire::FrameView frame;
    size_t consumed = 0;
    std::string err;
    if (wire::ExtractFrame(rest, &frame, &consumed, &err) != wire::FrameStatus::kOk ||
        !wire::ParseRequest(frame, &req).ok()) {
      break;
    }
    rest.remove_prefix(consumed);
    ++frames;
  }
  const Clock::time_point t2 = Clock::now();
  *encode_ns = Ratio(static_cast<double>(Nanos(t0, t1)), static_cast<double>(trace.size()));
  *decode_ns = Ratio(static_cast<double>(Nanos(t1, t2)), static_cast<double>(frames));
}

double ShardSkew(const std::vector<StateAccess>& trace) {
  const wire::ConsistentHashRouter router(kServedShards);
  std::vector<uint64_t> per(kServedShards, 0);
  std::string key;
  for (const StateAccess& a : trace) {
    gadget::EncodeStateKeyTo(a.key, &key);
    ++per[static_cast<size_t>(router.Route(key))];
  }
  const double mean = static_cast<double>(trace.size()) / kServedShards;
  return Ratio(static_cast<double>(*std::max_element(per.begin(), per.end())), mean);
}

Status PerLayer(Runner& runner, const std::vector<Round>& untraced,
                const std::vector<Round>& traced, const CallTotals& calls, Report* rep) {
  const WorkloadSpec& spec = runner.spec();
  const double n = static_cast<double>(traced.size());
  StoreStats s;
  uint64_t l0 = 0;
  uint64_t ops = 0;
  uint64_t trace_ops = 0;
  double replay_thread_ns = 0;
  std::vector<double> gen;
  LatencyHistogram rtt;
  LatencyHistogram late;
  LatencyHistogram open;
  uint64_t outstanding = 0;
  wire::NetStats net;
  for (const Round& r : traced) {
    s.MergeSum(r.delta);
    l0 = std::max(l0, r.l0_files);
    ops += r.closed.acked + r.open.acked + (spec.threads > 0 ? r.ops : 0);
    trace_ops = r.trace_ops;
    replay_thread_ns += static_cast<double>(r.replay_ns) * spec.threads;
    rtt.Merge(r.closed.latency_ns);
    late.Merge(r.open.late_ns);
    open.Merge(r.open.latency_ns);
    outstanding = std::max(outstanding, r.open.outstanding_max);
    net.bytes_in += r.net.bytes_in;
    net.bytes_out += r.net.bytes_out;
    net.writev_calls += r.net.writev_calls;
    net.output_queue_stall_micros += r.net.output_queue_stall_micros;
    net.thread_ops.resize(std::max(net.thread_ops.size(), r.net.thread_ops.size()));
    for (size_t i = 0; i < r.net.thread_ops.size(); ++i) {
      net.thread_ops[i] += r.net.thread_ops[i];
    }
  }
  for (const auto* set : {&untraced, &traced}) {
    for (const Round& r : *set) {
      gen.push_back(r.gen_s);
    }
  }
  const double writes = static_cast<double>(s.puts + s.merges + s.deletes + s.rmws);
  const double hits = static_cast<double>(s.cache_hits);
  const double misses = static_cast<double>(s.cache_misses);

  double self_ns = 0;
  double put_wait_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double skew = 0;
  double engine_share = 0;
  double reactor_skew = 0;
  if (spec.threads > 0) {
    self_ns = Ratio(replay_thread_ns - static_cast<double>(calls.TotalNs()),
                    static_cast<double>(ops));
    if (spec.threads > 1) {
      CallTotals one;
      uint64_t one_ops = 0;
      GADGET_RETURN_IF_ERROR(runner.SingleThreadTotals(&one, &one_ops));
      put_wait_ns = calls.MeanNs(Call::kPut) - one.MeanNs(Call::kPut);
      rep->notes.push_back("1-thread baseline: store.put_ns " +
                           std::to_string(one.MeanNs(Call::kPut)) + ", engine ns/op " +
                           std::to_string(Ratio(static_cast<double>(one.TotalNs()),
                                                static_cast<double>(one_ops))));
    }
  } else {
    auto trace = gadget::BuildAccessTrace(TraceConfig(spec, runner.seed()));
    if (!trace.ok()) {
      return trace.status();
    }
    CodecTiming(*trace, &encode_ns, &decode_ns);
    skew = ShardSkew(*trace);
    CallTotals one;
    uint64_t one_ops = 0;
    GADGET_RETURN_IF_ERROR(runner.SingleThreadTotals(&one, &one_ops));
    engine_share = Ratio(Ratio(static_cast<double>(one.TotalNs()), static_cast<double>(one_ops)),
                         rtt.mean());
    if (!net.thread_ops.empty()) {
      uint64_t max = 0;
      uint64_t sum = 0;
      for (uint64_t v : net.thread_ops) {
        max = std::max(max, v);
        sum += v;
      }
      reactor_skew = Ratio(static_cast<double>(max),
                           static_cast<double>(sum) / static_cast<double>(net.thread_ops.size()));
    }
  }

  auto mean_ns = [&](Call c) { return calls.MeanNs(c); };
  auto p99_ns = [&](Call c) { return calls.P99Ns(c); };
  const bool in_process = spec.threads > 0;
  auto ip = [&](double v) { return in_process ? v : 0.0; };
  rep->per_layer = {
      {"workload.gen_s", Median(gen), "s"},
      {"workload.accesses_per_event",
       Ratio(static_cast<double>(trace_ops), static_cast<double>(spec.events)), "ops/event"},
      {"evaluator.self_ns_per_op", self_ns, "ns"},
      {"store.get_ns", ip(mean_ns(Call::kGet)), "ns"},
      {"store.get_ns_p99", ip(p99_ns(Call::kGet)), "ns"},
      {"store.get_miss_ns", ip(mean_ns(Call::kGetMiss)), "ns"},
      {"store.get_miss_ns_p99", ip(p99_ns(Call::kGetMiss)), "ns"},
      {"store.put_ns", ip(mean_ns(Call::kPut)), "ns"},
      {"store.put_ns_p99", ip(p99_ns(Call::kPut)), "ns"},
      {"store.merge_ns", ip(mean_ns(Call::kMerge)), "ns"},
      {"store.merge_ns_p99", ip(p99_ns(Call::kMerge)), "ns"},
      {"store.delete_ns", ip(mean_ns(Call::kDelete)), "ns"},
      {"store.delete_ns_p99", ip(p99_ns(Call::kDelete)), "ns"},
      {"store.put_wait_ns", put_wait_ns, "ns"},
      {"lsm.group_commits", static_cast<double>(s.wal_group_commits) / n, "count/round"},
      {"lsm.ops_per_group", Ratio(writes, writes - static_cast<double>(s.wal_group_commits)),
       "ops/append"},
      {"lsm.group_size_max", static_cast<double>(s.wal_group_size_max), "ops"},
      {"lsm.wal_bytes_per_op", Ratio(static_cast<double>(s.wal_bytes), writes), "B/op"},
      {"lsm.stall_ms", static_cast<double>(s.stall_micros) / 1000 / n, "ms/round"},
      {"lsm.slowdown_ms", static_cast<double>(s.slowdown_micros) / 1000 / n, "ms/round"},
      {"lsm.flushes", static_cast<double>(s.flushes) / n, "count/round"},
      {"lsm.flush_ms", static_cast<double>(s.flush_micros) / 1000 / n, "ms/round"},
      {"lsm.compactions", static_cast<double>(s.compactions) / n, "count/round"},
      {"lsm.compaction_ms", static_cast<double>(s.compaction_micros) / 1000 / n, "ms/round"},
      {"lsm.l0_files", static_cast<double>(l0), "count"},
      {"pool.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"pool.misses_per_get", Ratio(misses, static_cast<double>(s.gets)), "ratio"},
      {"pool.evictions", static_cast<double>(s.cache_evictions) / n, "count/round"},
      {"io.batches", static_cast<double>(s.io_batches) / n, "count/round"},
      {"io.in_flight_max", static_cast<double>(s.io_in_flight_max), "count"},
      {"wire.encode_ns_per_frame", encode_ns, "ns"},
      {"wire.decode_ns_per_frame", decode_ns, "ns"},
      {"router.shard_skew", skew, "ratio"},
      {"net.bytes_in_per_op", Ratio(static_cast<double>(net.bytes_in), static_cast<double>(ops)),
       "B/op"},
      {"net.bytes_out_per_op",
       Ratio(static_cast<double>(net.bytes_out), static_cast<double>(ops)), "B/op"},
      {"net.frames_per_writev",
       Ratio(static_cast<double>(in_process ? 0 : ops), static_cast<double>(net.writev_calls)),
       "frames"},
      {"net.outq_stall_ms", static_cast<double>(net.output_queue_stall_micros) / 1000 / n,
       "ms/round"},
      {"net.reactor_skew", reactor_skew, "ratio"},
      {"shard.ops_per_batch",
       in_process ? 0 : Ratio(static_cast<double>(s.batched_ops), static_cast<double>(s.batches)),
       "ops"},
      {"client.rtt_p50_us", PercentileNs(rtt, 50) / 1000, "us"},
      {"client.rtt_p99_us", PercentileNs(rtt, 99) / 1000, "us"},
      {"client.engine_share", engine_share, "ratio"},
      {"open.p50_us", PercentileNs(open, 50) / 1000, "us"},
      {"open.p99_us", PercentileNs(open, 99) / 1000, "us"},
      {"open.p999_us", PercentileNs(open, 99.9) / 1000, "us"},
      {"gen.late_p99_us", PercentileNs(late, 99) / 1000, "us"},
      {"gen.outstanding_max", static_cast<double>(outstanding), "requests"},
      {"trace.overhead", Ratio(MedianOpsPerSecond(untraced), MedianOpsPerSecond(traced)), "ratio"},
  };
  return Status::Ok();
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {.name = "hol_single", .source = "borg", .op = "sliding_hol", .events = 150'000,
       .threads = 1},
      {.name = "incr_shared4", .source = "borg", .op = "tumbling_incr", .events = 100'000,
       .threads = 4},
      {.name = "agg_cold", .source = "synthetic", .op = "aggregation", .events = 400'000,
       .keys = 200'000, .threads = 1, .write_buffer_bytes = 2 << 20, .pool_bytes = 1 << 20},
      {.name = "incr_served", .source = "borg", .op = "tumbling_incr", .events = 100'000,
       .threads = 0},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

gadget::StatusOr<gadget::ReplayResult> Replay(const std::vector<StateAccess>& trace,
                                              gadget::KVStore* store, int threads) {
  if (threads <= 1) {
    return gadget::ReplayTrace(trace, store);
  }
  auto sharded = gadget::ReplaySharded(trace, store, static_cast<unsigned>(threads));
  if (!sharded.ok()) {
    return sharded.status();
  }
  GADGET_RETURN_IF_ERROR(sharded->FirstError());
  return sharded->Merged();
}

gadget::Config TraceConfig(const WorkloadSpec& spec, uint64_t seed) {
  gadget::Config c;
  c.Set("source", spec.source);
  c.Set("operator", spec.op);
  c.Set("events", std::to_string(spec.events));
  c.Set("seed", std::to_string(seed));
  if (spec.keys != 0) {
    c.Set("keys", std::to_string(spec.keys));
    c.Set("key_distribution", "uniform");
  }
  return c;
}

gadget::StatusOr<std::unique_ptr<gadget::KVStore>> OpenWorkloadStore(const WorkloadSpec& spec,
                                                                      const std::string& dir) {
  gadget::StoreOptions so;
  so.engine = "lsm";
  so.dir = dir;
  if (spec.pool_bytes != 0) {
    so.buffer_pool.capacity_bytes = spec.pool_bytes;
  }
  if (spec.write_buffer_bytes == 0) {
    return gadget::OpenStore(so);
  }
  GADGET_RETURN_IF_ERROR(gadget::CreateDirIfMissing(dir));
  gadget::LsmOptions lo;
  lo.write_buffer_size = spec.write_buffer_bytes;
  return gadget::LsmStore::Open(dir, lo, std::make_shared<gadget::BufferPool>(so.buffer_pool));
}

Status RunWorkload(const WorkloadSpec& spec, const RunOptions& opts, Report* report,
                   std::ostream& err) {
  Runner runner(spec, opts, err);
  std::vector<Round> untraced;
  Status s = runner.Loop(opts.seconds, nullptr, &untraced);
  std::vector<Round> traced;
  std::unique_ptr<SpanRecorder> rec;
  if (s.ok() && opts.trace) {
    rec = std::make_unique<SpanRecorder>(kSpanEvery);
    s = runner.Loop(opts.seconds, rec.get(), &traced);
  }
  for (const auto* set : {&untraced, &traced}) {
    for (const Round& r : *set) {
      report->attempted += r.attempted;
      report->failed += r.failed;
      if (r.mismatches != 0) {
        report->correct = false;
      }
    }
  }
  GADGET_RETURN_IF_ERROR(s);
  EndToEnd(untraced, report);
  if (!opts.trace) {
    return Status::Ok();
  }
  const CallTotals calls = rec->Totals();
  GADGET_RETURN_IF_ERROR(PerLayer(runner, untraced, traced, calls, report));
  const std::string path =
      opts.out_dir + "/spans-" + spec.name + "-seed" + std::to_string(opts.seed) + ".csv";
  if (!rec->WriteCsv(path)) {
    return Status::IoError("cannot write " + path);
  }
  report->notes.push_back("spans written to " + path);
  return Status::Ok();
}

}  // namespace perfbench

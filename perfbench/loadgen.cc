#include "perfbench/loadgen.h"

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <thread>

#include "src/common/hash.h"
#include "src/server/net/socket.h"
#include "src/server/wire.h"

namespace perfbench {

using gadget::Status;
using gadget::StateAccess;
namespace wire = gadget::wire;

namespace {

// A phase that hears nothing back for this long has lost requests.
constexpr int kStallTimeoutMs = 10'000;

// The calling thread's CPUs split into {generator} and {server}: the highest
// allowed CPU goes to the generator. False when fewer than two are allowed.
bool SplitCpus(cpu_set_t* generator, cpu_set_t* server) {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) {
    return false;
  }
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) {
      last = c;
    }
  }
  *server = all;
  CPU_CLR(last, server);
  CPU_ZERO(generator);
  CPU_SET(last, generator);
  return true;
}

// Pins the calling thread to the generator CPU for its lifetime.
class GeneratorCpu {
 public:
  GeneratorCpu() {
    cpu_set_t server;
    cpu_set_t generator;
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
              SplitCpus(&generator, &server) &&
              sched_setaffinity(0, sizeof(generator), &generator) == 0;
  }
  ~GeneratorCpu() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  GeneratorCpu(const GeneratorCpu&) = delete;
  GeneratorCpu& operator=(const GeneratorCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace

void AppendOpRequest(const StateAccess& a, uint32_t id, std::string* key, std::string* value,
                     std::string* out) {
  gadget::EncodeStateKeyTo(a.key, key);
  if (a.value_size > value->size()) {
    value->resize(a.value_size, 'v');  // the evaluator's synthetic values
  }
  const std::string_view v(value->data(), a.value_size);
  switch (a.op) {
    case gadget::OpType::kGet:
      wire::AppendGetRequest(out, id, *key);
      break;
    case gadget::OpType::kPut:
      wire::AppendPutRequest(out, id, *key, v);
      break;
    case gadget::OpType::kMerge:
      wire::AppendMergeRequest(out, id, *key, v);
      break;
    case gadget::OpType::kDelete:
      wire::AppendDeleteRequest(out, id, *key);
      break;
  }
}

gadget::StatusOr<std::unique_ptr<wire::Server>> StartServer(const wire::ServerOptions& options) {
  gadget::StatusOr<std::unique_ptr<wire::Server>> server = Status::Internal("not started");
  // Threads inherit the affinity of the thread that creates them, so the
  // server is started from a thread already confined to the server CPUs.
  std::thread starter([&] {
    cpu_set_t generator;
    cpu_set_t cpus;
    if (SplitCpus(&generator, &cpus)) {
      sched_setaffinity(0, sizeof(cpus), &cpus);
    }
    server = wire::Server::Start(options);
  });
  starter.join();
  return server;
}

struct Generator::Conn {
  int fd = -1;
  std::string rbuf;
  uint32_t next_id = 1;       // 0 is the server's connection-fatal id
  std::vector<uint32_t> ops;  // trace positions owned by this connection, ascending
  std::string key;
  std::string value;
  std::string out;

  ~Conn() { gadget::net::CloseFd(fd); }

  void Encode(const StateAccess& a, uint32_t id) { AppendOpRequest(a, id, &key, &value, &out); }

  Status Flush() {
    if (out.empty()) {
      return Status::Ok();
    }
    Status s = gadget::net::SendAll(fd, out);
    out.clear();
    return s;
  }

  // Decodes every complete response frame that has arrived so far and hands
  // it to `on(response, arrival_time)`. Call when the socket is readable.
  template <typename F>
  Status ReadAvailable(F&& on) {
    for (;;) {
      std::string err;
      const int n = gadget::net::RecvChunk(fd, &rbuf, 64 << 10, &err);
      if (n == -1) {
        break;
      }
      if (n == 0) {
        return Status::IoError("server closed the connection");
      }
      if (n < 0) {
        return Status::IoError(err);
      }
    }
    const Clock::time_point now = Clock::now();
    size_t off = 0;
    for (;;) {
      wire::FrameView frame;
      size_t consumed = 0;
      std::string err;
      const auto fs =
          wire::ExtractFrame(std::string_view(rbuf).substr(off), &frame, &consumed, &err);
      if (fs == wire::FrameStatus::kNeedMore) {
        break;
      }
      if (fs == wire::FrameStatus::kError) {
        return Status::IoError("bad response frame: " + err);
      }
      wire::Response resp;
      GADGET_RETURN_IF_ERROR(wire::ParseResponse(frame, &resp));
      if (resp.type == wire::MsgType::kError && resp.id == 0) {
        return Status::IoError("server closed the connection: " + resp.value);
      }
      GADGET_RETURN_IF_ERROR(on(resp, now));
      off += consumed;
    }
    rbuf.erase(0, off);
    return Status::Ok();
  }
};

namespace {

// Waits until one of `fds` is readable or `timeout_ns` passes (< 0: no
// limit); sets (*ready)[i] for each readable fd.
void WaitReadable(const std::vector<int>& fds, int64_t timeout_ns, std::vector<bool>* ready) {
  std::vector<pollfd> p(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    p[i] = pollfd{fds[i], POLLIN, 0};
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  const int r = ::ppoll(p.data(), p.size(), timeout_ns < 0 ? nullptr : &ts, nullptr);
  ready->assign(fds.size(), false);
  for (size_t i = 0; r > 0 && i < fds.size(); ++i) {
    (*ready)[i] = (p[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0;
  }
}

}  // namespace

gadget::StatusOr<std::unique_ptr<Generator>> Generator::Connect(
    uint16_t port, int conns, const std::vector<StateAccess>* trace) {
  std::unique_ptr<Generator> g(new Generator());
  g->trace_ = trace;
  for (int c = 0; c < conns; ++c) {
    auto fd = gadget::net::TcpConnect(port);
    if (!fd.ok()) {
      return fd.status();
    }
    g->conns_.push_back(std::make_unique<Conn>());
    g->conns_.back()->fd = *fd;
    GADGET_RETURN_IF_ERROR(gadget::net::SetNonBlocking(*fd));
  }
  std::string key;
  for (size_t i = 0; i < trace->size(); ++i) {
    gadget::EncodeStateKeyTo((*trace)[i].key, &key);
    g->conns_[gadget::Hash64(key) % static_cast<uint64_t>(conns)]->ops.push_back(
        static_cast<uint32_t>(i));
  }
  return g;
}

Generator::~Generator() = default;

namespace {

// Classifies one response against the request it answers.
Status Account(const wire::Response& resp, gadget::OpType op, LoadResult* r) {
  if (resp.type == wire::MsgType::kError) {
    ++r->errors;
    return Status::Ok();
  }
  const bool is_get = op == gadget::OpType::kGet;
  if (is_get && resp.type == wire::MsgType::kNotFound) {
    ++r->not_found;
  } else if (is_get ? resp.type != wire::MsgType::kValue : resp.type != wire::MsgType::kOk) {
    return Status::IoError(std::string("unexpected response ") + wire::MsgTypeName(resp.type));
  }
  ++r->acked;
  return Status::Ok();
}

}  // namespace

Status Generator::RunPhase(size_t begin, size_t end, const Pace& pace, LoadResult* out,
                           SpanRecorder* rec) {
  // One connection's share of the phase.
  struct Lane {
    Conn* conn = nullptr;
    size_t index = 0;
    std::vector<uint32_t> ops;  // trace positions, in trace order
    uint32_t base = 0;          // correlation id of ops[0]
    size_t next = 0;            // ops[0, next) have been sent
    size_t done = 0;
    std::vector<Clock::time_point> start;  // send (closed) or due (open) time
  };
  const GeneratorCpu pin;
  // Open-loop wake-ups are microseconds apart; the default 50 us timer slack
  // would make every send late.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const bool open = pace.rate_ops_s > 0;
  const double gap_ns = open ? 1e9 / pace.rate_ops_s : 0;
  // Open loop: trace position p is due at t0 + (p - begin) / rate, whichever
  // connection carries it.
  const Clock::time_point t0 = Clock::now();
  auto due = [&](uint32_t p) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(gap_ns * static_cast<double>(p - begin)));
  };
  std::vector<Lane> lanes;
  std::vector<int> fds;
  for (size_t ci = 0; ci < conns_.size(); ++ci) {
    Lane l;
    l.conn = conns_[ci].get();
    l.index = ci;
    const auto& all = l.conn->ops;
    l.ops.assign(std::lower_bound(all.begin(), all.end(), begin),
                 std::lower_bound(all.begin(), all.end(), end));
    l.base = l.conn->next_id;
    l.conn->next_id += static_cast<uint32_t>(l.ops.size());
    l.start.resize(l.ops.size());
    out->attempted += l.ops.size();
    fds.push_back(l.conn->fd);
    lanes.push_back(std::move(l));
  }
  std::vector<bool> ready;
  size_t remaining = end - begin;
  Clock::time_point last_progress = t0;
  while (remaining > 0) {
    // Send what is due (open) or what the window allows (closed).
    Clock::time_point next_due = Clock::time_point::max();
    const Clock::time_point now = Clock::now();
    for (Lane& l : lanes) {
      for (; l.next < l.ops.size(); ++l.next) {
        if (open) {
          const Clock::time_point d = due(l.ops[l.next]);
          if (d > now) {
            next_due = std::min(next_due, d);
            break;
          }
          out->late_ns.Record(Nanos(d, now));
          l.start[l.next] = d;
        } else {
          if (l.next - l.done >= static_cast<size_t>(pace.window)) {
            break;
          }
          l.start[l.next] = now;
        }
        l.conn->Encode((*trace_)[l.ops[l.next]], l.base + static_cast<uint32_t>(l.next));
      }
      out->outstanding_max = std::max<uint64_t>(out->outstanding_max, l.next - l.done);
      GADGET_RETURN_IF_ERROR(l.conn->Flush());
    }
    const int64_t wait_ns =
        next_due == Clock::time_point::max()
            ? 100'000'000
            : std::max<int64_t>(0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       next_due - Clock::now())
                                       .count());
    WaitReadable(fds, wait_ns, &ready);
    bool progress = next_due != Clock::time_point::max();
    for (size_t i = 0; i < lanes.size(); ++i) {
      if (!ready[i]) {
        continue;
      }
      Lane& l = lanes[i];
      auto on = [&](const wire::Response& resp, Clock::time_point at) -> Status {
        const size_t j = resp.id - l.base;
        if (resp.id < l.base || j >= l.next) {
          return Status::IoError("unmatched response id " + std::to_string(resp.id));
        }
        GADGET_RETURN_IF_ERROR(Account(resp, (*trace_)[l.ops[j]].op, out));
        out->latency_ns.Record(Nanos(l.start[j], at));
        if (rec != nullptr) {
          rec->AddCall(Call::kRequest, "client.request", rec->ToNs(l.start[j]), rec->ToNs(at),
                       (static_cast<uint64_t>(l.index) << 32) | resp.id);
        }
        ++l.done;
        --remaining;
        progress = true;
        return Status::Ok();
      };
      Status s = l.conn->ReadAvailable(on);
      if (!s.ok()) {
        out->errors += remaining;
        return s;
      }
    }
    if (progress) {
      last_progress = Clock::now();
    } else if (Seconds(last_progress, Clock::now()) * 1000 > kStallTimeoutMs) {
      out->errors += remaining;
      return Status::IoError("no response for 10 s");
    }
  }
  out->seconds = Seconds(t0, Clock::now());
  return Status::Ok();
}

Oracle::BatchReader Generator::Reader() {
  return [this](const std::vector<std::string>& keys, std::vector<std::string>* values,
                std::vector<bool>* found) -> Status {
    Conn& c = *conns_[0];
    const uint32_t base = c.next_id;
    c.next_id += static_cast<uint32_t>(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      wire::AppendGetRequest(&c.out, base + static_cast<uint32_t>(i), keys[i]);
    }
    GADGET_RETURN_IF_ERROR(c.Flush());
    values->assign(keys.size(), std::string());
    found->assign(keys.size(), false);
    size_t done = 0;
    auto on = [&](const wire::Response& resp, Clock::time_point) -> Status {
      const size_t j = resp.id - base;
      if (resp.id < base || j >= keys.size()) {
        return Status::IoError("unmatched response id " + std::to_string(resp.id));
      }
      if (resp.type == wire::MsgType::kValue) {
        (*found)[j] = true;
        (*values)[j] = resp.value;
      } else if (resp.type != wire::MsgType::kNotFound) {
        return Status::IoError(std::string("read-back got ") + wire::MsgTypeName(resp.type));
      }
      ++done;
      return Status::Ok();
    };
    std::vector<bool> ready;
    while (done < keys.size()) {
      WaitReadable({c.fd}, int64_t{kStallTimeoutMs} * 1'000'000, &ready);
      if (!ready[0]) {
        return Status::IoError("read-back: no response for 10 s");
      }
      GADGET_RETURN_IF_ERROR(c.ReadAvailable(on));
    }
    return Status::Ok();
  };
}

}  // namespace perfbench

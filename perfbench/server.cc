// Workload `server`: the served path.
//
// An in-process net::Server (workers=1) over an 8-shard memory-resident
// store built through kv::MakeSharded (bsize 1024, ffactor 8), preloaded
// with 100,000 dictionary words x 100-byte values that fit the pools.  One
// binary (Client::Pipeline) and one memcached text connection each own
// half of the keys, so every reply can be checked exactly:
//
//   * closed loop: rounds of a depth-32 pipeline on each connection, 90%
//     GET / 10% PUT, Zipf 0.99 -> ops_per_s;
//   * open loop: single requests on a fixed schedule of 10,000/s per
//     connection, far below capacity -> the latency percentiles, plus how
//     late the generator ran;
//   * the two take turns in 250 ms slices for the whole run; then full
//     pipelined SCAN passes over the binary connection.
//
// Both connections are driven from one thread, so the client and the
// server take turns: on a shared 4-vCPU VM two concurrently busy threads
// lost ~12% of their time to host stalls of 1-24 ms, one almost none.  For
// the same reason latency is timed from each request's actual send: timed
// from its scheduled send, a host stall also delays every request queued
// behind it, and that p99 (kept as gen.sched_get_p99_us) moved between
// 0.16 and 19 ms from run to run.
//
// Every request has a deadline (kDeadlineMs); a request that misses it
// counts as failed and its connection is replaced.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <memory>

#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "src/kv/sharded.h"
#include "src/net/client.h"
#include "src/net/memcached.h"
#include "src/net/server.h"
#include "src/util/random.h"
#include "src/workload/dictionary.h"

namespace hashkit {
namespace perfbench {

namespace {

constexpr size_t kKeys = 100'000;
constexpr size_t kValueLen = 100;
constexpr size_t kShards = 8;
constexpr uint64_t kShardPoolBytes = 16ull << 20;  // each shard fits its pool
constexpr size_t kDepth = 32;
constexpr double kPutShare = 0.10;
constexpr double kZipfTheta = 0.99;
constexpr double kOpenLoopRate = 10'000;  // requests/s per connection
constexpr int kDeadlineMs = 500;
constexpr uint64_t kShiftEvery = 8192;             // ops between hot-set changes
constexpr uint64_t kSliceNs = 250'000'000;         // closed and open loop take turns
constexpr uint64_t kRateWindowNs = 50'000'000;     // closed-loop throughput windows
constexpr uint64_t kLatencyWindowNs = 50'000'000;  // open-loop latency windows
// A traced run alternates recording on and off in closed-loop slices of
// this length, so their throughput ratio is the tracing overhead.
constexpr uint64_t kTraceSliceNs = 100'000'000;
constexpr size_t kScanDepth = 64;

// A memcached text connection whose every wait is bounded by a deadline.
class McConn {
 public:
  ~McConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  McConn(const McConn&) = delete;
  McConn& operator=(const McConn&) = delete;

  static std::unique_ptr<McConn> Connect(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return nullptr;
    }
    std::unique_ptr<McConn> conn(new McConn(fd));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return nullptr;
    }
    return conn;
  }

  bool Send(std::string_view bytes, uint64_t deadline) {
    while (!bytes.empty()) {
      if (!Wait(POLLOUT, deadline)) {
        return false;
      }
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  // One reply line without its "\r\n".
  bool ReadLine(std::string_view* line, uint64_t deadline) {
    for (;;) {
      const size_t end = buf_.find("\r\n", pos_);
      if (end != std::string::npos) {
        *line = std::string_view(buf_).substr(pos_, end - pos_);
        pos_ = end + 2;
        return true;
      }
      if (!Fill(deadline)) {
        return false;
      }
    }
  }

  // `n` data bytes followed by "\r\n".
  bool ReadBlock(size_t n, std::string_view* data, uint64_t deadline) {
    while (buf_.size() - pos_ < n + 2) {
      if (!Fill(deadline)) {
        return false;
      }
    }
    *data = std::string_view(buf_).substr(pos_, n);
    const bool terminated = buf_.compare(pos_ + n, 2, "\r\n") == 0;
    pos_ += n + 2;
    return terminated;
  }

 private:
  explicit McConn(int fd) : fd_(fd) {}

  bool Wait(short events, uint64_t deadline) {
    const uint64_t now = NowNs();
    if (now >= deadline) {
      return false;
    }
    pollfd p{fd_, events, 0};
    const int ms = static_cast<int>((deadline - now + 999'999) / 1'000'000);
    return ::poll(&p, 1, ms) == 1 && (p.revents & events) != 0;
  }

  bool Fill(uint64_t deadline) {
    if (pos_ > 0 && pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    }
    if (!Wait(POLLIN, deadline)) {
      return false;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return false;
    }
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

net::ClientOptions DeadlineOptions() {
  net::ClientOptions options;
  options.connect_timeout_ms = kDeadlineMs;
  options.recv_timeout_ms = kDeadlineMs;
  options.send_timeout_ms = kDeadlineMs;
  return options;
}

// Everything set-up builds, torn down in reverse order.
struct Stack {
  std::unique_ptr<kv::KvStore> store;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> bin;
  std::unique_ptr<McConn> mc;

  ~Stack() {
    bin.reset();
    mc.reset();
    if (server != nullptr) {
      server->Stop();
    }
  }
};

// The keys: the binary connection owns [0, kKeys/2), the text one the rest.
struct Keys {
  std::vector<std::string> words;
  std::vector<uint32_t> versions;   // last version written per key
  std::vector<uint8_t> uncertain;   // a write to it timed out: skip checks
};

// Stored value of key `i` at `version`; text-owned keys carry memcached's
// 4-byte flags prefix, as a `set` through the text listener stores them.
std::string StoredValue(size_t i, uint32_t version) {
  std::string data = MakeValue(i, version, kValueLen);
  if (i < kKeys / 2) {
    return data;
  }
  std::string raw;
  net::mc::EncodeValue(0, data, &raw);
  return raw;
}

Status BuildStack(const Keys& keys, bool trace, Stack* stack) {
  const kv::ShardFactory factory = [trace](size_t) -> Result<std::unique_ptr<kv::KvStore>> {
    kv::StoreOptions options;
    options.page_size = 1024;
    options.ffactor = 8;
    options.nelem = 0;  // grow from one bucket
    options.cachesize = kShardPoolBytes;
    HASHKIT_ASSIGN_OR_RETURN(std::unique_ptr<kv::KvStore> shard,
                             kv::OpenStore(kv::StoreKind::kHashMemory, options));
    if (trace) {
      shard = std::make_unique<TracedStore>(std::move(shard), SpanName::kKvShard, false);
    }
    return shard;
  };
  HASHKIT_ASSIGN_OR_RETURN(stack->store, kv::MakeSharded(factory, kShards));
  if (trace) {
    stack->store =
        std::make_unique<TracedStore>(std::move(stack->store), SpanName::kKvApplyBatch, true);
  }
  for (size_t i = 0; i < kKeys; ++i) {
    HASHKIT_RETURN_IF_ERROR(stack->store->Put(keys.words[i], StoredValue(i, 0)));
  }
  net::ServerOptions options;
  options.workers = 1;
  options.port = 0;
  options.memcached_port = 0;
  stack->server = std::make_unique<net::Server>(stack->store.get(), options);
  HASHKIT_RETURN_IF_ERROR(stack->server->Start());
  HASHKIT_ASSIGN_OR_RETURN(stack->bin,
                           net::Client::Connect("127.0.0.1", stack->server->port(),
                                                DeadlineOptions()));
  stack->mc = McConn::Connect(stack->server->memcached_port());
  if (stack->mc == nullptr) {
    return Status::IoError("memcached connect failed");
  }
  return Status::Ok();
}

// One client connection's share of the run.
struct Side {
  bool text = false;
  size_t lo = 0;  // owned key range [lo, hi)
  size_t hi = 0;
  Rng rng{1};
  uint64_t shift = 0;
  uint64_t picks = 0;

  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t protocol_errors = 0;
  uint64_t timeouts = 0;
  Samples get_ns;      // open loop, kLatencyWindowNs windows
  Samples put_ns;
  Samples request_ns;  // both kinds
  Samples late_ns;     // send lateness

  size_t PickKey() {
    const size_t n = hi - lo;
    if (picks++ % kShiftEvery == 0) {
      shift = rng.Uniform(n);
    }
    return lo + ScatterRank(rng.Zipf(n, kZipfTheta), shift, n);
  }
};

struct PendingOp {
  size_t key;
  bool put;
  uint32_t version;  // written (PUT) or expected (GET)
  bool check;        // false when the key's value is uncertain
};

// Builds the next `n` ops for `side`, advancing versions for PUTs.
void NextOps(Side* side, Keys* keys, size_t n, std::vector<PendingOp>* ops) {
  ops->clear();
  for (size_t i = 0; i < n; ++i) {
    const bool put = side->rng.NextDouble() < kPutShare;
    const size_t k = side->PickKey();
    if (put) {
      ops->push_back({k, true, ++keys->versions[k], true});
    } else {
      ops->push_back({k, false, keys->versions[k], keys->uncertain[k] == 0});
    }
  }
}

// Issues `ops` on the side's connection as one pipeline and checks every
// reply; returns false when the connection must be replaced.
bool IssueBinary(net::Client* client, const Keys& keys, const std::vector<PendingOp>& ops,
                 std::vector<net::Request>* requests, std::vector<net::Response>* responses,
                 std::vector<bool>* ok) {
  requests->resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    net::Request& req = (*requests)[i];
    req.op = ops[i].put ? net::Opcode::kPut : net::Opcode::kGet;
    req.flags = 0;
    req.key = keys.words[ops[i].key];
    if (ops[i].put) {
      MakeValueInto(ops[i].key, ops[i].version, kValueLen, &req.value);
    } else {
      req.value.clear();
    }
  }
  ok->assign(ops.size(), false);
  if (!client->Pipeline(*requests, responses).ok() || responses->size() != ops.size()) {
    return false;
  }
  std::string expect;
  for (size_t i = 0; i < ops.size(); ++i) {
    const net::Response& resp = (*responses)[i];
    if (resp.status != StatusCode::kOk) {
      continue;
    }
    if (ops[i].put || !ops[i].check) {
      (*ok)[i] = true;
      continue;
    }
    MakeValueInto(ops[i].key, ops[i].version, kValueLen, &expect);
    (*ok)[i] = resp.value == expect;
  }
  return true;
}

// The text-protocol bytes for `ops`.
std::string TextWire(const Keys& keys, const std::vector<PendingOp>& ops) {
  std::string wire;
  std::string value;
  for (const PendingOp& op : ops) {
    const std::string& key = keys.words[op.key];
    if (op.put) {
      MakeValueInto(op.key, op.version, kValueLen, &value);
      wire += "set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" + value + "\r\n";
    } else {
      wire += "get " + key + "\r\n";
    }
  }
  return wire;
}

// Reads and checks the text replies to `ops`.  A reply that breaks framing
// counts as a protocol error; either way false means the connection must
// be replaced.
bool ReadText(McConn* conn, const Keys& keys, const std::vector<PendingOp>& ops,
              uint64_t deadline, std::vector<bool>* ok, uint64_t* protocol_errors) {
  std::string expect;
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string_view line;
    if (!conn->ReadLine(&line, deadline)) {
      return false;
    }
    if (ops[i].put) {
      if (line != "STORED") {
        ++*protocol_errors;
        return false;
      }
      (*ok)[i] = true;
      continue;
    }
    if (line == "END") {  // a miss: every key is present, so a wrong result
      continue;
    }
    // VALUE <key> <flags> <bytes>
    const std::string head = "VALUE " + keys.words[ops[i].key] + " 0 ";
    size_t bytes = 0;
    if (line.substr(0, head.size()) != head ||
        std::from_chars(line.data() + head.size(), line.data() + line.size(), bytes).ec !=
            std::errc()) {
      ++*protocol_errors;
      return false;
    }
    std::string_view data;
    std::string_view end;
    if (!conn->ReadBlock(bytes, &data, deadline) || !conn->ReadLine(&end, deadline) ||
        end != "END") {
      ++*protocol_errors;
      return false;
    }
    MakeValueInto(ops[i].key, ops[i].version, kValueLen, &expect);
    (*ok)[i] = !ops[i].check || data == expect;
  }
  return true;
}

// One connection and its side's ops in flight.  Start sends (text) or
// prepares (binary, whose Pipeline sends and waits in one call); Finish
// waits for the replies, checks and tallies them, and replaces the
// connection after a deadline miss or protocol error.
struct Conn {
  Side* side = nullptr;
  Keys* keys = nullptr;
  uint16_t port = 0;
  std::unique_ptr<net::Client> bin;
  std::unique_ptr<McConn> mc;
  std::vector<PendingOp> ops;
  std::vector<net::Request> requests;
  std::vector<net::Response> responses;
  std::vector<bool> ok;
  uint64_t deadline = 0;
  bool sent = false;

  void Start(size_t n) {
    NextOps(side, keys, n, &ops);
    ok.assign(ops.size(), false);
    if (side->text) {
      deadline = NowNs() + kDeadlineMs * 1'000'000ull;
      sent = mc != nullptr && mc->Send(TextWire(*keys, ops), deadline);
    }
  }

  void Finish() {
    const bool alive =
        side->text
            ? sent && ReadText(mc.get(), *keys, ops, deadline, &ok, &side->protocol_errors)
            : bin != nullptr && IssueBinary(bin.get(), *keys, ops, &requests, &responses, &ok);
    side->ops += ops.size();
    for (size_t i = 0; i < ops.size(); ++i) {
      const bool good = alive && ok[i];
      side->failed += good ? 0 : 1;
      if (ops[i].put) {
        keys->uncertain[ops[i].key] = good ? 0 : 1;
      }
    }
    if (!alive) {
      ++side->timeouts;
      if (side->text) {
        mc = McConn::Connect(port);
      } else {
        auto client = net::Client::Connect("127.0.0.1", port, DeadlineOptions());
        bin = client.ok() ? std::move(client).value() : nullptr;
      }
    }
  }
};

// Closed loop: each round sends a depth-32 text pipeline, runs a depth-32
// binary pipeline, then collects the text replies, so both connections'
// frames meet in the server's batches.  A traced run alternates recording
// in kTraceSliceNs slices.  Returns (round end, ops) per round.
std::vector<std::pair<uint64_t, uint32_t>> ClosedLoop(Conn conns[2], uint64_t start,
                                                      uint64_t end, bool trace,
                                                      uint64_t mode_ops[2],
                                                      uint64_t mode_ns[2]) {
  std::vector<std::pair<uint64_t, uint32_t>> rounds;
  for (uint64_t now = NowNs(); now < end; now = NowNs()) {
    const int mode = trace && (now - start) / kTraceSliceNs % 2 == 1 ? 1 : 0;
    SetRecording(mode == 1);
    {
      const ScopedSpan span(SpanName::kNetRequest, /*root=*/true, true, 2 * kDepth);
      conns[1].Start(kDepth);
      conns[0].Start(kDepth);
      conns[0].Finish();
      conns[1].Finish();
    }
    const uint64_t done = NowNs();
    mode_ops[mode] += 2 * kDepth;
    mode_ns[mode] += done - now;
    rounds.emplace_back(done, static_cast<uint32_t>(2 * kDepth));
  }
  SetRecording(false);
  return rounds;
}

// Open loop: single requests on a fixed schedule, alternating connections,
// kOpenLoopRate per connection.  Latency is timed from the actual send;
// the time from the scheduled send and the lateness are kept too, in
// kLatencyWindowNs percentile windows numbered from `first_window`.
void OpenLoop(Conn conns[2], uint64_t start, uint64_t end, size_t first_window,
              Samples* sched_get_ns) {
  const auto interval = static_cast<uint64_t>(1e9 / (2 * kOpenLoopRate));
  for (uint64_t i = 0;; ++i) {
    const uint64_t due = start + i * interval;
    if (due >= end) {
      break;
    }
    const size_t window = first_window + (due - start) / kLatencyWindowNs;
    Conn& conn = conns[i % 2];
    while (NowNs() < due) {
      sched_yield();  // the server shares this CPU
    }
    const uint64_t sent = NowNs();
    {
      const ScopedSpan span(SpanName::kNetRequest, /*root=*/true);
      conn.Start(1);
      conn.Finish();
    }
    const uint64_t done = NowNs();
    Side* side = conn.side;
    side->late_ns.Add(window, sent - due);
    side->request_ns.Add(window, done - sent);
    (conn.ops[0].put ? side->put_ns : side->get_ns).Add(window, done - sent);
    if (!conn.ops[0].put) {
      sched_get_ns->Add(window, done - due);
    }
  }
}

// One full SCAN pass over the binary connection, pipelined kScanDepth
// deep; checks every pair and returns the pairs seen (0 on a transport
// failure).
uint64_t ScanPass(net::Client* client, const Keys& keys, uint64_t* bad) {
  std::vector<net::Request> requests(kScanDepth);
  std::vector<net::Response> responses;
  std::vector<bool> seen(kKeys, false);
  std::string expect;
  uint64_t n = 0;
  for (bool first = true;; first = false) {
    for (size_t i = 0; i < kScanDepth; ++i) {
      requests[i].op = net::Opcode::kScan;
      requests[i].flags = first && i == 0 ? net::kFlagScanFirst : 0;
    }
    if (!client->Pipeline(requests, &responses).ok()) {
      return 0;
    }
    for (const net::Response& resp : responses) {
      if (resp.status == StatusCode::kNotFound) {
        return n;  // end of table; later replies restarted the cursor
      }
      ++n;
      uint64_t one_based = 0;
      const char* p = resp.value.data() + (resp.value.size() > kValueLen ? 4 : 0);
      const auto parsed = std::from_chars(p, resp.value.data() + resp.value.size(), one_based);
      const size_t i = one_based - 1;
      if (resp.status != StatusCode::kOk || parsed.ec != std::errc() || one_based == 0 ||
          i >= kKeys || seen[i] || keys.words[i] != resp.key) {
        ++*bad;
        continue;
      }
      seen[i] = true;
      if (keys.uncertain[i] == 0) {
        *bad += resp.value == StoredValue(i, keys.versions[i]) ? 0 : 1;
      }
    }
  }
}

}  // namespace

void RunServer(const RunConfig& config, Report* report) {
  Keys keys;
  keys.words = workload::GenerateDictionaryWords(kKeys, config.seed);
  keys.versions.assign(kKeys, 0);
  keys.uncertain.assign(kKeys, 0);
  uint64_t user_bytes = 0;
  for (const std::string& word : keys.words) {
    user_bytes += word.size() + kValueLen;
  }

  // Set-up: store open, preload, Server::Start and connects, several
  // times (it is short); keep the last.
  const int setups = config.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  uint64_t heap_growth = 0;
  for (int s = 0; s < setups; ++s) {
    stack.reset();
    PinToNextCpu();
    const uint64_t heap_before = HeapBytes();
    const uint64_t t0 = NowNs();
    stack = std::make_unique<Stack>();
    const Status built = BuildStack(keys, config.trace, stack.get());
    if (!built.ok()) {
      report->Check("setup", false, built.ToString());
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (s == 0) {
      heap_growth = HeapBytes() - heap_before;
    }
  }
  kv::StoreStats loaded;
  stack->store->Stats(&loaded);

  Side sides[2];
  sides[0].lo = 0;
  sides[0].hi = kKeys / 2;
  sides[1].text = true;
  sides[1].lo = kKeys / 2;
  sides[1].hi = kKeys;
  Conn conns[2];
  for (int i = 0; i < 2; ++i) {
    sides[i].rng = Rng(config.seed * 0x9E3779B97F4A7C15ull + 11 + i);
    conns[i].side = &sides[i];
    conns[i].keys = &keys;
  }
  conns[0].port = stack->server->port();
  conns[0].bin = std::move(stack->bin);
  conns[1].port = stack->server->memcached_port();
  conns[1].mc = std::move(stack->mc);

  // The measured phase: closed-loop and open-loop slices take turns, so
  // each half samples the whole run rather than one stretch of it.  All
  // traffic comes from this thread: the process's CPU time minus this
  // thread's is the server's.
  const net::NetStats& net = stack->server->stats();
  kv::StoreStats store0;
  stack->store->Stats(&store0);
  uint64_t batches = 0;
  uint64_t batched = 0;
  uint64_t bytes = 0;
  uint64_t closed_ops = 0;
  uint64_t closed_ns = 0;
  double server_cpu = 0.0;
  uint64_t mode_ops[2] = {0, 0};
  uint64_t mode_ns[2] = {0, 0};
  std::vector<double> window_ops;  // ops completed per kRateWindowNs
  Samples sched_get_ns;
  size_t open_slices = 0;
  const uint64_t run_end = NowNs() + static_cast<uint64_t>(config.seconds * 1e9);
  for (int slice = 0;; ++slice) {
    if (slice % 2 == 0) {
      PinToNextCpu();  // a closed-loop slice and the open-loop one after it share a CPU
    }
    const uint64_t start = NowNs();
    if (start >= run_end) {
      break;
    }
    const uint64_t end = std::min(run_end, start + kSliceNs);
    if (slice % 2 == 1) {
      SetPhase(Phase::kOpenLoop);
      SetRecording(config.trace);
      OpenLoop(conns, start, end, open_slices++ * (kSliceNs / kLatencyWindowNs), &sched_get_ns);
      SetRecording(false);
      continue;
    }
    SetPhase(Phase::kClosedLoop);
    const uint64_t batches0 = net.batches.load();
    const uint64_t batched0 = net.batched_ops.load();
    const uint64_t bytes0 = net.bytes_in.load() + net.bytes_out.load();
    const double cpu0 = ProcessCpuSeconds();
    const double client_cpu0 = ThreadCpuSeconds();
    const auto rounds = ClosedLoop(conns, start, end, config.trace, mode_ops, mode_ns);
    server_cpu += ProcessCpuSeconds() - cpu0 - (ThreadCpuSeconds() - client_cpu0);
    closed_ns += NowNs() - start;
    batches += net.batches.load() - batches0;
    batched += net.batched_ops.load() - batched0;
    bytes += net.bytes_in.load() + net.bytes_out.load() - bytes0;
    std::vector<double> slice_ops((end - start) / kRateWindowNs, 0.0);
    for (const auto& [done, n] : rounds) {
      closed_ops += n;
      if (const uint64_t w = (done - start) / kRateWindowNs; w < slice_ops.size()) {
        slice_ops[w] += n;
      }
    }
    window_ops.insert(window_ops.end(), slice_ops.begin(), slice_ops.end());
  }
  kv::StoreStats store1;
  stack->store->Stats(&store1);

  // Full wire scans, which also check every pair's last acknowledged value.
  SetPhase(Phase::kScan);
  std::vector<double> scan_rates;
  uint64_t bad_passes = 0;
  const uint64_t scan_until = NowNs() + kMinScanNs;
  for (int pass = 0; (pass < kMinScanPasses || NowNs() < scan_until) && conns[0].bin != nullptr;
       ++pass) {
    uint64_t bad = 0;
    const uint64_t t0 = NowNs();
    const uint64_t n = ScanPass(conns[0].bin.get(), keys, &bad);
    scan_rates.push_back(1e9 * static_cast<double>(n) / static_cast<double>(NowNs() - t0));
    report->CountOps(n, bad);
    bad_passes += n == kKeys && bad == 0 ? 0 : 1;
  }
  report->Check("scan_returns_every_pair", bad_passes == 0 && !scan_rates.empty(),
                std::to_string(bad_passes) + " of " + std::to_string(scan_rates.size()) +
                    " passes missed or mismatched a pair");
  conns[0].bin.reset();
  conns[1].mc.reset();
  // The pages the shards' tables link: a bucket per split plus the first
  // per shard, and the overflow pages they hold.
  const uint64_t shard_pages = loaded.table.splits + kShards +
                               loaded.table.ovfl_pages_alloced - loaded.table.ovfl_pages_freed;
  stack.reset();

  Samples get_ns;
  Samples put_ns;
  Samples late_ns;
  uint64_t protocol_errors = 0;
  uint64_t timeouts = 0;
  uint64_t ops = 0;  // closed and open loop
  for (const Side& side : sides) {
    ops += side.ops;
    report->CountOps(side.ops, side.failed);
    get_ns.Append(side.get_ns);
    put_ns.Append(side.put_ns);
    late_ns.Append(side.late_ns);
    protocol_errors += side.protocol_errors;
    timeouts += side.timeouts;
  }
  report->Check("no_protocol_errors", protocol_errors == 0,
                std::to_string(protocol_errors) + " memcached protocol errors");
  report->Check("no_timeouts", timeouts == 0, std::to_string(timeouts) + " deadline misses");

  report->Set("setup_s", Median(setup_s), "s");
  report->Set("ops_per_s", MiddleMean(window_ops) * 1e9 / static_cast<double>(kRateWindowNs),
              "ops/s", window_ops.size());
  report->Note("closed_loop_mean_ops_per_s",
               1e9 * static_cast<double>(closed_ops) / static_cast<double>(closed_ns));
  SetLatency(report, "get", get_ns);
  SetLatency(report, "put", put_ns);
  report->Set("scan_keys_per_s", Median(scan_rates), "keys/s");
  report->Set("mem_bytes_per_user_byte",
              static_cast<double>(heap_growth) / static_cast<double>(user_bytes), "ratio");
  // No file: the shards' page bytes stand for the store's on-disk size.
  report->Set("disk_bytes_per_user_byte",
              static_cast<double>(shard_pages * 1024) / static_cast<double>(user_bytes), "ratio");
  report->Note("keys", kKeys);
  report->Note("user_bytes", static_cast<double>(user_bytes));
  report->Note("closed_loop_ops", static_cast<double>(closed_ops));
  report->Note("open_loop_rate_per_conn", kOpenLoopRate);
  report->Note("gen_late_p50_us", late_ns.PercentileUs(0.5));

  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const auto closed = Summarize(Phase::kClosedLoop);
  const auto open = Summarize(Phase::kOpenLoop);
  const SpanSummary& apply = Find(closed, SpanName::kKvApplyBatch);
  const SpanSummary& shard = Find(closed, SpanName::kKvShard);
  const SpanSummary& request = Find(closed, SpanName::kNetRequest);
  const SpanSummary& open_apply = Find(open, SpanName::kKvApplyBatch);
  const auto us_per_op = [&](uint64_t ns, uint64_t n) {
    return ratio(static_cast<double>(ns) / 1e3, static_cast<double>(n));
  };
  report->Layer("net.server_cpu_us_per_op", 1e6 * server_cpu / static_cast<double>(closed_ops),
                "us");
  report->Layer("net.self_us_per_op",
                us_per_op(request.total_ns, request.ops) - us_per_op(apply.total_ns, apply.ops),
                "us", request.spans);
  report->Layer("net.ops_per_batch",
                ratio(static_cast<double>(batched), static_cast<double>(batches)), "ratio");
  report->Layer("net.bytes_per_op", static_cast<double>(bytes) / static_cast<double>(closed_ops),
                "bytes");
  report->Layer("net.bin_req_p50_us", sides[0].request_ns.PercentileUs(0.5), "us",
                sides[0].request_ns.size());
  report->Layer("net.mc_req_p50_us", sides[1].request_ns.PercentileUs(0.5), "us",
                sides[1].request_ns.size());
  report->Layer("kv.apply_batch_p50_us", open_apply.durations.PercentileUs(0.5), "us",
                open_apply.spans);
  report->Layer("kv.apply_batch_p99_us", open_apply.durations.PercentileUs(0.99), "us",
                open_apply.spans);
  report->Layer("kv.self_us_per_op", us_per_op(apply.self_ns, apply.ops), "us", apply.spans);
  report->Layer("kv.shard_calls_per_batch",
                ratio(static_cast<double>(shard.spans), static_cast<double>(apply.spans)),
                "ratio");
  report->Layer("core.us_per_op", us_per_op(shard.total_ns, shard.ops), "us", shard.spans);
  report->Layer("core.splits_per_insert",
                static_cast<double>(loaded.table.splits) / static_cast<double>(kKeys), "ratio");
  const auto gets = static_cast<double>(store1.table.gets - store0.table.gets);
  const auto candidates = static_cast<double>(store1.table.tag_filter_candidates -
                                              store0.table.tag_filter_candidates);
  const auto false_hits = static_cast<double>(store1.table.tag_filter_false_hits -
                                              store0.table.tag_filter_false_hits);
  report->Layer("core.tag_candidates_per_get", ratio(candidates, gets), "ratio");
  report->Layer("core.tag_useful_ratio", 1.0 - ratio(false_hits, candidates), "ratio");
  const auto hits = static_cast<double>(store1.pool.hits - store0.pool.hits);
  const auto misses = static_cast<double>(store1.pool.misses - store0.pool.misses);
  report->Layer("pagefile.pool_hit_ratio", ratio(hits, hits + misses), "ratio");
  report->Layer("pagefile.evictions_per_op",
                static_cast<double>(store1.pool.evictions - store0.pool.evictions) /
                    static_cast<double>(ops),
                "ratio");
  report->Layer("pagefile.writebacks_per_op",
                static_cast<double>(store1.pool.dirty_writebacks - store0.pool.dirty_writebacks) /
                    static_cast<double>(ops),
                "ratio");
  report->Layer("gen.late_p99_us", late_ns.PercentileUs(0.99), "us", late_ns.size());
  report->Layer("gen.sched_get_p99_us", sched_get_ns.PercentileUs(0.99), "us",
                sched_get_ns.size());
  if (mode_ns[1] != 0) {
    const double on_rate = static_cast<double>(mode_ops[1]) / static_cast<double>(mode_ns[1]);
    const double off_rate = static_cast<double>(mode_ops[0]) / static_cast<double>(mode_ns[0]);
    report->Layer("trace.overhead_ratio", 1.0 - on_rate / off_rate, "ratio");
  }
}

}  // namespace perfbench
}  // namespace hashkit

// fleet_loopback: a net::Server whose host runs a 2-thread pool, and one
// client thread on one loopback connection. The client opens six
// deterministic synthetic sessions (realtime, standard and besteffort;
// wide-shallow and narrow-deep; deadlines of one and two buffer
// periods), subscribes to all of them, and every kChurnMs closes the
// oldest besteffort session and opens a fresh one of the same shape.
//
// The engine thread free-runs fleet ticks. A tick observer, installed
// before Server::start(), stamps the end of every tick and reads the
// hosted sessions; the client stamps every frame it receives. A run is
// a sequence of blocks, each one a whole server lifecycle, so set-up
// (server, connection, six admitted sessions delivering their first
// frame) is measured once per block.
//
// Every frame is checked against the benchmark's own execution of an
// identical session graph: make_synthetic_session() builds the graph,
// and the benchmark runs its nodes in a topological order it computes
// itself. In deterministic mode a session's k-th output depends only on
// (spec, k mod 997), the period of the source phase, so the reference
// holds 997 packets per session shape.
#include <array>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "checks.hpp"
#include "djstar/net/client.hpp"
#include "djstar/net/io.hpp"
#include "djstar/net/server.hpp"
#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"
#include "workloads.hpp"

namespace livebench {
namespace {

using namespace djstar;

constexpr std::size_t kPacket = 2 * audio::kBlockSize;
constexpr std::uint64_t kPhasePeriod = 997;
constexpr double kBlockSeconds = 1.0;
constexpr double kChurnMs = 100.0;
// Set-up takes milliseconds, so untraced runs add set-up-only server
// lifecycles to give setup_s a steady median.
constexpr std::size_t kSetupOnlyBlocks = 12;
constexpr std::size_t kStampRing = std::size_t{1} << 16;
constexpr std::size_t kSlots = 16;
constexpr int kReadTimeoutMs = 5000;
constexpr double kDrainTimeoutUs = 5e6;
constexpr std::size_t kAllocProbeTicks = 3000;

struct Shape {
  const char* name;
  serve::QoS qos;
  unsigned width;
  unsigned depth;
  double periods;  // deadline in buffer periods
};

// The session mix. Each QoS class has one wide-shallow and one
// narrow-deep graph, one with a one-period and one with a two-period
// deadline; churn replaces a besteffort session with its own shape.
constexpr std::array<Shape, 6> kMix = {{
    {"rt_wide", serve::QoS::kRealtime, 8, 2, 1},
    {"rt_deep", serve::QoS::kRealtime, 2, 8, 2},
    {"std_wide", serve::QoS::kStandard, 8, 2, 2},
    {"std_deep", serve::QoS::kStandard, 2, 8, 1},
    {"be_wide", serve::QoS::kBestEffort, 8, 2, 1},
    {"be_deep", serve::QoS::kBestEffort, 2, 8, 2},
}};
constexpr double kNodeCostUs = 20.0;

serve::SyntheticSpec synthetic_spec(const Shape& sh, std::uint64_t seed) {
  serve::SyntheticSpec s;
  s.name = sh.name;
  s.qos = sh.qos;
  s.deadline_us = sh.periods * audio::kDeadlineUs;
  s.width = sh.width;
  s.depth = sh.depth;
  s.node_cost_us = kNodeCostUs;
  s.jitter = 0.25;
  s.sheddable_fraction = 0.4;
  s.seed = seed;
  s.deterministic = true;
  return s;
}

net::OpenSessionRequest open_request(const serve::SyntheticSpec& s) {
  net::OpenSessionRequest r;
  r.qos = static_cast<std::uint8_t>(serve::rank(s.qos));
  r.subscribe = true;
  r.deterministic = s.deterministic;
  r.deadline_us = s.deadline_us;
  r.width = s.width;
  r.depth = s.depth;
  r.node_cost_us = s.node_cost_us;
  r.jitter = s.jitter;
  r.sheddable_fraction = s.sheddable_fraction;
  r.seed = s.seed;
  r.name = s.name;
  return r;
}

/// kPhasePeriod consecutive output packets of an identical session
/// graph, executed node by node in a topological order computed here.
std::vector<float> reference_packets(const serve::SyntheticSpec& spec) {
  serve::SessionSpec ss = serve::make_synthetic_session(spec);
  const core::TaskGraph& g = ss.graph;
  const std::size_t n = g.node_count();
  std::vector<std::size_t> indeg(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (core::NodeId s : g.successors(static_cast<core::NodeId>(v))) {
      ++indeg[s];
    }
  }
  std::vector<core::NodeId> order;
  std::deque<core::NodeId> ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(static_cast<core::NodeId>(v));
  }
  while (!ready.empty()) {
    const core::NodeId v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (core::NodeId s : g.successors(v)) {
      if (--indeg[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != n) throw std::runtime_error("session graph has a cycle");
  std::vector<float> out(kPhasePeriod * kPacket);
  for (std::uint64_t k = 0; k < kPhasePeriod; ++k) {
    for (core::NodeId v : order) g.work(v)();
    std::memcpy(&out[k * kPacket], ss.output->channel(0).data(),
                kPacket * sizeof(float));
  }
  return out;
}

// ---- state shared between the tick observer and the client ---------------

struct Stamp {
  std::atomic<std::uint64_t> tick{~std::uint64_t{0}};
  std::atomic<double> us{0};
};

/// Per-session bookkeeping the observer keeps for the client. `fanned`
/// is the session's cycle count as of the previous tick's end: the
/// server fans a tick's frames out after the observer returns and
/// before the next tick starts, so every one of those frames is already
/// in the connection's send ring.
struct Slot {
  serve::SessionId id = 0;
  serve::SessionId seen = 0;
  std::uint64_t pending = 0;
  std::uint64_t fanned = 0;
  std::uint64_t degraded = 0;
  core::ExecutorStats::Snapshot exec{};
};

struct Observed {
  std::vector<Stamp> stamps = std::vector<Stamp>(kStampRing);
  // Guards everything below. The engine thread holds it for the whole
  // observer call; the client takes it to register or close a session
  // and to read a block's figures.
  std::mutex mutex;
  std::array<Slot, kSlots> slots{};
  bool recording = false;
  std::uint64_t ticks = 0, cycles = 0, misses = 0, shed = 0, degraded = 0;
  std::uint64_t degraded_cycles = 0;  // session cycles below full quality
  double tick_elapsed_us = 0;
  std::vector<double> service_us;  // per session cycle, while recording
  core::ExecutorStats::Snapshot exec{};
  std::uint64_t exec_cycles = 0;
  AttribSums attrib;  // hosted session cycles of traced blocks
};

void observe_tick(serve::EngineHost& host, Observed& ob,
                  const serve::FleetTick& t) {
  Stamp& st = ob.stamps[t.index % kStampRing];
  st.us.store(wall_us(), std::memory_order_relaxed);
  st.tick.store(t.index, std::memory_order_release);
  const std::lock_guard<std::mutex> lk(ob.mutex);
  const bool rec = ob.recording;
  ob.misses += t.misses;
  ob.shed += t.shed;
  ob.degraded += t.degraded;
  if (rec) {
    ++ob.ticks;
    ob.cycles += t.sessions_run;
    ob.tick_elapsed_us += t.elapsed_us;
  }
  for (Slot& sl : ob.slots) {
    if (sl.id == 0) continue;
    const serve::Session* s = host.session(sl.id);
    if (sl.seen != sl.id) {
      sl.seen = sl.id;
      sl.pending = 0;
      sl.degraded = 0;
      sl.exec = s != nullptr ? s->hosted_executor().stats().snapshot()
                             : core::ExecutorStats::Snapshot{};
    }
    sl.fanned = sl.pending;
    if (s == nullptr) continue;
    const std::uint64_t cycles = s->counters().cycles;
    ob.degraded_cycles += s->counters().degraded_cycles - sl.degraded;
    sl.degraded = s->counters().degraded_cycles;
    if (cycles != sl.pending) {
      const auto now = s->hosted_executor().stats().snapshot();
      if (rec) {
        add_delta(ob.exec, now, sl.exec);
        ob.exec_cycles += cycles - sl.pending;
        // A session runs at most once per tick, so the monitor's newest
        // sample is this tick's cycle.
        const auto& samples = s->monitor().total_samples();
        if (!samples.empty() &&
            ob.service_us.size() < ob.service_us.capacity()) {
          ob.service_us.push_back(samples.back());
        }
        if (s->profiler_enabled()) ob.attrib.add(s->profiler().attribution());
      }
      sl.exec = now;
    }
    sl.pending = cycles;
  }
}

// ---- registry reading ------------------------------------------------------

struct Hist {
  std::vector<double> bounds;
  std::vector<double> counts;  // per bucket, +Inf last
  double count = 0;
  double sum = 0;
};

/// Sum of the named histograms (one per QoS suffix) in `snap`.
Hist merged(const support::MetricsSnapshot& snap, const std::string& prefix) {
  Hist h;
  for (const auto& m : snap.metrics) {
    if (m.name.rfind(prefix, 0) != 0 ||
        m.kind != support::detail::MetricEntry::Kind::kHistogram) {
      continue;
    }
    if (h.bounds.empty()) {
      h.bounds = m.bounds;
      h.counts.assign(m.bucket_counts.size(), 0.0);
    }
    for (std::size_t i = 0; i < h.counts.size() && i < m.bucket_counts.size();
         ++i) {
      h.counts[i] += static_cast<double>(m.bucket_counts[i]);
    }
    h.count += static_cast<double>(m.count);
    h.sum += m.sum;
  }
  return h;
}

Hist minus(Hist a, const Hist& b) {
  for (std::size_t i = 0; i < a.counts.size() && i < b.counts.size(); ++i) {
    a.counts[i] -= b.counts[i];
  }
  a.count -= b.count;
  a.sum -= b.sum;
  return a;
}

void accumulate(Hist& into, const Hist& h) {
  if (into.bounds.empty()) {
    into = h;
    return;
  }
  for (std::size_t i = 0; i < into.counts.size() && i < h.counts.size(); ++i) {
    into.counts[i] += h.counts[i];
  }
  into.count += h.count;
  into.sum += h.sum;
}

/// Quantile of a bucketed histogram, interpolating linearly inside the
/// bucket that holds it (the +Inf bucket reads as its lower bound).
double hist_quantile(const Hist& h, double q) {
  if (h.count <= 0) return 0.0;
  const double target = q * h.count;
  double seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
    if (i >= h.bounds.size()) return lo;
    if (seen + h.counts[i] >= target && h.counts[i] > 0) {
      return lo + (h.bounds[i] - lo) * (target - seen) / h.counts[i];
    }
    seen += h.counts[i];
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

double counter(const support::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& m : snap.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// ---- the client ------------------------------------------------------------

struct Shapes {
  std::array<serve::SyntheticSpec, kMix.size()> specs;
  std::array<std::vector<float>, kMix.size()> refs;
};

Shapes make_shapes(std::uint64_t seed) {
  Shapes sh;
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 3;
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    sh.specs[i] = synthetic_spec(kMix[i], 1 + (splitmix64(rng) >> 16));
    sh.refs[i] = reference_packets(sh.specs[i]);
  }
  return sh;
}

/// Everything measured over a run's blocks.
struct FleetSamples {
  std::vector<double> setup_us;
  // Per-frame latencies of the current block (cleared after each, so
  // memory does not grow with throughput), and per-open samples.
  std::vector<double> packet_us, delivery_us;
  std::vector<double> first_packet_us, open_rtt_us;
  std::uint64_t cycles = 0, ticks = 0;
  double tick_elapsed_us = 0;
  std::uint64_t misses = 0, shed = 0, degraded = 0, degraded_cycles = 0;
  double bytes_tx = 0, audio_drops = 0;
  Hist queue, execute, flush, admission;
  core::ExecutorStats::Snapshot exec{};
  std::uint64_t exec_cycles = 0;
  AttribSums attrib;
  std::uint64_t attempted = 0, failed = 0;
  // Per block: packet and service-latency quantiles, session cycles per
  // second, CPU us per session cycle, and the share of the machine's CPU
  // the hypervisor stole meanwhile. The end-to-end figures are medians
  // over the cleaner half of the blocks.
  std::vector<double> blk_packet_p50, blk_packet_p99, blk_service_p50,
      blk_service_p99, blk_delivery_p50, blk_delivery_p99, blk_rate, blk_cpu,
      blk_steal;
};

struct Tracked {
  serve::SessionId id = 0;
  std::size_t shape = 0;
  std::size_t slot = 0;
  double opened_us = 0;  // OPEN_SESSION sent
  bool churned = false;  // opened by churn (first-packet sample)
  bool seen_frame = false;
  bool closing = false;
  std::uint64_t must_arrive = 0;  // frames fanned out before CLOSE
  std::uint64_t ok = 0, bad = 0;
  std::unique_ptr<SequenceCheck> check;
};

struct PendingOpen {
  std::size_t shape = 0;
  double sent_us = 0;
  bool churned = false;
};

class FleetClient {
 public:
  FleetClient(net::Server& server, Observed& ob, const Shapes& shapes,
              FleetSamples& acc)
      : server_(server), ob_(ob), shapes_(shapes), acc_(acc) {}

  bool connect() { return client_.connect(server_.port(), kReadTimeoutMs); }

  bool open(std::size_t shape, bool churned) {
    const auto bytes =
        net::encode_frame(net::make_frame(open_request(shapes_.specs[shape])));
    pending_.push_back({shape, wall_us(), churned});
    ++acc_.attempted;  // an open is an operation
    return send(bytes);
  }

  bool close(Tracked& t) {
    {
      const std::lock_guard<std::mutex> lk(ob_.mutex);
      const Slot& sl = ob_.slots[t.slot];
      t.must_arrive = sl.seen == t.id ? sl.fanned : 0;
    }
    t.closing = true;
    return send(net::encode_frame(net::make_frame(
        net::FrameType::kCloseSession, net::CloseSessionMsg{t.id})));
  }

  /// Read and handle one frame. False when the connection failed.
  bool pump() {
    const auto f = client_.read_frame();
    if (!f) return false;
    const double now = wall_us();
    switch (f->type) {
      case net::FrameType::kCycleAudio:
        on_audio(*f, now);
        break;
      case net::FrameType::kOpenSession:
        on_open_reply(*f, now);
        break;
      case net::FrameType::kCloseSession:
        on_close_ack(*f);
        break;
      case net::FrameType::kError: {
        const auto e = net::decode_error(f->payload);
        std::fprintf(stderr, "livebench: server error: %s\n",
                     e ? e->message.c_str() : "(undecodable)");
        ++acc_.failed;
        ++acc_.attempted;
        break;
      }
      default:
        break;
    }
    return true;
  }

  std::size_t live() const { return tracked_.size(); }
  std::size_t pending_opens() const { return pending_.size(); }
  std::size_t first_frames() const { return first_frames_; }
  bool recording = false;

  Tracked* oldest_besteffort() {
    Tracked* best = nullptr;
    for (auto& t : tracked_) {
      if (t->closing || shapes_.specs[t->shape].qos != serve::QoS::kBestEffort) {
        continue;
      }
      if (best == nullptr || t->opened_us < best->opened_us) best = t.get();
    }
    return best;
  }

  bool close_all() {
    bool ok = true;
    for (auto& t : tracked_) {
      if (!t->closing) ok = close(*t) && ok;
    }
    return ok;
  }

  /// Count whatever never completed as failed (called on abort).
  void fail_outstanding() {
    for (auto& t : tracked_) finish(*t);
    tracked_.clear();
    acc_.failed += pending_.size();
    pending_.clear();
  }

 private:
  bool send(const std::vector<std::uint8_t>& bytes) {
    return net::write_full(client_.fd(), bytes.data(), bytes.size());
  }

  void on_open_reply(const net::Frame& f, double now) {
    const auto rep = net::decode_open_reply(f.payload);
    if (!rep || pending_.empty()) {
      ++acc_.failed;
      return;
    }
    const PendingOpen p = pending_.front();
    pending_.pop_front();
    if (rep->state != static_cast<std::uint8_t>(serve::SessionState::kActive)) {
      ++acc_.failed;  // not admitted
      return;
    }
    if (recording && p.churned) acc_.open_rtt_us.push_back(now - p.sent_us);
    auto t = std::make_unique<Tracked>();
    t->id = rep->id;
    t->shape = p.shape;
    t->opened_us = p.sent_us;
    t->churned = p.churned;
    const std::vector<float>& ref = shapes_.refs[p.shape];
    t->check = std::make_unique<SequenceCheck>([&ref](std::uint64_t k) {
      return std::span<const float>(&ref[(k % kPhasePeriod) * kPacket],
                                    kPacket);
    });
    {
      const std::lock_guard<std::mutex> lk(ob_.mutex);
      for (std::size_t i = 0; i < ob_.slots.size(); ++i) {
        if (ob_.slots[i].id == 0) {
          ob_.slots[i] = Slot{};
          ob_.slots[i].id = t->id;
          t->slot = i;
          break;
        }
      }
    }
    tracked_.push_back(std::move(t));
  }

  void on_audio(const net::Frame& f, double now) {
    const auto h = net::decode_audio(f.payload, samples_);
    Tracked* t = nullptr;
    if (h) {
      for (auto& x : tracked_) {
        if (x->id == h->session) t = x.get();
      }
    }
    if (t == nullptr) {  // undecodable, or a session nobody opened
      ++acc_.failed;
      ++acc_.attempted;
      return;
    }
    const std::span<const float> pk(samples_);
    const bool ok = t->check->feed(pk) && audible(pk);
    if (ok) {
      ++t->ok;
    } else {
      ++t->bad;
    }
    if (!t->seen_frame) {
      t->seen_frame = true;
      ++first_frames_;
      if (recording && t->churned) {
        acc_.first_packet_us.push_back(now - t->opened_us);
      }
    }
    if (recording && h->tick > 0) {
      const Stamp& end = ob_.stamps[h->tick % kStampRing];
      const Stamp& prev = ob_.stamps[(h->tick - 1) % kStampRing];
      if (end.tick.load(std::memory_order_acquire) == h->tick &&
          prev.tick.load(std::memory_order_acquire) == h->tick - 1) {
        acc_.delivery_us.push_back(now - end.us.load(std::memory_order_relaxed));
        acc_.packet_us.push_back(now - prev.us.load(std::memory_order_relaxed));
      }
    }
  }

  void on_close_ack(const net::Frame& f) {
    const auto msg = net::decode_close(f.payload);
    if (!msg) return;
    for (auto it = tracked_.begin(); it != tracked_.end(); ++it) {
      if ((*it)->id == msg->id) {
        finish(**it);
        tracked_.erase(it);
        return;
      }
    }
  }

  // A session's operations are its frames: every frame received, and
  // every frame fanned out before the CLOSE that never arrived.
  void finish(Tracked& t) {
    const std::uint64_t got = t.ok + t.bad;
    const std::uint64_t lost = t.must_arrive > got ? t.must_arrive - got : 0;
    acc_.attempted += got + lost;
    acc_.failed += t.bad + lost;
    const std::lock_guard<std::mutex> lk(ob_.mutex);
    ob_.slots[t.slot] = Slot{};
  }

  net::Server& server_;
  Observed& ob_;
  const Shapes& shapes_;
  FleetSamples& acc_;
  net::Client client_;
  std::deque<PendingOpen> pending_;
  std::vector<std::unique_ptr<Tracked>> tracked_;
  std::vector<float> samples_;
  std::size_t first_frames_ = 0;
};

net::ServerConfig server_config(bool traced) {
  net::ServerConfig cfg;
  cfg.net.port = 0;
  // The engine free-runs at ~25k frames/s. An 8 MiB send ring rides out
  // ~300 ms of client stall before a realtime subscriber is dropped.
  cfg.net.send_ring_kb = 8192;
  cfg.host.threads = 2;
  // On a virtual machine a few ticks per second stall for milliseconds
  // (hypervisor steal), and sessions miss their deadlines. Left at their
  // defaults, three such misses in a row walk a session down its
  // degradation ladder, or trip the overload handler, and its frames no
  // longer equal the full-quality reference: the failure count would
  // depend on the host's luck. Both triggers are set past any run's
  // length; the misses still show in serve.misses and the p99 figures.
  cfg.host.supervisor.overrun_trip = std::numeric_limits<unsigned>::max();
  cfg.host.overload.trip_ticks = std::numeric_limits<unsigned>::max();
  if (traced) cfg.host.profiler.mode = engine::ProfMode::kAttrib;
  return cfg;
}

/// One server lifecycle: set-up, a measured window of `window_s`
/// seconds with churn (none when 0), then every session closed and
/// drained.
void run_block(const Shapes& shapes, bool traced, double window_s,
               FleetSamples& acc) {
  const double t0 = wall_us();
  Observed ob;
  ob.service_us.reserve(window_s > 0 ? std::size_t{1} << 18 : 0);
  net::Server server(server_config(traced));
  serve::EngineHost& host = server.host();
  host.set_tick_observer(
      [&host, &ob](const serve::FleetTick& t) { observe_tick(host, ob, t); });
  server.start();
  FleetClient client(server, ob, shapes, acc);
  bool healthy = client.connect();
  for (std::size_t i = 0; healthy && i < kMix.size(); ++i) {
    healthy = client.open(i, false);
  }
  while (healthy && client.first_frames() < kMix.size()) {
    healthy = client.pump();
    if (client.pending_opens() == 0 && client.live() < kMix.size()) break;
  }
  acc.setup_us.push_back(wall_us() - t0);

  if (window_s > 0) {
    acc.packet_us.clear();
    acc.delivery_us.clear();
    const auto snap0 = host.metrics().snapshot();
    const double cpu0 = process_cpu_us();
    const double steal0 = machine_steal_us();
    const double w0 = wall_us();
    {
      const std::lock_guard<std::mutex> lk(ob.mutex);
      ob.recording = true;
    }
    client.recording = true;
    double next_churn = w0 + kChurnMs * 1e3;
    while (healthy && wall_us() - w0 < window_s * 1e6) {
      healthy = client.pump();
      if (healthy && wall_us() >= next_churn) {
        next_churn += kChurnMs * 1e3;
        Tracked* t = client.pending_opens() == 0 ? client.oldest_besteffort()
                                                 : nullptr;
        if (t != nullptr) {
          const std::size_t shape = t->shape;
          healthy = client.close(*t) && client.open(shape, true);
        }
      }
    }
    {
      const std::lock_guard<std::mutex> lk(ob.mutex);
      ob.recording = false;
    }
    client.recording = false;
    const double window = wall_us() - w0;
    const double cpu = process_cpu_us() - cpu0;
    const auto snap1 = host.metrics().snapshot();
    // With recording off the observer no longer writes the figures
    // below, and the mutex ordered its last writes before this point.
    const std::uint64_t cycles = ob.cycles;
    const std::vector<double>& service = ob.service_us;
    // A block that lost its connection served nothing worth timing.
    if (cycles > 0) {
      acc.blk_packet_p50.push_back(quantile(acc.packet_us, 0.50));
      acc.blk_packet_p99.push_back(quantile(acc.packet_us, 0.99));
      acc.blk_delivery_p50.push_back(quantile(acc.delivery_us, 0.50));
      acc.blk_delivery_p99.push_back(quantile(acc.delivery_us, 0.99));
      acc.blk_service_p50.push_back(quantile(service, 0.50));
      acc.blk_service_p99.push_back(quantile(service, 0.99));
      acc.blk_rate.push_back(1e6 * static_cast<double>(cycles) / window);
      acc.blk_cpu.push_back(cpu / static_cast<double>(cycles));
      acc.blk_steal.push_back(steal_share(steal0, window));
    }
    acc.bytes_tx += counter(snap1, "djstar_net_bytes_tx_total") -
                    counter(snap0, "djstar_net_bytes_tx_total");
    const auto delta = [&](Hist& into, const std::string& prefix) {
      accumulate(into, minus(merged(snap1, prefix), merged(snap0, prefix)));
    };
    delta(acc.queue, "djstar_stage_edf_queue_us_");
    delta(acc.execute, "djstar_stage_execute_us_");
    delta(acc.flush, "djstar_stage_net_flush_us_");
    delta(acc.admission, "djstar_stage_admission_wait_us_");
  }

  healthy = healthy && client.close_all();
  const double drain0 = wall_us();
  while (healthy && (client.live() > 0 || client.pending_opens() > 0) &&
         wall_us() - drain0 < kDrainTimeoutUs) {
    healthy = client.pump();
    if (healthy && client.pending_opens() == 0) healthy = client.close_all();
  }
  if (!healthy) std::fprintf(stderr, "livebench: connection to the server lost\n");
  client.fail_outstanding();
  server.stop();
  acc.audio_drops +=
      counter(host.metrics().snapshot(), "djstar_net_audio_drops_total");

  acc.cycles += ob.cycles;
  acc.ticks += ob.ticks;
  acc.tick_elapsed_us += ob.tick_elapsed_us;
  acc.misses += ob.misses;
  acc.shed += ob.shed;
  acc.degraded += ob.degraded;
  acc.degraded_cycles += ob.degraded_cycles;
  add_delta(acc.exec, ob.exec, core::ExecutorStats::Snapshot{});
  acc.exec_cycles += ob.exec_cycles;
  acc.attrib.add(ob.attrib);
}

/// Allocations per EngineHost::run_fleet_cycle(), counted around the
/// call itself on a bare host (no server) carrying the same six
/// sessions.
double allocs_per_tick(const Shapes& shapes) {
  serve::HostConfig cfg;
  cfg.threads = 2;
  serve::EngineHost host(cfg);
  for (const auto& spec : shapes.specs) {
    host.submit(serve::make_synthetic_session(spec));
  }
  for (int i = 0; i < 64; ++i) host.run_fleet_cycle();
  const std::uint64_t a0 = alloc_count();
  for (std::size_t i = 0; i < kAllocProbeTicks; ++i) host.run_fleet_cycle();
  return static_cast<double>(alloc_count() - a0) /
         static_cast<double>(kAllocProbeTicks);
}

double per(double x, double n) { return n > 0 ? x / n : 0.0; }

std::vector<Metric> end_to_end(const FleetSamples& a) {
  const auto clean = cleaner_half(a.blk_steal);
  const double rate = median_of(a.blk_rate, clean);
  const double cpu = median_of(a.blk_cpu, clean);
  // In the fleet an APC is one hosted session cycle; its time is the
  // service latency (EDF wait plus execute) the session records.
  return {{"setup_s", median(a.setup_us) * 1e-6, "s"},
          {"apc_p50_us", median_of(a.blk_service_p50, clean), "us"},
          {"apc_p99_us", median_of(a.blk_service_p99, clean), "us"},
          {"apc_per_s", rate, "APC/s"},
          {"cpu_us_per_apc", cpu, "us"},
          {"packet_p50_us", median_of(a.blk_packet_p50, clean), "us"},
          {"packet_p99_us", median_of(a.blk_packet_p99, clean), "us"},
          {"first_packet_p50_us", median(a.first_packet_us), "us"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"steal_pct", 100.0 * median(a.blk_steal), "%"}};
}

std::vector<Metric> per_layer(const FleetSamples& u, const FleetSamples& t,
                              double allocs_tick,
                              const std::vector<double>& cost_pct) {
  const double cycles = static_cast<double>(u.cycles);
  const double ticks = static_cast<double>(u.ticks);
  std::vector<Metric> m = prefixed_e2e(end_to_end(u));
  const std::vector<Metric> layers = {
      {"core.hosted_steals_per_cycle",
       per(t.attrib.steals, static_cast<double>(t.attrib.cycles)), "count"},
      {"serve.tick_us", per(u.tick_elapsed_us, ticks), "us"},
      {"serve.session_cycles_per_tick", per(cycles, ticks), "count"},
      {"serve.queue_p50_us", hist_quantile(u.queue, 0.50), "us"},
      {"serve.queue_p99_us", hist_quantile(u.queue, 0.99), "us"},
      {"serve.execute_p50_us", hist_quantile(u.execute, 0.50), "us"},
      {"serve.execute_p99_us", hist_quantile(u.execute, 0.99), "us"},
      {"serve.admission_wait_us", per(u.admission.sum, u.admission.count),
       "us"},
      {"serve.allocs_per_tick", allocs_tick, "count"},
      {"serve.misses", static_cast<double>(u.misses + t.misses), "count"},
      {"serve.degrade_steps", static_cast<double>(u.degraded + t.degraded),
       "count"},
      {"serve.shed", static_cast<double>(u.shed + t.shed), "count"},
      {"serve.degraded_cycles",
       static_cast<double>(u.degraded_cycles + t.degraded_cycles), "count"},
      {"net.delivery_p50_us",
       median_of(u.blk_delivery_p50, cleaner_half(u.blk_steal)), "us"},
      {"net.delivery_p99_us",
       median_of(u.blk_delivery_p99, cleaner_half(u.blk_steal)), "us"},
      {"net.flush_p50_us", hist_quantile(u.flush, 0.50), "us"},
      {"net.bytes_per_session_cycle", per(u.bytes_tx, cycles), "B"},
      {"net.open_rtt_us", median(u.open_rtt_us), "us"},
      {"net.audio_drops", u.audio_drops + t.audio_drops, "count"},
  };
  for (const auto& part :
       {executor_metrics(u.exec, static_cast<double>(u.exec_cycles)),
        t.attrib.metrics(), layers, obs_metrics(cost_pct)}) {
    m.insert(m.end(), part.begin(), part.end());
  }
  return m;
}

}  // namespace

Result run_fleet(const Options& opt) {
  const Shapes shapes = make_shapes(opt.seed);
  Result r;
  const double budget_us = opt.seconds * 1e6;
  const double start = wall_us();
  if (!opt.trace) {
    FleetSamples acc;
    for (std::size_t i = 0; i < kSetupOnlyBlocks; ++i) {
      run_block(shapes, false, 0.0, acc);
    }
    do {
      run_block(shapes, false, kBlockSeconds, acc);
    } while (wall_us() - start < budget_us);
    r.attempted = acc.attempted;
    r.failed = acc.failed;
    finish_metrics(r, false, end_to_end(acc));
    return r;
  }
  // Traced: pairs of one untraced and one traced (attribution profiler
  // on every hosted session) block, alternating which runs first; each
  // pair gives one observability-cost sample from the throughputs.
  FleetSamples untraced;
  FleetSamples traced;
  std::vector<double> cost_pct;
  for (std::size_t pair = 0; pair < 2 || wall_us() - start < budget_us;
       ++pair) {
    for (int arm = 0; arm < 2; ++arm) {
      const bool traced_arm = (arm == 0) == (pair % 2 == 1);
      run_block(shapes, traced_arm, kBlockSeconds,
                traced_arm ? traced : untraced);
    }
    cost_pct.push_back(
        100.0 * (untraced.blk_rate.back() / traced.blk_rate.back() - 1.0));
  }
  const double allocs = allocs_per_tick(shapes);
  r.attempted = untraced.attempted + traced.attempted;
  r.failed = untraced.failed + traced.failed;
  finish_metrics(r, true, per_layer(untraced, traced, allocs, cost_pct));
  return r;
}

}  // namespace livebench

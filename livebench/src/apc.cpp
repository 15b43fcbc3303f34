// APC workloads: one AudioEngine driven closed-loop (the next
// run_cycle() is issued when the previous one returns).
//
// A run is a sequence of blocks. Each block builds a fresh engine from
// the run's seed, sets the platter pitches, runs until every timecode
// decoder has locked (the block's set-up time), warms up to kWarmCycles,
// then measures kBlockCycles APCs. Every block replays the same cycles,
// so a single kSequential reference engine, run once per run, checks
// the output of every measured APC bit for bit.
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "checks.hpp"
#include "djstar/engine/engine.hpp"
#include "workloads.hpp"

namespace livebench {
namespace {

using djstar::audio::kBlockSize;
using djstar::audio::kDeadlineUs;
using djstar::engine::AudioEngine;
using djstar::engine::CycleBreakdown;
using djstar::engine::EngineConfig;

constexpr std::size_t kPacket = 2 * kBlockSize;  // stereo samples
constexpr std::size_t kWarmCycles = 256;
// Long enough that the engine's DeadlineMonitor outgrows its 4096-entry
// reserve inside the measured APCs, so engine.allocs_per_apc sees it.
constexpr std::size_t kBlockCycles = 4000;
// Traced runs pair an untraced and a traced block over the same cycles
// and compare them chunk by chunk.
constexpr std::size_t kPairChunk = 500;

struct Setup {
  EngineConfig cfg;
  std::array<double, 4> pitches{};
};

// Four distinct platter pitches around 1.0, none closer than 0.012 to
// it (so keylock time-stretches on every deck), and four track seeds.
Setup make_setup(std::uint64_t seed, bool keylock_busy) {
  std::uint64_t rng = seed * 0x2545f4914f6cdd1dULL + (keylock_busy ? 1 : 2);
  Setup s;
  if (!keylock_busy) {
    s.cfg.strategy = djstar::core::Strategy::kWorkStealing;
    s.cfg.threads = 4;
    s.cfg.keylock = false;
  }
  for (auto& ts : s.cfg.track_seeds) ts = 1 + (splitmix64(rng) >> 8);
  std::array<double, 4> offsets = {-0.05, -0.02, 0.02, 0.05};
  for (std::size_t i = 3; i > 0; --i) {  // seeded shuffle
    std::swap(offsets[i], offsets[splitmix64(rng) % (i + 1)]);
  }
  for (std::size_t d = 0; d < 4; ++d) {
    s.pitches[d] = 1.0 + offsets[d] + 0.016 * (uniform01(rng) - 0.5);
  }
  return s;
}

std::unique_ptr<AudioEngine> build_engine(const Setup& s, bool traced,
                                          bool sequential) {
  EngineConfig cfg = s.cfg;
  if (sequential) {
    cfg.strategy = djstar::core::Strategy::kSequential;
    cfg.threads = 1;
  }
  if (traced) cfg.profiler.mode = djstar::engine::ProfMode::kAttrib;
  auto e = std::make_unique<AudioEngine>(cfg);
  for (unsigned d = 0; d < 4; ++d) e->deck(d).set_pitch(s.pitches[d]);
  return e;
}

bool all_locked(AudioEngine& e) {
  for (unsigned d = 0; d < 4; ++d) {
    if (!e.deck(d).transport().locked) return false;
  }
  return true;
}

std::span<const float> packet(const AudioEngine& e) {
  return {e.output().channel(0).data(), kPacket};
}

/// Output of the measured cycles of a kSequential engine, plus its
/// timings (the single-thread baseline).
struct Reference {
  std::vector<float> packets;  // cycles kWarmCycles .. + cycles, flat
  double apc_us = 0;           // mean wall per measured cycle
  double graph_us = 0;         // mean graph phase per measured cycle
};

Reference run_reference(const Setup& s) {
  constexpr std::size_t cycles = kBlockCycles;
  Reference ref;
  ref.packets.resize(cycles * kPacket);
  auto e = build_engine(s, false, true);
  for (std::size_t i = 0; i < kWarmCycles; ++i) e->run_cycle();
  double wall = 0;
  double graph = 0;
  for (std::size_t i = 0; i < cycles; ++i) {
    const double t0 = wall_us();
    const CycleBreakdown c = e->run_cycle();
    wall += wall_us() - t0;
    graph += c.graph_us;
    std::memcpy(&ref.packets[i * kPacket], packet(*e).data(),
                kPacket * sizeof(float));
  }
  ref.apc_us = wall / static_cast<double>(cycles);
  ref.graph_us = graph / static_cast<double>(cycles);
  return ref;
}

/// Per-APC samples of one or more blocks.
struct Samples {
  std::vector<double> wall, tp, gp, graph, vc;
  std::vector<double> setup_us, first_packet_us;
  // Per block: APC p50 and p99, APCs per second, CPU us per APC, and
  // the share of the machine's CPU the hypervisor stole meanwhile. The
  // end-to-end figures are medians over the cleaner half of the blocks.
  std::vector<double> blk_p50, blk_p99, blk_rate, blk_cpu, blk_steal;
  std::uint64_t allocs = 0;
  djstar::core::ExecutorStats::Snapshot exec{};
  AttribSums attrib;  // traced blocks only
  std::uint64_t apcs = 0;
  std::uint64_t failed = 0;
};

/// Reused per-block storage, sized once so the measured loop never
/// allocates on the benchmark's side.
struct BlockScratch {
  std::vector<double> wall = std::vector<double>(kBlockCycles);
  std::vector<double> tp = std::vector<double>(kBlockCycles);
  std::vector<double> gp = std::vector<double>(kBlockCycles);
  std::vector<double> graph = std::vector<double>(kBlockCycles);
  std::vector<double> vc = std::vector<double>(kBlockCycles);
  std::vector<float> out = std::vector<float>(kBlockCycles * kPacket);
  std::vector<char> state_ok = std::vector<char>(kBlockCycles);  // pitch, tempo
};

void run_block(const Setup& s, const Reference& ref, bool traced,
               BlockScratch& b, Samples& acc) {
  constexpr std::size_t cycles = kBlockCycles;
  const double t_build = wall_us();
  auto e = build_engine(s, traced, false);
  double first_packet = -1;
  double setup = -1;
  std::array<double, 4> bpms{};
  for (unsigned d = 0; d < 4; ++d) bpms[d] = e->deck(d).track().bpm();
  const double want_tempo = expected_master_tempo(s.pitches, bpms);
  for (std::size_t i = 0; i < kWarmCycles; ++i) {
    e->run_cycle();
    if (first_packet < 0) first_packet = wall_us() - t_build;
    if (setup < 0 && all_locked(*e)) setup = wall_us() - t_build;
  }
  // A decoder that never locks leaves setup at -1; every APC then fails
  // its pitch check below.
  acc.setup_us.push_back(setup < 0 ? wall_us() - t_build : setup);
  acc.first_packet_us.push_back(first_packet);

  const auto stats0 = e->executor().stats().snapshot();
  const std::uint64_t allocs0 = alloc_count();
  const double cpu0 = process_cpu_us();
  const double steal0 = machine_steal_us();
  const double loop0 = wall_us();
  for (std::size_t i = 0; i < cycles; ++i) {
    const double t0 = wall_us();
    const CycleBreakdown c = e->run_cycle();
    b.wall[i] = wall_us() - t0;
    b.tp[i] = c.tp_us;
    b.gp[i] = c.gp_us;
    b.graph[i] = c.graph_us;
    b.vc[i] = c.vc_us;
    std::memcpy(&b.out[i * kPacket], packet(*e).data(),
                kPacket * sizeof(float));
    bool ok = tempo_matches(e->master_tempo_bpm(), want_tempo);
    for (unsigned d = 0; d < 4; ++d) {
      ok = ok && e->deck(d).transport().locked &&
           pitch_matches(s.pitches[d], e->deck(d).decoded_pitch());
    }
    b.state_ok[i] = ok ? 1 : 0;
    if (traced) acc.attrib.add(e->profiler().attribution());
  }
  const double loop = wall_us() - loop0;
  const double cpu = process_cpu_us() - cpu0;
  acc.blk_steal.push_back(steal_share(steal0, loop));
  acc.allocs += alloc_count() - allocs0;
  add_delta(acc.exec, e->executor().stats().snapshot(), stats0);
  e.reset();

  SequenceCheck seq([&](std::uint64_t k) {
    return std::span<const float>(&ref.packets[k * kPacket], kPacket);
  });
  for (std::size_t i = 0; i < cycles; ++i) {
    const std::span<const float> p(&b.out[i * kPacket], kPacket);
    const bool same = seq.feed(p);
    if (!same || !audible(p) || b.state_ok[i] == 0) ++acc.failed;
  }
  acc.apcs += cycles;
  const auto append = [](std::vector<double>& dst,
                         const std::vector<double>& src) {
    dst.insert(dst.end(), src.begin(), src.end());
  };
  append(acc.wall, b.wall);
  append(acc.tp, b.tp);
  append(acc.gp, b.gp);
  append(acc.graph, b.graph);
  append(acc.vc, b.vc);
  acc.blk_p50.push_back(quantile(b.wall, 0.50));
  acc.blk_p99.push_back(quantile(b.wall, 0.99));
  acc.blk_rate.push_back(1e6 * static_cast<double>(cycles) / loop);
  acc.blk_cpu.push_back(cpu / static_cast<double>(cycles));
}

std::vector<Metric> end_to_end(const Samples& a) {
  const auto clean = cleaner_half(a.blk_steal);
  const double p50 = median_of(a.blk_p50, clean);
  const double p99 = median_of(a.blk_p99, clean);
  const double rate = median_of(a.blk_rate, clean);
  const double cpu = median_of(a.blk_cpu, clean);
  // One engine is one session: its cycle is the APC and its packet is
  // ready the moment run_cycle() returns.
  return {{"setup_s", median(a.setup_us) * 1e-6, "s"},
          {"apc_p50_us", p50, "us"},
          {"apc_p99_us", p99, "us"},
          {"apc_per_s", rate, "APC/s"},
          {"cpu_us_per_apc", cpu, "us"},
          {"packet_p50_us", p50, "us"},
          {"packet_p99_us", p99, "us"},
          {"first_packet_p50_us", median(a.first_packet_us), "us"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"steal_pct", 100.0 * median(a.blk_steal), "%"}};
}

std::vector<Metric> per_layer(const Samples& u, const Samples& t,
                              const Reference& ref,
                              const std::vector<double>& cost_pct) {
  std::vector<double> other(u.wall.size());
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < u.wall.size(); ++i) {
    other[i] = u.wall[i] - (u.tp[i] + u.gp[i] + u.graph[i] + u.vc[i]);
    if (u.wall[i] > kDeadlineUs) ++misses;
  }
  const double apcs = static_cast<double>(u.apcs);
  const double graph_mean = mean(u.graph);
  const double wall_mean = mean(u.wall);
  std::vector<Metric> m = prefixed_e2e(end_to_end(u));
  const std::vector<Metric> engine = {
      {"engine.tp_us", mean(u.tp), "us"},
      {"engine.gp_us", mean(u.gp), "us"},
      {"engine.gp_p99_us", quantile(u.gp, 0.99), "us"},
      {"engine.graph_us", graph_mean, "us"},
      {"engine.graph_p99_us", quantile(u.graph, 0.99), "us"},
      {"engine.vc_us", mean(u.vc), "us"},
      {"engine.other_us", mean(other), "us"},
      {"engine.misses_per_10k", 1e4 * static_cast<double>(misses) / apcs,
       "count"},
      {"engine.allocs_per_apc", static_cast<double>(u.allocs) / apcs, "count"},
      {"engine.seq_apc_us", ref.apc_us, "us"},
      {"engine.graph_speedup", ref.graph_us / graph_mean, "x"},
      {"engine.apc_speedup", ref.apc_us / wall_mean, "x"},
  };
  for (const auto& part : {engine, executor_metrics(u.exec, apcs),
                           t.attrib.metrics(), obs_metrics(cost_pct)}) {
    m.insert(m.end(), part.begin(), part.end());
  }
  return m;
}

}  // namespace

Result run_apc(const Options& opt, bool keylock_busy) {
  const Setup s = make_setup(opt.seed, keylock_busy);
  const Reference ref = run_reference(s);
  BlockScratch scratch;
  Result r;
  const double budget_us = opt.seconds * 1e6;
  const double start = wall_us();
  if (!opt.trace) {
    // Untraced: whole blocks until the time budget is spent.
    Samples acc;
    do {
      run_block(s, ref, false, scratch, acc);
    } while (wall_us() - start < budget_us);
    r.attempted = acc.apcs;
    r.failed = acc.failed;
    finish_metrics(r, false, end_to_end(acc));
    return r;
  }
  // Traced: pairs of one untraced and one traced block over the same
  // cycles, alternating which runs first. The untraced arms give the
  // engine and executor figures, the traced arms the attribution. The
  // observability cost is paired by chunk: chunk k of a traced block
  // against chunk k of its untraced partner, the same input cycles.
  Samples untraced;
  Samples traced;
  for (std::size_t pair = 0; pair < 2 || wall_us() - start < budget_us;
       ++pair) {
    for (int arm = 0; arm < 2; ++arm) {
      const bool traced_arm = (arm == 0) == (pair % 2 == 1);
      run_block(s, ref, traced_arm, scratch, traced_arm ? traced : untraced);
    }
  }
  std::vector<double> cost_pct;
  for (std::size_t c = 0; c + kPairChunk <= untraced.wall.size();
       c += kPairChunk) {
    double u = 0;
    double t = 0;
    for (std::size_t i = c; i < c + kPairChunk; ++i) {
      u += untraced.wall[i];
      t += traced.wall[i];
    }
    cost_pct.push_back(100.0 * (t / u - 1.0));
  }
  r.attempted = untraced.apcs + traced.apcs;
  r.failed = untraced.failed + traced.failed;
  finish_metrics(r, true, per_layer(untraced, traced, ref, cost_pct));
  return r;
}

}  // namespace livebench

#include "djstar/support/tsdb.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace djstar::support {

namespace detail {

/// Per-series storage. The open accumulator is touched only by the
/// writer thread (record / seal), so it needs no synchronization; the
/// sealed ring is written under the store mutex and read under it.
struct TsSeries {
  std::string name;

  // Open-window accumulator (writer thread only, no lock).
  std::uint64_t open_count = 0;
  double open_sum = 0;
  double open_min = std::numeric_limits<double>::infinity();
  double open_max = -std::numeric_limits<double>::infinity();

  // Histogram-backed series: `live` is owned by the caller; `prev` is
  // the copy taken at the last seal (delta_since windowing).
  const Histogram* live = nullptr;
  std::unique_ptr<Histogram> prev;

  // Sealed ring, oldest at (head) when full. `total` is the global
  // window index of the next seal.
  std::vector<TsWindow> ring;
  std::size_t head = 0;  ///< slot the next seal writes
  std::size_t used = 0;  ///< sealed windows currently retained
  std::uint64_t total = 0;

  explicit TsSeries(std::string n, std::size_t retention)
      : name(std::move(n)), ring(retention) {}

  void seal() {
    TsWindow w;
    if (live != nullptr) {
      const Histogram delta = live->delta_since(*prev);
      *prev = *live;  // same layout: no allocation beyond vector reuse
      w.count = static_cast<std::uint64_t>(delta.total());
      if (w.count > 0) {
        w.p50 = delta.quantile(0.50);
        w.p99 = delta.quantile(0.99);
        // Midpoint-approximate sum/min/max so mean-style dashboards work
        // on histogram series too (error bounded by half a bin width).
        double sum = 0;
        double mn = std::numeric_limits<double>::infinity();
        double mx = -std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < delta.bin_count(); ++i) {
          const std::size_t c = delta.count(i);
          if (c == 0) continue;
          const double mid = 0.5 * (delta.bin_lo(i) + delta.bin_hi(i));
          sum += mid * static_cast<double>(c);
          mn = std::min(mn, delta.bin_lo(i));
          mx = std::max(mx, delta.bin_hi(i));
        }
        sum += delta.lo() * static_cast<double>(delta.underflow());
        sum += delta.hi() * static_cast<double>(delta.overflow());
        if (delta.underflow() > 0) mn = std::min(mn, delta.lo());
        if (delta.overflow() > 0) mx = std::max(mx, delta.hi());
        w.sum = sum;
        w.min = mn;
        w.max = mx;
      }
    } else {
      w.count = open_count;
      w.sum = open_sum;
      w.min = open_count > 0 ? open_min : 0;
      w.max = open_count > 0 ? open_max : 0;
    }
    ring[head] = w;
    head = (head + 1) % ring.size();
    used = std::min(used + 1, ring.size());
    ++total;
    open_count = 0;
    open_sum = 0;
    open_min = std::numeric_limits<double>::infinity();
    open_max = -std::numeric_limits<double>::infinity();
  }

  /// Sealed window i windows back from the newest (0 = newest).
  const TsWindow& back(std::size_t i) const {
    const std::size_t newest = (head + ring.size() - 1) % ring.size();
    return ring[(newest + ring.size() - i) % ring.size()];
  }
};

}  // namespace detail

namespace {

void append_window_json(std::string& out, std::uint64_t index,
                        const TsWindow& w, bool histogram) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"i\":%llu,\"count\":%llu,\"sum\":%.3f,\"min\":%.3f,"
                "\"max\":%.3f",
                static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(w.count), w.sum, w.min,
                w.max);
  out += buf;
  if (histogram) {
    std::snprintf(buf, sizeof(buf), ",\"p50\":%.3f,\"p99\":%.3f", w.p50,
                  w.p99);
    out += buf;
  }
  out += '}';
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(TsdbConfig cfg) : cfg_(cfg) {
  if (!(cfg_.window_us > 0)) {
    throw std::invalid_argument("tsdb: window_us must be > 0");
  }
  if (cfg_.retention == 0) {
    throw std::invalid_argument("tsdb: retention must be >= 1");
  }
}

TimeSeriesStore::~TimeSeriesStore() = default;

TimeSeriesStore::SeriesRef TimeSeriesStore::add_series(
    std::string_view name) {
  if (name.empty()) throw std::invalid_argument("tsdb: empty series name");
  std::lock_guard<std::mutex> lk(mutex_);
  for (const auto& s : series_) {
    if (s->name == name) {
      throw std::invalid_argument("tsdb: duplicate series '" +
                                  std::string(name) + "'");
    }
  }
  series_.push_back(
      std::make_unique<detail::TsSeries>(std::string(name), cfg_.retention));
  // Backfill: a series registered mid-run starts empty at the current
  // global window index, so aggregate()/burn rates see no phantom past.
  series_.back()->total = sealed_;
  return SeriesRef(series_.back().get());
}

TimeSeriesStore::SeriesRef TimeSeriesStore::add_histogram_series(
    std::string_view name, const Histogram* live) {
  if (live == nullptr) {
    throw std::invalid_argument("tsdb: histogram series needs a live source");
  }
  SeriesRef ref = add_series(name);
  std::lock_guard<std::mutex> lk(mutex_);
  ref.s_->live = live;
  ref.s_->prev = std::make_unique<Histogram>(*live);
  return ref;
}

void TimeSeriesStore::remove_series(std::string_view name) {
  std::lock_guard<std::mutex> lk(mutex_);
  for (auto it = series_.begin(); it != series_.end(); ++it) {
    if ((*it)->name == name) {
      series_.erase(it);
      return;
    }
  }
}

void TimeSeriesStore::record(SeriesRef s, double v) noexcept {
  detail::TsSeries* ts = s.s_;
  if (ts == nullptr) return;
  ++ts->open_count;
  ts->open_sum += v;
  ts->open_min = std::min(ts->open_min, v);
  ts->open_max = std::max(ts->open_max, v);
}

std::size_t TimeSeriesStore::advance(double now_us) {
  if (now_us > now_us_) now_us_ = now_us;
  // Window k closes at k × window_us, counted from the origin so rounding
  // never accumulates. The relative slack seals a boundary that `now`
  // reaches only up to rounding (cycles × deadline against a window of
  // 10 × deadline).
  const auto reached = static_cast<std::uint64_t>(
      now_us_ / cfg_.window_us * (1.0 + 1e-12));
  if (reached <= sealed_) return 0;
  const std::uint64_t pending = reached - sealed_;
  // Seal every window crossed, but cap the catch-up loop at one full
  // retention sweep: past that every retained window is the same empty
  // gap, so the remainder is skipped by bumping the indices instead
  // (global and per-series counts stay time-aligned).
  const std::uint64_t to_seal =
      std::min<std::uint64_t>(pending, cfg_.retention);
  const std::uint64_t skipped = pending - to_seal;
  std::lock_guard<std::mutex> lk(mutex_);
  if (skipped > 0) {
    // The open accumulator belongs to the oldest pending window, which a
    // skip evicts — drop it rather than fold it into a newer window.
    for (auto& s : series_) {
      s->total += skipped;
      s->open_count = 0;
      s->open_sum = 0;
      s->open_min = std::numeric_limits<double>::infinity();
      s->open_max = -std::numeric_limits<double>::infinity();
      if (s->live != nullptr) *s->prev = *s->live;
    }
    sealed_ += skipped;
  }
  for (std::uint64_t i = 0; i < to_seal; ++i) seal_one_window_locked();
  return static_cast<std::size_t>(pending);
}

void TimeSeriesStore::seal_one_window_locked() {
  for (auto& s : series_) s->seal();
  ++sealed_;
}

std::size_t TimeSeriesStore::series_count() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return series_.size();
}

TsWindow TimeSeriesStore::aggregate(SeriesRef s, std::size_t n) const {
  TsWindow out;
  const detail::TsSeries* ts = s.s_;
  if (ts == nullptr) return out;
  std::lock_guard<std::mutex> lk(mutex_);
  const std::size_t avail = ts->used;
  const std::size_t take = n == 0 ? avail : std::min(n, avail);
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < take; ++i) {
    const TsWindow& w = ts->back(i);
    out.count += w.count;
    out.sum += w.sum;
    if (w.count > 0) {
      mn = std::min(mn, w.min);
      mx = std::max(mx, w.max);
      out.p50 = std::max(out.p50, w.p50);
      out.p99 = std::max(out.p99, w.p99);
    }
  }
  if (out.count > 0) {
    out.min = mn;
    out.max = mx;
  }
  return out;
}

bool TimeSeriesStore::snapshot(std::string_view name,
                               std::size_t max_windows,
                               SeriesSnapshot& out) const {
  std::lock_guard<std::mutex> lk(mutex_);
  for (const auto& s : series_) {
    if (s->name != name) continue;
    out.name = s->name;
    out.window_us = cfg_.window_us;
    out.histogram = s->live != nullptr;
    const std::size_t take =
        max_windows == 0 ? s->used : std::min(max_windows, s->used);
    out.windows.clear();
    out.windows.reserve(take);
    for (std::size_t i = take; i-- > 0;) {
      out.windows.push_back(s->back(i));
    }
    out.first_index = s->total - take;
    return true;
  }
  return false;
}

std::vector<std::string> TimeSeriesStore::series_names() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& s : series_) names.push_back(s->name);
  return names;
}

std::string TimeSeriesStore::render_json(std::string_view name,
                                         std::size_t max_windows) const {
  SeriesSnapshot snap;
  if (!snapshot(name, max_windows, snap)) {
    std::string out = "{\"error\":\"unknown series\",\"series\":[";
    bool first = true;
    for (const std::string& n : series_names()) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += n;
      out += '"';
    }
    out += "]}";
    return out;
  }
  std::string out = "{\"series\":\"";
  out += snap.name;
  out += '"';
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"window_us\":%.1f,\"first_index\":%llu,\"windows\":[",
                snap.window_us,
                static_cast<unsigned long long>(snap.first_index));
  out += buf;
  for (std::size_t i = 0; i < snap.windows.size(); ++i) {
    if (i > 0) out += ',';
    append_window_json(out, snap.first_index + i, snap.windows[i],
                       snap.histogram);
  }
  out += "]}";
  return out;
}

std::string TimeSeriesStore::index_json() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"window_us\":%.1f,\"retention\":%zu,\"series\":[",
                cfg_.window_us, cfg_.retention);
  std::string out = buf;
  bool first = true;
  for (const std::string& n : series_names()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += n;
    out += '"';
  }
  out += "]}";
  return out;
}

}  // namespace djstar::support

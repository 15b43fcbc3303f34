#include "djstar/net/config.hpp"

#include "djstar/support/env.hpp"

namespace djstar::net {
namespace {

constexpr support::env::Grammar kNet{
    "DJSTAR_NET value",
    "<port>[,max_conns[,send_ring_kb]] — e.g. \"7000,64,256\""};

}  // namespace

NetConfig NetConfig::parse(std::string_view text) {
  const support::env::Value v(kNet, text);
  const auto f = v.fields(3);
  NetConfig cfg;
  cfg.port = static_cast<std::uint16_t>(v.uint(f[0], "port", 0, 65535));
  if (f.size() >= 2) {
    cfg.max_conns =
        static_cast<unsigned>(v.uint(f[1], "max_conns", 1, kMaxConns));
  }
  if (f.size() == 3) {
    cfg.send_ring_kb = static_cast<unsigned>(
        v.uint(f[2], "send_ring_kb", kMinSendRingKb, kMaxSendRingKb));
  }
  return cfg;
}

std::optional<NetConfig> NetConfig::from_env(const char* var) {
  const auto raw = support::env::raw(var);
  if (!raw) return std::nullopt;
  return parse(*raw);
}

}  // namespace djstar::net

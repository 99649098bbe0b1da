// pb_load — the serve workload's open-loop client: one connection to a
// tycod, one scenario, one JSON report on stdout.
//
//   pb_load --join HOST:PORT --self N --scenario rpc|churn --rate R
//           --duration-ms D [--increment K] [--closed N]
//
// It speaks the wire protocol exactly as tools/tycoload does (SHIPM to
// an imported `echo:svc` with a weak reply channel; churn registers,
// looks up and unregisters one short-lived name per request), with
// three differences the benchmark needs:
//   * every latency is kept as an exact sample (tycoload's log-linear
//     histogram rounds percentiles to ~3 % buckets, so a tight p50 reads
//     the same bucket run after run);
//   * percentiles are also reported per window of kWindow consecutive
//     requests, so run.py can take medians over windows and one stall
//     does not decide a run;
//   * replies are checked: an rpc reply must carry x + K for request x,
//     a churn lookup must return the reference that was registered.
// As in tycoload, latency runs from each request's intended start, and
// a request that is shed or times out counts as failed. With --closed N
// the client is closed-loop instead: it keeps N rpc requests in flight
// and sends the next one as a reply arrives, so the daemon, not --rate,
// sets the throughput.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/nameservice.hpp"
#include "core/wire.hpp"
#include "net/tcp.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dityco;

constexpr std::uint8_t kTagInt = 1;     // core/wire.cpp value tags
constexpr std::uint8_t kTagNetRef = 5;
// High enough that a stall of a few hundred ms at the peak rate shows as
// latency, not as shed requests; a reply still times out after 2 s.
constexpr std::uint64_t kOutstandingCap = 4096;
constexpr std::uint64_t kTimeoutNs = 2'000'000'000ull;
// Requests per percentile window: ten samples lie beyond each p99.
constexpr std::size_t kWindow = 1000;

std::uint64_t now_ns() { return obs::trace_now_ns(); }

struct Pending {
  std::uint64_t intended_ns = 0;
};

struct Sample {
  std::uint64_t intended_ns;
  double us;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

int main(int argc, char** argv) {
  std::string join, scenario = "rpc";
  std::uint32_t self = 900;
  double rate = 1000;
  std::uint64_t duration_ms = 1000, closed = 0;
  std::int64_t increment = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--join") join = v;
    else if (a == "--self") self = static_cast<std::uint32_t>(std::stoul(v));
    else if (a == "--scenario") scenario = v;
    else if (a == "--rate") rate = std::stod(v);
    else if (a == "--duration-ms") duration_ms = std::stoull(v);
    else if (a == "--closed") closed = std::stoull(v);
    else if (a == "--increment") increment = std::stoll(v);
    else {
      std::fprintf(stderr, "pb_load: bad argument %s\n", a.c_str());
      return 2;
    }
  }
  const bool churn = scenario == "churn";
  if (join.empty() || rate <= 0 || (!churn && scenario != "rpc") ||
      (churn && closed > 0)) {
    std::fprintf(stderr, "usage: pb_load --join HOST:PORT --self N "
                         "--scenario rpc|churn --rate R --duration-ms D "
                         "[--increment K] [--closed N (rpc only)]\n");
    return 2;
  }
  // Sleeps between polls must not round up by the default 50 µs slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  net::TcpConfig cfg;
  cfg.self = self;
  cfg.multiprocess = true;
  cfg.peers[0] = join;
  net::TcpTransport tcp(cfg);
  tcp.set_death_frame([](std::uint32_t dead) { return core::make_peer_down(dead); });

  // -- import echo:svc through the name service on node 0 ---------------
  vm::NetRef svc{};
  std::uint64_t credit = 0;
  net::Packet pkt;
  if (!churn) {
    tcp.send(net::Packet{self, 0,
                         core::NameService::make_lookup(
                             "echo", "svc", vm::NetRef::Kind::kChan, self, 0, 0,
                             obs::next_trace_id(), true)},
             0);
    const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
    bool ok = false;
    while (!ok && now_ns() < deadline) {
      if (!tcp.recv(self, pkt, 0)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      if (core::packet_type(pkt.bytes) != core::MsgType::kNsReply) continue;
      Reader r(pkt.bytes);
      const core::PacketHeader h = core::read_header(r);
      r.u64();  // token
      if (!r.boolean()) break;
      svc = core::read_netref(r);
      r.str();  // type signature
      if (h.gc) credit = r.u64();
      ok = true;
    }
    if (!ok) {
      std::fprintf(stderr, "pb_load: import echo:svc failed\n");
      return 1;
    }
  }
  std::fprintf(stderr, "pb_load: ready\n");  // run.py's set-up stamp

  // -- open-loop load ------------------------------------------------------
  const std::string churn_site = "pbload" + std::to_string(self);
  const std::uint64_t interval_ns = static_cast<std::uint64_t>(1e9 / rate);
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + duration_ms * 1'000'000ull;
  std::unordered_map<std::uint64_t, Pending> pending;
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(rate * static_cast<double>(duration_ms) / 1000.0) + 16);
  std::uint64_t next_send = start, next_req = 1, next_sweep = start;
  std::uint64_t sent = 0, shed = 0, timeouts = 0, bad = 0;

  const auto send_one = [&](std::uint64_t intended) {
    if (pending.size() >= kOutstandingCap) {
      ++shed;
      return;
    }
    const std::uint64_t req = next_req++, tid = obs::next_trace_id();
    if (churn) {
      const std::string name = "churn" + std::to_string(req);
      const vm::NetRef ref{vm::NetRef::Kind::kChan, self, 0, req};
      tcp.send(net::Packet{self, 0,
                           core::NameService::make_export(0, churn_site, name, ref,
                                                          "", tid, true, 0)},
               0);
      tcp.send(net::Packet{self, 0,
                           core::NameService::make_lookup(
                               churn_site, name, vm::NetRef::Kind::kChan, self,
                               0, req, tid, true)},
               0);
    } else {
      Writer w;
      core::write_header(w, core::MsgType::kShipMsg, svc.site, tid, true);
      w.u64(svc.heap_id);
      w.str("val");
      w.u32(2);
      w.u8(kTagInt);
      w.i64(static_cast<std::int64_t>(req));
      w.u8(kTagNetRef);
      core::write_netref(w, vm::NetRef{vm::NetRef::Kind::kChan, self, 0, req});
      tcp.send(net::Packet{self, svc.node, w.take()}, 0);
    }
    pending.emplace(req, Pending{intended});
    ++sent;
  };

  const auto handle = [&](const net::Packet& p, std::uint64_t now) {
    const core::MsgType type = core::packet_type(p.bytes);
    Reader r(p.bytes);
    core::read_header(r);
    std::uint64_t req = 0;
    bool good = false;
    if (churn && type == core::MsgType::kNsReply) {
      req = r.u64();
      good = r.boolean() && core::read_netref(r) ==
                                vm::NetRef{vm::NetRef::Kind::kChan, self, 0, req};
    } else if (!churn && type == core::MsgType::kShipMsg) {
      req = r.u64();
      r.str();
      good = r.u32() == 1 && r.u8() == kTagInt &&
             r.i64() == static_cast<std::int64_t>(req) + increment;
    } else {
      return;  // RELs for our weak references: nothing to do
    }
    const auto it = pending.find(req);
    if (it == pending.end()) return;  // already timed out
    if (churn)
      tcp.send(net::Packet{self, 0,
                           core::NameService::make_unregister(
                               churn_site, "churn" + std::to_string(req))},
               0);
    if (good)
      samples.push_back({it->second.intended_ns,
                         static_cast<double>(now - it->second.intended_ns) / 1e3});
    else
      ++bad;
    pending.erase(it);
  };

  std::uint64_t now = start;
  while (now < end || (!pending.empty() && now < end + kTimeoutNs)) {
    bool idle = true;
    while (tcp.recv(self, pkt, 0)) {
      handle(pkt, now_ns());
      idle = false;
    }
    now = now_ns();
    if (closed > 0) {
      while (pending.size() < closed && now < end) {
        send_one(now);
        idle = false;
      }
    }
    while (closed == 0 && next_send <= now && next_send < end) {
      send_one(next_send);
      next_send += interval_ns;
      idle = false;
    }
    if (now >= next_sweep) {
      next_sweep = now + 50'000'000ull;
      for (auto it = pending.begin(); it != pending.end();) {
        if (now - it->second.intended_ns > kTimeoutNs) {
          ++timeouts;
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (idle) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const double load_s = static_cast<double>(now_ns() - start) / 1e9;

  // -- GC-clean shutdown: hand the import's credit back -------------------
  if (credit > 0)
    tcp.send(net::Packet{self, svc.node,
                         core::make_release(svc, self, 0, credit)},
             0);
  const std::uint64_t flush_deadline = now_ns() + 1'000'000'000ull;
  while (tcp.queued_bytes() > 0 && now_ns() < flush_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  tcp.shutdown();

  // -- report ----------------------------------------------------------
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.intended_ns < b.intended_ns; });
  std::vector<double> all;
  std::string p50s, p99s;
  for (const Sample& s : samples) all.push_back(s.us);
  for (std::size_t i = 0; i + kWindow <= all.size(); i += kWindow) {
    const std::vector<double> w(all.begin() + static_cast<long>(i),
                                all.begin() + static_cast<long>(i + kWindow));
    p50s += (p50s.empty() ? "" : ", ") + std::to_string(quantile(w, 0.5));
    p99s += (p99s.empty() ? "" : ", ") + std::to_string(quantile(w, 0.99));
  }
  const std::uint64_t completed = samples.size();
  std::printf("{\"scenario\": \"%s\", \"rate\": %.1f, \"sent\": %llu, "
              "\"shed\": %llu, \"completed\": %llu, \"timeouts\": %llu, "
              "\"bad_replies\": %llu, \"failed\": %llu, \"load_s\": %.6f, "
              "\"p50_us\": %.3f, \"p99_us\": %.3f, \"window_p50s\": [%s], "
              "\"window_p99s\": [%s]}\n",
              scenario.c_str(), rate, static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(timeouts),
              static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(shed + timeouts + bad), load_s,
              quantile(all, 0.5), quantile(all, 0.99), p50s.c_str(),
              p99s.c_str());
  return 0;
}

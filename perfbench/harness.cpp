// pb_harness — the in-process half of the repository benchmark.
//
//   pb_harness --workload mobility|compute --seed N --seconds S
//              [--trace 0|1] [--trace-out FILE] [--smoke]
//   pb_harness --workload serve --layers --program FILE --seed N
//              [--trace-out FILE]
//
// Runs the `mobility` and `compute` workloads (perfbench/README.md says
// what each one stresses and why) and, with --trace 1 or --layers,
// times calls into each module's public functions on the inputs the
// workload uses. Prints one JSON object on stdout; run.py turns it into
// the benchmark's result line. Nothing here instruments src/: every
// span is recorded around a call made from this file.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calculus/reducer.hpp"
#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "core/nameservice.hpp"
#include "core/network.hpp"
#include "core/wire.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "vm/machine.hpp"

namespace {

using namespace dityco;
using Net = core::Network;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of every thread of this process, in ns.
std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// splitmix64: the only source of workload inputs, seeded from --seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {  // [lo, hi]
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// -- spans -------------------------------------------------------------
//
// A span is recorded around one call into a module; its name starts
// with the module (layer) it times. Spans stay in memory and are written
// when the harness exits.

struct Span {
  std::string name;
  std::uint64_t start = 0, end = 0;
  int parent = -1;
  std::uint64_t op = 0;  // workload operation (round) the call served
};

class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  int begin(const char* name, std::uint64_t op) {
    if (!on) return -1;
    spans.push_back(Span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                         op});
    stack_.push_back(static_cast<int>(spans.size() - 1));
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }

  /// Self time per layer in ms: a span's duration minus the part its
  /// child spans cover, summed by the name's first component.
  std::map<std::string, double> self_ms() const {
    std::vector<double> child(spans.size(), 0.0);
    for (const auto& s : spans)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out[layer] += (static_cast<double>(s.end - s.start) - child[i]) / 1e6;
    }
    return out;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream f(path);
    f << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
    }
    f << "\n]\n";
  }

 private:
  std::vector<int> stack_;
};

Tracer g_trace;

struct Scope {
  int id;
  Scope(const char* name, std::uint64_t op = 0) : id(g_trace.begin(name, op)) {}
  ~Scope() { g_trace.end(id); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

// -- result ------------------------------------------------------------

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0, failed = 0;

  void put(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, {v, unit}});
  }
  void fail(const std::string& why) {
    if (errors.size() < 20) errors.push_back(why);
  }
  void print() const {
    const auto esc = [](const std::string& s) {
      std::string o;
      for (char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        o += (c == '\n' ? ' ' : c);
      }
      return o;
    };
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    std::printf("}, \"info\": {");
    std::size_t i = 0;
    for (const auto& [k, v] : info)
      std::printf("%s\"%s\": \"%s\"", i++ ? ", " : "", k.c_str(),
                  esc(v).c_str());
    std::printf("}, \"errors\": [");
    for (std::size_t j = 0; j < errors.size(); ++j)
      std::printf("%s\"%s\"", j ? ", " : "", esc(errors[j]).c_str());
    std::printf("]}\n");
  }
};

/// Lines a site printed since `from`, sorted (concurrent loops
/// interleave their prints).
std::vector<std::string> new_lines(Net& net, const std::string& site,
                                   std::size_t from) {
  const auto& out = net.output(site);
  std::vector<std::string> v(out.begin() + static_cast<long>(from), out.end());
  std::sort(v.begin(), v.end());
  return v;
}

bool expect_lines(Result& r, const char* what, std::vector<std::string> got,
                  std::vector<std::string> want) {
  std::sort(want.begin(), want.end());
  if (got == want) return true;
  std::ostringstream m;
  m << what << ": " << got.size() << " lines, expected " << want.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i] != want[i]) {
      m << "; first difference '" << got[i] << "' vs '" << want[i] << "'";
      break;
    }
  r.fail(m.str());
  return false;
}

std::string line(const char* tag, std::int64_t a) {
  return std::string(tag) + " " + std::to_string(a);
}
std::string line(const char* tag, std::int64_t a, std::int64_t b) {
  return line(tag, a) + " " + std::to_string(b);
}

constexpr std::int64_t kP = 1000003;  // modulus keeping values bounded

// -- phases ------------------------------------------------------------
//
// Each workload measures three kinds of operation under the benchmark's
// fixed metric names (README.md, "Metric names"): `rpc` (request/reply
// at base load), `rpc_peak` (the same at peak load) and `churn` (the
// operation that churns a directory or cache).

enum Phase { kRpc = 0, kPeak = 1, kChurn = 2 };
const char* const kPhaseName[3] = {"rpc", "rpc_peak", "churn"};

struct Tally {
  std::vector<double> per_op_us[3];  // one sample per round
  std::uint64_t ops = 0, run_ns = 0, cpu_ns = 0, rounds = 0;
  std::uint64_t instructions = 0, packets = 0, bytes = 0;
  std::uint64_t ops_by_phase[3] = {0, 0, 0};
  std::uint64_t packets_by_phase[3] = {0, 0, 0};
  std::uint64_t bytes_by_phase[3] = {0, 0, 0};

  void add(Phase p, std::uint64_t ops_n, std::uint64_t ns,
           std::uint64_t cpu, const Net::Result& res) {
    per_op_us[p].push_back(static_cast<double>(ns) / 1e3 /
                           static_cast<double>(ops_n));
    ops += ops_n;
    ops_by_phase[p] += ops_n;
    run_ns += ns;
    cpu_ns += cpu;
    ++rounds;
    instructions += res.instructions;
    packets += res.packets;
    bytes += res.bytes;
    packets_by_phase[p] += res.packets;
    bytes_by_phase[p] += res.bytes;
  }
  // One sample per session (a round of each phase): operations per
  // second of run time, and CPU µs per operation. Medians of these keep
  // one slow stretch of the host from deciding a run.
  std::vector<double> session_ops_per_s, session_cpu_us;
  std::uint64_t mark_ops = 0, mark_ns = 0, mark_cpu = 0;

  void end_session() {
    const double n = static_cast<double>(ops - mark_ops);
    session_ops_per_s.push_back(n / (static_cast<double>(run_ns - mark_ns) / 1e9));
    session_cpu_us.push_back(static_cast<double>(cpu_ns - mark_cpu) / 1e3 / n);
    mark_ops = ops;
    mark_ns = run_ns;
    mark_cpu = cpu_ns;
  }
  double ops_per_s() const { return median(session_ops_per_s); }
};

/// Run `net` once, timing the call and the process CPU it used.
Net::Result timed_run(Net& net, std::uint64_t op, std::uint64_t& ns,
                      std::uint64_t& cpu) {
  Scope s("core.run", op);
  const std::uint64_t c0 = cpu_ns(), t0 = now_ns();
  Net::Result res = net.run();
  ns = now_ns() - t0;
  cpu = cpu_ns() - c0;
  return res;
}

bool check_run(Result& r, const char* what, Net& net, const Net::Result& res) {
  if (res.quiescent && net.all_errors().empty()) return true;
  r.fail(std::string(what) + ": " +
         (net.all_errors().empty() ? "run did not reach quiescence"
                                   : net.all_errors().front()));
  return false;
}

// ======================================================================
// mobility: threaded driver, in-proc transport, 2 nodes x 1 site.
// ======================================================================

struct Applet {
  std::int64_t mul = 0, add = 0;
};

struct MobilityInputs {
  int terms = 0;                    // size of each applet's dead branch
  std::vector<std::int64_t> coeff;  // its coefficients
  std::vector<Applet> classes;      // one per exported applet class
  Applet shipo;                     // the shipped object's arithmetic
  int warm_classes = 8;             // classes the rpc phases cycle over
  int rpc_iters = 0;                // iterations per rpc round (2 ops each)
  int peak_loops = 4;               // concurrent client loops (= nproc)
  int peak_iters = 0;               // iterations per loop per peak round
};

/// The branch taken only for a negative argument: a sum the peephole
/// cannot fold (every term reads the parameter), so the code ships and
/// links in full but never runs.
std::string dead_branch(const MobilityInputs& in, const std::string& var) {
  std::string e = var + " * " + std::to_string(in.coeff[0]);
  for (int t = 1; t < in.terms; ++t)
    e += " + " + var + " * " + std::to_string(in.coeff[static_cast<std::size_t>(t)]);
  return e;
}

MobilityInputs mobility_inputs(std::uint64_t seed, bool smoke, int terms) {
  Rng rng{seed * 0x100000001b3ull + 17};
  MobilityInputs in;
  in.terms = terms;
  for (int t = 0; t < terms; ++t) in.coeff.push_back(rng.range(2, 97));
  for (int k = 0; k < 32; ++k)
    in.classes.push_back({rng.range(2, 999), rng.range(0, 999)});
  in.shipo = {rng.range(2, 999), rng.range(0, 999)};
  in.rpc_iters = smoke ? 8 : 64;
  in.peak_iters = smoke ? 2 : 16;
  return in;
}

std::string applet_src(const MobilityInputs& in, int k) {
  const Applet& a = in.classes[static_cast<std::size_t>(k)];
  return "export def A" + std::to_string(k) +
         "(n, out) = if n < 0 then out![" + dead_branch(in, "n") +
         "] else out![n * " + std::to_string(a.mul) + " + " +
         std::to_string(a.add) + "] in ";
}

/// Server: `classes` applet classes, each exported from its own def
/// block (so each ships as its own closure), plus an object service
/// whose get(p) ships a fresh object to the caller's channel p (SHIPO).
std::string mobility_server_src(const MobilityInputs& in, int classes) {
  std::string s;
  for (int k = 0; k < classes; ++k) s += applet_src(in, k);
  s += "export new srv in def Srv(self) = self?{ get(p) = ((p?(x, r) = "
       "if x < 0 then r![" + dead_branch(in, "x") + "] else r![x * " +
       std::to_string(in.shipo.mul) + " + " + std::to_string(in.shipo.add) +
       "]) | Srv[self]) } in Srv[srv]";
  return s;
}

std::string pick_def(int classes) {
  std::string s = "def Pick(j, n, out) = ";
  for (int k = 0; k + 1 < classes; ++k)
    s += "if j == " + std::to_string(k) + " then A" + std::to_string(k) +
         "[n, out] else ";
  s += "A" + std::to_string(classes - 1) + "[n, out]";
  return s;
}

std::string imports(int classes, bool srv) {
  std::string s = srv ? "import srv from server in " : "";
  for (int k = 0; k < classes; ++k)
    s += "import A" + std::to_string(k) + " from server in ";
  return s;
}

/// rpc / rpc_peak client: `loops` concurrent loops; each iteration
/// receives a shipped object and runs it (op 1), then instantiates the
/// next applet class, fetched on first use and cached after (op 2).
std::string mobility_rpc_client_src(const MobilityInputs& in, int loops,
                                    int iters) {
  const int k = in.warm_classes;
  std::string s = imports(k, true) + pick_def(k) +
                  " and Go(i, e) = if i == e then 0 else new p, r "
                  "(srv!get[p] | p![i, r] | r?(v) = (print[\"o\", i, v] | "
                  "new o (Pick[i % " + std::to_string(k) +
                  ", i, o] | o?(w) = (print[\"f\", i, w] | Go[i - 1, e])))) in ";
  for (int l = 0; l < loops; ++l)
    s += (l ? " | Go[" : "(Go[") + std::to_string((l + 1) * iters) + ", " +
         std::to_string(l * iters) + "]";
  return s + ")";
}

/// churn client: instantiates every one of the 32 classes once, in
/// sequence, so every fetch misses the dynamic-link cache.
std::string mobility_churn_client_src() {
  return imports(32, false) + pick_def(32) +
         " and C(i) = if i == 32 then 0 else new o (Pick[i, i + 1, o] | "
         "o?(w) = (print[\"c\", i, w] | C[i + 1])) in C[0]";
}

std::vector<std::string> mobility_expected(const MobilityInputs& in, Phase p) {
  std::vector<std::string> want;
  const auto val = [](const Applet& a, std::int64_t n) {
    return n * a.mul + a.add;
  };
  if (p == kChurn) {
    for (int i = 0; i < 32; ++i)
      want.push_back(line("c", i, val(in.classes[static_cast<std::size_t>(i)], i + 1)));
    return want;
  }
  const int n = p == kRpc ? in.rpc_iters : in.peak_loops * in.peak_iters;
  for (int i = 1; i <= n; ++i) {
    want.push_back(line("o", i, val(in.shipo, i)));
    want.push_back(line(
        "f", i, val(in.classes[static_cast<std::size_t>(i % in.warm_classes)], i)));
  }
  return want;
}

/// The reference check: a reduced rpc session (two iterations, small
/// applets) printed by calc::Reducer must equal the closed form the VM
/// network is checked against.
void mobility_oracle(Result& r, std::uint64_t seed) {
  MobilityInputs in = mobility_inputs(seed, true, 8);
  in.rpc_iters = 2;
  calc::Reducer red;
  red.add_program("server",
                  comp::parse_program(mobility_server_src(in, in.warm_classes)));
  red.add_program("client", comp::parse_program(
                                mobility_rpc_client_src(in, 1, in.rpc_iters)));
  const auto res = red.run();
  if (!res.quiescent || !res.errors.empty())
    r.fail("oracle: reducer did not reach quiescence cleanly");
  std::vector<std::string> got = red.output("client");
  std::sort(got.begin(), got.end());
  expect_lines(r, "oracle reducer client", got, mobility_expected(in, kRpc));
}

struct MobilityPrograms {
  vm::Program server_warm, server_churn, client[3];
};

MobilityPrograms compile_mobility(const MobilityInputs& in) {
  Scope s("compiler.compile_source");
  MobilityPrograms p;
  p.server_warm = comp::compile_source(mobility_server_src(in, in.warm_classes));
  p.server_churn = comp::compile_source(mobility_server_src(in, 32));
  p.client[kRpc] =
      comp::compile_source(mobility_rpc_client_src(in, 1, in.rpc_iters));
  p.client[kPeak] = comp::compile_source(
      mobility_rpc_client_src(in, in.peak_loops, in.peak_iters));
  p.client[kChurn] = comp::compile_source(mobility_churn_client_src());
  return p;
}

std::unique_ptr<Net> mobility_network(const MobilityPrograms& progs, Phase p) {
  Scope s("core.setup");
  Net::Config cfg;
  cfg.mode = Net::Mode::kThreaded;
  cfg.transport = Net::TransportKind::kInProc;
  auto net = std::make_unique<Net>(cfg);
  net->add_node();
  net->add_site(0, "server").submit(p == kChurn ? progs.server_churn
                                                : progs.server_warm);
  net->add_node();
  net->add_site(1, "client").submit(progs.client[p]);
  return net;
}

std::uint64_t mobility_ops(const MobilityInputs& in, Phase p) {
  if (p == kChurn) return 32;
  return 2ull * static_cast<std::uint64_t>(
                    p == kRpc ? in.rpc_iters : in.peak_loops * in.peak_iters);
}

/// One session: a fresh two-node network, the phase's client program,
/// run to quiescence, outputs checked line by line.
bool mobility_round(Result& r, const MobilityInputs& in,
                    const MobilityPrograms& progs, Phase p, std::uint64_t op,
                    Tally& t) {
  auto net = mobility_network(progs, p);
  std::uint64_t ns = 0, cpu = 0;
  const Net::Result res = timed_run(*net, op, ns, cpu);
  const std::uint64_t ops = mobility_ops(in, p);
  bool ok = check_run(r, kPhaseName[p], *net, res);
  ok = ok && expect_lines(r, kPhaseName[p], new_lines(*net, "client", 0),
                          mobility_expected(in, p));
  t.add(p, ops, ns, cpu, res);
  Scope s("core.teardown", op);
  net.reset();
  return ok;
}

// ======================================================================
// compute: sequential driver, 1 node x 2 sites ("local", "hammer").
// ======================================================================

struct ComputeInputs {
  std::int64_t cell0 = 0, delta = 0;  // exported cell: initial value, add step
  std::int64_t churn_val = 0;         // value of the local churned cell
  std::int64_t pp_mul = 0;            // ping-pong weight
  std::int64_t ar_mul = 0, ar_seed = 0;
  int hammer = 0, churn = 0, pingpong = 0, arith = 0;  // ops per round
};

ComputeInputs compute_inputs(std::uint64_t seed, bool smoke, bool reduced) {
  Rng rng{seed * 0x100000001b3ull + 29};
  ComputeInputs in;
  in.cell0 = rng.range(0, 999);
  in.delta = rng.range(1, 9);
  in.churn_val = rng.range(1, 999);
  in.pp_mul = rng.range(1, 99);
  in.ar_mul = rng.range(2, 999);
  in.ar_seed = rng.range(0, 999);
  const int scale = reduced ? 0 : smoke ? 1 : 2;
  in.hammer = reduced ? 5 : 250 * scale;
  in.churn = reduced ? 5 : 250 * scale;
  in.pingpong = reduced ? 5 : 250 * scale;
  in.arith = reduced ? 5 : 500 * scale;
  return in;
}

std::string cell_src(const ComputeInputs& in) {
  return "export new cell in def Cell(self, v) = self?{ read(r) = (r![v] | "
         "Cell[self, v]), add(d, r) = (r![v + d] | Cell[self, v + d]) } in "
         "Cell[cell, " + std::to_string(in.cell0) + "]";
}

std::string hammer_src(const ComputeInputs& in) {
  return "import cell from local in def H(i, acc) = if i == 0 then "
         "print[\"h\", acc] else let v = cell!add[" + std::to_string(in.delta) +
         "] in H[i - 1, (acc + v) % " + std::to_string(kP) + "] in H[" +
         std::to_string(in.hammer) + ", 0]";
}

std::string churn_src(const ComputeInputs& in) {
  return "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]) } "
         "and Pump(x, z, i) = if i == 0 then 0 else (x!read[z] | Pump[x, z, i - "
         "1]) and Drain(z, i, s) = if i == 0 then print[\"c\", s] else z?(w) = "
         "Drain[z, i - 1, (s + w) % " + std::to_string(kP) + "] in new x, z "
         "(Cell[x, " + std::to_string(in.churn_val) + "] | Pump[x, z, " +
         std::to_string(in.churn) + "] | Drain[z, " + std::to_string(in.churn) +
         ", 0])";
}

std::string pingpong_src(const ComputeInputs& in) {
  return "def PP(a, i, s) = if i == 0 then print[\"p\", s] else (a![i] | "
         "a?(v) = PP[a, i - 1, (s + v * " + std::to_string(in.pp_mul) + ") % " +
         std::to_string(kP) + "]) in new a PP[a, " + std::to_string(in.pingpong) +
         ", 0]";
}

std::string arith_src(const ComputeInputs& in) {
  return "def Ar(i, acc) = if i == 0 then print[\"a\", acc] else Ar[i - 1, "
         "(acc * " + std::to_string(in.ar_mul) + " + i) % " + std::to_string(kP) +
         "] in Ar[" + std::to_string(in.arith) + ", " +
         std::to_string(in.ar_seed) + "]";
}

/// Closed-form outputs. `cell` is the exported cell's value before the
/// round and is advanced by the hammer's adds.
std::string hammer_line(const ComputeInputs& in, std::int64_t& cell) {
  std::int64_t acc = 0;
  for (int k = 0; k < in.hammer; ++k) {
    cell += in.delta;
    acc = (acc + cell) % kP;
  }
  return line("h", acc);
}
std::vector<std::string> local_lines(const ComputeInputs& in, bool all) {
  std::vector<std::string> v{
      line("c", (static_cast<std::int64_t>(in.churn) * in.churn_val) % kP)};
  if (!all) return v;
  std::int64_t s = 0;
  for (int i = in.pingpong; i >= 1; --i) s = (s + i * in.pp_mul) % kP;
  v.push_back(line("p", s));
  std::int64_t acc = in.ar_seed;
  for (int i = in.arith; i >= 1; --i) acc = (acc * in.ar_mul + i) % kP;
  v.push_back(line("a", acc));
  return v;
}

struct ComputePrograms {
  vm::Program cell, hammer, churn, pingpong, arith;
};

ComputePrograms compile_compute(const ComputeInputs& in) {
  Scope s("compiler.compile_source");
  return {comp::compile_source(cell_src(in)), comp::compile_source(hammer_src(in)),
          comp::compile_source(churn_src(in)),
          comp::compile_source(pingpong_src(in)),
          comp::compile_source(arith_src(in))};
}

std::unique_ptr<Net> compute_network(const ComputePrograms& progs) {
  Scope s("core.setup");
  auto net = std::make_unique<Net>(Net::Config{});  // sequential driver
  net->add_node();
  net->add_site(0, "local").submit(progs.cell);
  net->add_site(0, "hammer");
  return net;
}

/// The reference check: the reduced instance printed by the VM network
/// must equal what calc::Reducer prints for the same programs, and both
/// must equal the closed form.
void compute_oracle(Result& r, std::uint64_t seed) {
  const ComputeInputs in = compute_inputs(seed, false, true);
  const std::string local = cell_src(in) + " | " + churn_src(in) + " | " +
                            pingpong_src(in) + " | " + arith_src(in);
  calc::Reducer red;
  red.add_program("local", comp::parse_program(local));
  red.add_program("hammer", comp::parse_program(hammer_src(in)));
  const auto rres = red.run();
  Net net;
  net.add_node();
  net.add_site(0, "local");
  net.add_site(0, "hammer");
  net.submit_source("local", local);
  net.submit_source("hammer", hammer_src(in));
  const auto nres = net.run();
  std::int64_t cell = in.cell0;
  const std::vector<std::string> want_h{hammer_line(in, cell)};
  const auto want_l = local_lines(in, true);
  const auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  if (!rres.quiescent || !rres.errors.empty())
    r.fail("oracle: reducer did not reach quiescence cleanly");
  check_run(r, "oracle", net, nres);
  expect_lines(r, "oracle reducer local", sorted(red.output("local")), want_l);
  expect_lines(r, "oracle reducer hammer", sorted(red.output("hammer")), want_h);
  expect_lines(r, "oracle vm local", new_lines(net, "local", 0), want_l);
  expect_lines(r, "oracle vm hammer", new_lines(net, "hammer", 0), want_h);
}

struct ComputeState {
  std::int64_t cell = 0;  // exported cell's value (closed form)
};

bool compute_round(Result& r, const ComputeInputs& in,
                   const ComputePrograms& progs, Net& net, ComputeState& st,
                   Phase p, std::uint64_t op, Tally& t) {
  core::Site& local = *net.find_site("local");
  core::Site& hammer = *net.find_site("hammer");
  const std::size_t l0 = net.output("local").size();
  const std::size_t h0 = net.output("hammer").size();
  std::uint64_t ops = 0;
  if (p != kChurn) {
    hammer.submit(progs.hammer);
    ops += static_cast<std::uint64_t>(in.hammer);
  }
  if (p != kRpc) {
    local.submit(progs.churn);
    ops += static_cast<std::uint64_t>(in.churn);
  }
  if (p == kPeak) {
    local.submit(progs.pingpong);
    local.submit(progs.arith);
    ops += static_cast<std::uint64_t>(in.pingpong + in.arith);
  }
  std::uint64_t ns = 0, cpu = 0;
  const Net::Result res = timed_run(net, op, ns, cpu);
  t.add(p, ops, ns, cpu, res);
  bool ok = check_run(r, kPhaseName[p], net, res);
  std::vector<std::string> want_h;
  if (p != kChurn) want_h.push_back(hammer_line(in, st.cell));
  std::vector<std::string> want_l;
  if (p != kRpc) want_l = local_lines(in, p == kPeak);
  ok = expect_lines(r, kPhaseName[p], new_lines(net, "hammer", h0), want_h) && ok;
  ok = expect_lines(r, kPhaseName[p], new_lines(net, "local", l0), want_l) && ok;
  if (res.packets != 0) {
    r.fail("compute moved " + std::to_string(res.packets) +
           " transport packets; the same-node path must move none");
    ok = false;
  }
  return ok;
}

// ======================================================================
// Per-layer timings: calls into each module on the workload's inputs.
// ======================================================================

/// Traced over untraced per-call time of every call timed by time_us():
/// what recording a span costs the calls it wraps.
std::vector<double> g_span_cost_ratio;

/// Median per-call time in µs of `fn` over `reps` timed batches of
/// `inner` calls each, with tracing off. Each batch is repeated with
/// tracing as it was, every call one span, for g_span_cost_ratio.
double time_us(const char* span, int reps, int inner,
               const std::function<void()>& fn) {
  const bool tracing = g_trace.on;
  std::vector<double> off, on;
  for (int i = 0; i < reps; ++i)
    for (std::vector<double>* v : {&off, &on}) {
      g_trace.on = v == &on && tracing;
      const std::uint64_t t0 = now_ns();
      for (int j = 0; j < inner; ++j) {
        Scope s(span);
        fn();
      }
      v->push_back(static_cast<double>(now_ns() - t0) / 1e3 / inner);
    }
  g_trace.on = tracing;
  if (tracing) g_span_cost_ratio.push_back(median(on) / median(off));
  return median(off);
}

struct Layers {
  std::vector<std::string> sources;  // every program the workload compiles
  std::string shipped;               // program whose closure travels
};

void closure_layers(Result& r, const vm::Program& prog) {
  vm::Machine src("src", 0, 0);
  const std::uint32_t root = src.load_program(prog);
  std::vector<vm::Segment> segs;
  r.put("vm.collect_closure_us", time_us("vm.collect_closure", 7, 50, [&] {
          segs.clear();
          src.collect_closure(root, segs);
        }), "us");
  std::vector<std::uint8_t> bytes;
  r.put("core.wire.closure_encode_us", time_us("core.wire.write_closure", 7, 50,
                                               [&] {
          Writer w;
          core::write_closure(w, segs);
          bytes = w.take();
        }), "us");
  vm::SegmentGuid guid{};
  std::map<vm::SegmentGuid, vm::Segment> pool;
  r.put("core.wire.closure_decode_us", time_us("core.wire.read_closure", 7, 50,
                                               [&] {
          Reader rd(bytes);
          pool = core::read_closure(rd, guid);
        }), "us");
  r.put("core.wire.closure_bytes", static_cast<double>(bytes.size()), "bytes");
  // A cold link needs a machine that has never seen the code.
  std::vector<double> link;
  for (int i = 0; i < 31; ++i) {
    vm::Machine dst("dst", 1, 0);
    const std::uint64_t t0 = now_ns();
    {
      Scope s("vm.link");
      dst.link(guid, pool);
    }
    link.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  r.put("vm.link_cold_us", median(link), "us");
}

void codec_layers(Result& r) {
  // SHIPM shape with GC credit: [int payload, reply channel].
  vm::Machine sender("client", 1, 0);
  vm::Machine receiver("server", 0, 0);
  const std::vector<vm::Value> vals{vm::Value::make_int(42),
                                    vm::Value::make_chan(sender.new_channel())};
  const double us = time_us("core.wire.msg_codec", 7, 2000, [&] {
    Writer w;
    core::write_header(w, core::MsgType::kShipMsg, 0, 7, true, true);
    w.u64(1);
    w.str("val");
    core::marshal_values(sender, vals, w, true);
    const auto bytes = w.take();
    Reader rd(bytes);
    const core::PacketHeader h = core::read_header(rd);
    rd.u64();
    rd.str();
    auto got = core::unmarshal_values(receiver, rd, h.gc);
    if (got.size() != 2) std::abort();
  });
  r.put("core.wire.msg_codec_ns", us * 1e3, "ns");
}

void ns_layers(Result& r) {
  // Churn-shaped frames: register, look up, unregister one short-lived
  // name, as tycoload's fetch-churn scenario sends them.
  core::NameService ns(0);
  std::uint64_t k = 0;
  std::vector<net::Packet> replies;
  r.put("core.ns.op_us", time_us("core.ns.churn_op", 7, 500, [&] {
          const std::string name = "churn" + std::to_string(++k);
          const vm::NetRef ref{vm::NetRef::Kind::kChan, 900, 0, k};
          const auto run = [&](const std::vector<std::uint8_t>& bytes, int kind) {
            Reader rd(bytes);
            const core::PacketHeader h = core::read_header(rd);
            if (kind == 0) ns.handle_export(rd, replies, h.trace_id, h.sampled, h.gc);
            if (kind == 1) ns.handle_lookup(rd, replies, h.trace_id, h.sampled);
            if (kind == 2) ns.handle_unregister(rd, replies);
          };
          run(core::NameService::make_export(0, "loadgen", name, ref, "", k, true, 0), 0);
          run(core::NameService::make_lookup("loadgen", name,
                                             vm::NetRef::Kind::kChan, 900, 0, k, k,
                                             true), 1);
          run(core::NameService::make_unregister("loadgen", name), 2);
          replies.clear();
        }), "us");
}

void transport_layers(Result& r) {
  net::InProcTransport inproc(2);
  net::Packet got;
  r.put("net.inproc_handoff_us", time_us("net.inproc_handoff", 7, 5000, [&] {
          inproc.send(net::Packet{0, 1, std::vector<std::uint8_t>(64, 1)}, 0);
          if (!inproc.recv(1, got, 0)) std::abort();
        }), "us");

  net::TcpConfig ca;
  ca.self = 0;
  ca.detect_failures = false;
  net::TcpTransport a(ca);
  net::TcpConfig cb;
  cb.self = 1;
  cb.detect_failures = false;
  cb.peers[0] = "127.0.0.1:" + std::to_string(a.port());
  net::TcpTransport b(cb);
  a.add_peer(1, "127.0.0.1:" + std::to_string(b.port()));
  const auto wait_recv = [](net::TcpTransport& t, std::uint32_t node,
                            net::Packet& p) {
    const std::uint64_t deadline = now_ns() + 2'000'000'000ull;
    while (!t.recv(node, p, 0)) {
      if (now_ns() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  bool ok = true;
  const auto ping = [&] {
    a.send(net::Packet{0, 1, std::vector<std::uint8_t>(64, 2)}, 0);
    ok = wait_recv(b, 1, got) && ok;
    b.send(net::Packet{1, 0, std::vector<std::uint8_t>(64, 3)}, 0);
    ok = wait_recv(a, 0, got) && ok;
  };
  for (int i = 0; i < 50; ++i) ping();  // connect and warm up
  r.put("net.tcp_rtt_us", time_us("net.tcp_roundtrip", 7, 100, ping), "us");
  if (!ok) r.fail("tcp ping-pong lost a frame");
  a.shutdown();
  b.shutdown();
}

/// `Network::run()` on the workload's empty topology: the median wall
/// time of one call in ms, and the process CPU the drivers burn per
/// second of it with no work to do, in ms/s.
std::pair<double, double> empty_run(
    const std::function<std::unique_ptr<Net>()>& make) {
  std::vector<double> v;
  std::uint64_t wall = 0, cpu = 0;
  for (int i = 0; i < 15; ++i) {
    auto net = make();
    const std::uint64_t c0 = cpu_ns(), t0 = now_ns();
    {
      Scope s("core.run_empty");
      net->run();
    }
    const std::uint64_t dt = now_ns() - t0;
    cpu += cpu_ns() - c0;
    wall += dt;
    v.push_back(static_cast<double>(dt) / 1e6);
  }
  return {median(v), static_cast<double>(cpu) / static_cast<double>(wall) * 1e3};
}

/// ns per VM instruction on the compute programs alone (one Machine, no
/// network), the C1 measurement.
double vm_ns_per_instr(std::uint64_t seed) {
  const ComputeInputs in = compute_inputs(seed, false, false);
  const std::vector<vm::Program> progs{comp::compile_source(churn_src(in)),
                                       comp::compile_source(pingpong_src(in)),
                                       comp::compile_source(arith_src(in))};
  std::vector<double> v;
  for (int i = 0; i < 9; ++i) {
    vm::Machine m("vm", 0, 0);
    for (const auto& p : progs) m.spawn_program(p);
    const std::uint64_t t0 = now_ns();
    std::uint64_t n = 0;
    {
      Scope s("vm.run");
      n = m.run(UINT64_MAX);
    }
    v.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return median(v);
}

void common_layers(Result& r, const Layers& l, std::uint64_t seed,
                   const std::function<std::unique_ptr<Net>()>& empty_net) {
  r.put("compiler.compile_us", time_us("compiler.compile_source", 5, 1, [&] {
          for (const auto& s : l.sources) comp::compile_source(s);
        }), "us");
  const vm::Program shipped = comp::compile_source(l.shipped);
  r.put("compiler.code_bytes", static_cast<double>(shipped.byte_size()), "bytes");
  r.put("vm.ns_per_instr", vm_ns_per_instr(seed), "ns");
  closure_layers(r, shipped);
  codec_layers(r);
  ns_layers(r);
  transport_layers(r);
  const auto [fixed_ms, idle_cpu] = empty_run(empty_net);
  r.put("core.run.fixed_ms", fixed_ms, "ms");
  r.put("core.idle_cpu_ms_per_s", idle_cpu, "ms/s");
}

// ======================================================================
// Workload runs
// ======================================================================

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, smoke = false, layers_only = false;
  std::string trace_out;
};

constexpr int kAppletTerms = 290;  // dead-branch terms: ~8 KB of byte-code

/// A memory figure of this process from /proc/self/status (`VmHWM:`,
/// the peak resident size, or `VmRSS:`, the current one), in MB.
double status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind(field, 0) == 0)
      return std::stod(line.substr(field.size())) / 1024.0;
  return 0.0;
}

void put_e2e(Result& r, const Tally& t, double setup_s) {
  r.put("setup_s", setup_s, "s");
  r.put("ops_per_s", t.ops_per_s(), "1/s");
  for (int p = 0; p < 3; ++p) {
    r.put(std::string(kPhaseName[p]) + "_p50_us", quantile(t.per_op_us[p], 0.5),
          "us");
    r.put(std::string(kPhaseName[p]) + "_p99_us",
          quantile(t.per_op_us[p], 0.99), "us");
  }
  r.put("cpu_us_per_op", median(t.session_cpu_us), "us");
  r.put("peak_rss_mb", status_mb("VmHWM:"), "MB");
  r.info["rounds"] = std::to_string(t.rounds);
  r.info["ops"] = std::to_string(t.ops);
  for (int p = 0; p < 3; ++p)
    r.info[std::string("samples_") + kPhaseName[p]] =
        std::to_string(t.per_op_us[p].size());
}

/// Per-layer counts from the workload run itself, and the residual of
/// one rpc operation that the timed layers (`layer_us`) do not cover.
void put_run_layers(Result& r, const Tally& t, double layer_us) {
  const double per_op_us = quantile(t.per_op_us[kRpc], 0.5);
  const double ops = static_cast<double>(std::max<std::uint64_t>(t.ops, 1));
  r.put("vm.instr_per_op", static_cast<double>(t.instructions) / ops, "count");
  r.put("core.wire.packets_per_op", static_cast<double>(t.packets) / ops,
        "count");
  r.put("core.wire.bytes_per_op", static_cast<double>(t.bytes) / ops, "bytes");
  r.put("core.sched_wait_us", per_op_us - layer_us, "us");
}

double metric(const Result& r, const std::string& name) {
  for (const auto& [n, v] : r.metrics)
    if (n == name) return v.first;
  return 0.0;
}

/// Per-layer self times, the span count and the tracing overhead: the
/// median over the layer calls of traced ÷ untraced time, minus 1.
/// Writes the spans and prints.
void finish_trace(Result& r, const Options& o) {
  r.put("trace.overhead_pct", (median(g_span_cost_ratio) - 1) * 100, "%");
  for (const auto& [layer, ms] : g_trace.self_ms())
    r.put(layer + ".self_ms", ms, "ms");
  r.put("trace.spans", static_cast<double>(g_trace.spans.size()), "count");
  g_trace.write(o.trace_out);
  r.print();
}

/// Run sessions of three rounds, one per phase, until `seconds` of wall
/// time has gone. `session` prepares each session before its first round.
template <typename SessionFn, typename RoundFn>
void measure(double seconds, Tally& t, std::uint64_t& attempted,
             std::uint64_t& failed, SessionFn session, RoundFn round) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t op = 0;
  do {
    session();
    for (int p = 0; p < 3; ++p) {
      const std::uint64_t before = t.ops;
      const bool ok = round(static_cast<Phase>(p), ++op);
      attempted += t.ops - before;
      if (!ok) failed += t.ops - before;
    }
    t.end_session();
  } while (now_ns() < end);
}

constexpr int kGrowthRounds = 50;

/// The growth defect, shown rather than sized away: one network kept
/// across kGrowthRounds rpc rounds, the client program submitted anew
/// each round. Records (ungated, under `defect.*`) the resident memory
/// it gains per round after round 1, which fetches every class cold.
void mobility_growth(Result& r, const MobilityInputs& in,
                     const MobilityPrograms& progs) {
  auto net = mobility_network(progs, kRpc);
  double rss1 = 0;
  std::size_t from = 0;
  for (int i = 0; i < kGrowthRounds; ++i) {
    if (i) net->find_site("client")->submit(progs.client[kRpc]);
    const Net::Result res = net->run();
    if (!check_run(r, "growth", *net, res) ||
        !expect_lines(r, "growth", new_lines(*net, "client", from),
                      mobility_expected(in, kRpc)))
      return;
    from = net->output("client").size();
    if (i == 1) rss1 = status_mb("VmRSS:");
  }
  r.info["defect.growth_kb_per_round"] = std::to_string(
      (status_mb("VmRSS:") - rss1) * 1024.0 / (kGrowthRounds - 2));
}

int run_mobility(const Options& o) {
  Result r;
  auto in = mobility_inputs(o.seed, o.smoke, kAppletTerms);
  mobility_oracle(r, o.seed);
  g_trace.on = o.trace;
  // Set-up: compile every program and build the topology. Sampled three
  // times at the start and then at every 8th session, so that its median,
  // like the other figures, covers the whole run rather than one moment
  // of a host whose speed drifts.
  MobilityPrograms progs;
  std::vector<double> setup;
  const auto set_up = [&] {
    const std::uint64_t t0 = now_ns();
    progs = compile_mobility(in);
    auto net = mobility_network(progs, kRpc);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  for (int i = 0; i < 3; ++i) set_up();
  Tally tally;
  std::uint64_t sessions = 0;
  measure(o.seconds, tally, r.attempted, r.failed,
          [&] {
            if (++sessions % 8 == 0) set_up();
          },
          [&](Phase p, std::uint64_t op) {
            return mobility_round(r, in, progs, p, op, tally);
          });
  put_e2e(r, tally, median(setup));
  mobility_growth(r, in, progs);
  r.info["cold_fetch_share_rpc"] =
      std::to_string(static_cast<double>(in.warm_classes) / in.rpc_iters);
  r.info["cold_fetch_share_churn"] = "1";
  r.info["applet_code_bytes"] = std::to_string(
      comp::compile_source(applet_src(in, 0) + "0").byte_size());
  if (!o.trace) {
    r.print();
    return 0;
  }
  Layers l;
  l.sources = {mobility_server_src(in, 32), mobility_rpc_client_src(in, 1, 64),
               mobility_churn_client_src()};
  l.shipped = applet_src(in, 0) + "0";
  common_layers(r, l, o.seed, [] {
    Net::Config cfg;
    cfg.mode = Net::Mode::kThreaded;
    auto net = std::make_unique<Net>(cfg);
    net->add_node();
    net->add_site(0, "server");
    net->add_node();
    net->add_site(1, "client");
    return net;
  });
  // The applet-size check: a smaller dead branch must ship fewer bytes.
  Tally small;
  {
    auto sin = mobility_inputs(o.seed, o.smoke, 8);
    const auto sprogs = compile_mobility(sin);
    Result sr;
    mobility_round(sr, sin, sprogs, kRpc, 0, small);
    for (const auto& e : sr.errors) r.fail("small applet: " + e);
  }
  const double p_ops = static_cast<double>(tally.packets_by_phase[kRpc]) /
                       static_cast<double>(tally.ops_by_phase[kRpc]);
  const double layer_us =
      metric(r, "vm.ns_per_instr") * static_cast<double>(tally.instructions) /
          static_cast<double>(tally.ops) / 1e3 +
      p_ops * metric(r, "net.inproc_handoff_us") +
      0.5 * (metric(r, "vm.collect_closure_us") +
             metric(r, "core.wire.closure_encode_us") +
             metric(r, "core.wire.closure_decode_us")) +
      metric(r, "core.run.fixed_ms") * 1e3 /
          static_cast<double>(mobility_ops(in, kRpc));
  put_run_layers(r, tally, layer_us);
  const double big = static_cast<double>(tally.bytes_by_phase[kRpc]) /
                     static_cast<double>(tally.ops_by_phase[kRpc]);
  const double tiny = static_cast<double>(small.bytes) /
                      static_cast<double>(std::max<std::uint64_t>(small.ops, 1));
  r.info["bytes_per_op_rpc"] = std::to_string(big);
  r.info["bytes_per_op_rpc_small_applet"] = std::to_string(tiny);
  if (!(big > tiny * 2))
    r.fail("bytes_per_op does not grow with applet size: " +
           std::to_string(tiny) + " -> " + std::to_string(big));
  finish_trace(r, o);
  return 0;
}

/// Moves this (single-threaded) process to the next CPU it may run on.
/// The speed of one CPU of a shared host drifts by up to 2x over tens of
/// seconds while its neighbours do the same; rotating every session
/// spreads each run over all of them instead of over whichever one the
/// scheduler picked.
void next_cpu() {
  static std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

int run_compute(const Options& o) {
  Result r;
  const ComputeInputs in = compute_inputs(o.seed, o.smoke, false);
  compute_oracle(r, o.seed);
  g_trace.on = o.trace;
  std::vector<double> setup;
  ComputePrograms progs;
  std::unique_ptr<Net> net;
  for (int i = 0; i < 201; ++i) {
    const std::uint64_t t0 = now_ns();
    progs = compile_compute(in);
    net = compute_network(progs);
    net->run();  // the cell's export
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  ComputeState st{in.cell0};
  const auto go = [&](double seconds, Tally& t) {
    // One fresh network per session of three rounds: a network's memory
    // and per-round time grow with every round it runs (README.md,
    // "Known defects"), which would tie the figures to the run's length.
    measure(seconds, t, r.attempted, r.failed,
            [&] {
              next_cpu();
              net = compute_network(progs);
              net->run();  // the cell's export
              st.cell = in.cell0;
            },
            [&](Phase p, std::uint64_t op) {
              return compute_round(r, in, progs, *net, st, p, op, t);
            });
  };
  Tally tally;
  go(o.seconds, tally);
  put_e2e(r, tally, median(setup));
  if (!o.trace) {
    r.print();
    return 0;
  }
  {
    Scope s("core.collect_garbage");
    net->collect_garbage();
  }
  Layers l;
  l.sources = {cell_src(in), hammer_src(in), churn_src(in), pingpong_src(in),
               arith_src(in)};
  l.shipped = churn_src(in);
  common_layers(r, l, o.seed, [] {
    auto n = std::make_unique<Net>(Net::Config{});
    n->add_node();
    n->add_site(0, "local");
    n->add_site(0, "hammer");
    return n;
  });
  const double instr_us = metric(r, "vm.ns_per_instr") *
                          static_cast<double>(tally.instructions) /
                          static_cast<double>(tally.ops) / 1e3;
  put_run_layers(r, tally,
                 instr_us + metric(r, "core.run.fixed_ms") * 1e3 / in.hammer);
  finish_trace(r, o);
  return 0;
}

/// The serve workload's layers: run.py drives the daemon and merges
/// these with what it measures from outside the process.
int run_serve_layers(const Options& o, const std::string& program) {
  Result r;
  g_trace.on = true;
  Layers l;
  l.sources = {program};
  l.shipped = program;
  common_layers(r, l, o.seed, [] {
    Net::Config cfg;
    cfg.mode = Net::Mode::kThreaded;
    cfg.transport = Net::TransportKind::kTcp;
    auto net = std::make_unique<Net>(cfg);
    net->add_node();
    net->add_site(0, "echo");
    return net;
  });
  r.attempted = 1;
  finish_trace(r, o);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pb_harness --workload mobility|compute --seed N "
               "--seconds S [--trace 0|1] [--trace-out FILE] [--smoke]\n"
               "       pb_harness --workload serve --layers --program FILE "
               "[--seed N] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string program_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) o.workload = argv[++i];
    else if (a == "--seed" && has) o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has) o.seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has) o.trace = std::atoi(argv[++i]) != 0;
    else if (a == "--trace-out" && has) o.trace_out = argv[++i];
    else if (a == "--program" && has) program_file = argv[++i];
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--layers") o.layers_only = true;
    else return usage();
  }
  try {
    if (o.workload == "mobility") return run_mobility(o);
    if (o.workload == "compute") return run_compute(o);
    if (o.workload == "serve" && o.layers_only) {
      std::ifstream f(program_file);
      std::stringstream ss;
      ss << f.rdbuf();
      // The daemon's file is a network (`site echo { P }`); compile P.
      const std::string src = ss.str();
      const auto open = src.find('{'), close = src.rfind('}');
      if (!f || open == std::string::npos || close == std::string::npos)
        return usage();
      return run_serve_layers(o, src.substr(open + 1, close - open - 1));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_harness: %s\n", e.what());
    return 1;
  }
  return usage();
}

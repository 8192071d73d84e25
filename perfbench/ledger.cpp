// ledger — one traced solo softcache run with the miss path timed layer by
// layer from outside the program.
//
//   ledger --workload=NAME --input=FILE --tcache=BYTES --out=METRICS.json
//   ledger --workload=NAME --setup-clients=N --out=METRICS.json
//
// The second form only times set-up for an N-client fleet: the compile and
// N Machine constructions + image loads, all kept alive as a fleet keeps
// them (a fleet run cannot be shimmed from outside srun).
//
// Wires the same stack `srun --softcache --engine=threaded --style=sparc
// --prefetch=off` builds for one client, but through three shims that live
// only in this file:
//   * a vm::TrapHandler that times each CacheController::OnTcMiss/OnTcJalr
//     (the cc layer, children included);
//   * a SoftCacheConfig::transport_factory returning a timed
//     net::LoopbackTransport (the link layer: Send through Recv);
//   * the loopback frame handler timing MemoryController::Handle (mc).
// Self time of a layer is its time minus the time of the layer it calls:
// cc.self = trap - link, link.self = link - mc. The guest's output goes to
// stdout exactly as srun writes it, so the caller can check that the traced
// run matches the untraced one bit for bit; the metrics go to --out.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/transport.h"
#include "softcache/cc.h"
#include "softcache/config.h"
#include "softcache/mc.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

using namespace sc;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
double Percentile(std::vector<int64_t>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  size_t rank = static_cast<size_t>(p / 100.0 *
                                    static_cast<double>(samples->size()));
  if (rank >= samples->size()) rank = samples->size() - 1;
  return static_cast<double>((*samples)[rank]);
}

int64_t Sum(const std::vector<int64_t>& v) {
  int64_t total = 0;
  for (int64_t x : v) total += x;
  return total;
}

// Per-call host nanoseconds at each layer boundary.
struct Ledger {
  std::vector<int64_t> trap_ns;    // one per OnTcMiss/OnTcJalr
  std::vector<int64_t> link_ns;    // one per delivered reply
  std::vector<int64_t> handle_ns;  // one per MemoryController::Handle
  int64_t other_trap_ns = 0;       // OnIcacheInvalidate (not a miss)
};

// cc shim: delegates every trap to the cache controller and times it.
class TimedTrap : public vm::TrapHandler {
 public:
  TimedTrap(softcache::CacheController& cc, Ledger& ledger)
      : cc_(cc), ledger_(ledger) {}

  uint32_t OnTcMiss(vm::Machine& m, uint32_t stub_index) override {
    const auto start = Clock::now();
    const uint32_t pc = cc_.OnTcMiss(m, stub_index);
    ledger_.trap_ns.push_back(NsSince(start));
    return pc;
  }
  uint32_t OnTcJalr(vm::Machine& m, const isa::Instr& instr,
                    uint32_t pc) override {
    const auto start = Clock::now();
    const uint32_t next = cc_.OnTcJalr(m, instr, pc);
    ledger_.trap_ns.push_back(NsSince(start));
    return next;
  }
  uint32_t OnIcacheInvalidate(vm::Machine& m, uint32_t addr, uint32_t len,
                              uint32_t pc) override {
    const auto start = Clock::now();
    const uint32_t next = cc_.OnIcacheInvalidate(m, addr, len, pc);
    ledger_.other_trap_ns += NsSince(start);
    return next;
  }

 private:
  softcache::CacheController& cc_;
  Ledger& ledger_;
};

// link shim: a loopback transport timed from the start of Send to the end
// of the Recv that follows it (ReliableLink calls them back to back). The
// loopback calls the server synchronously inside Send, so a call's link
// time includes its Handle time.
class TimedTransport : public net::Transport {
 public:
  TimedTransport(net::Channel& channel, net::FrameHandler handler,
                 Ledger& ledger)
      : inner_(channel, std::move(handler)), ledger_(ledger) {}

  uint64_t Send(const std::vector<uint8_t>& frame) override {
    send_start_ = Clock::now();
    return inner_.Send(frame);
  }
  bool Recv(std::vector<uint8_t>* frame, uint64_t* cycles) override {
    const bool got = inner_.Recv(frame, cycles);
    if (got) ledger_.link_ns.push_back(NsSince(send_start_));
    return got;
  }
  const net::TransportStats& stats() const override { return inner_.stats(); }

 private:
  net::LoopbackTransport inner_;
  Ledger& ledger_;
  Clock::time_point send_start_;
};

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = Flag(argc, argv, "workload");
  const std::string input_path = Flag(argc, argv, "input");
  const std::string tcache = Flag(argc, argv, "tcache");
  const std::string out_path = Flag(argc, argv, "out");
  const std::string setup_clients = Flag(argc, argv, "setup-clients");
  const auto* spec = workloads::FindWorkload(name);
  if (spec == nullptr || out_path.empty() ||
      (setup_clients.empty() && (input_path.empty() || tcache.empty()))) {
    std::fprintf(stderr,
                 "usage: ledger --workload=NAME --input=FILE --tcache=BYTES "
                 "--out=FILE\n"
                 "       ledger --workload=NAME --setup-clients=N --out=FILE\n");
    return 2;
  }
  if (!setup_clients.empty()) {
    const auto start = Clock::now();
    const image::Image img = workloads::CompileWorkload(*spec);
    const int64_t compile_ns = NsSince(start);
    const unsigned long clients = std::stoul(setup_clients);
    const auto init_start = Clock::now();
    std::vector<std::unique_ptr<vm::Machine>> fleet;
    for (unsigned long i = 0; i < clients; ++i) {
      fleet.push_back(std::make_unique<vm::Machine>());
      fleet.back()->LoadImage(img);
    }
    const int64_t init_ns = NsSince(init_start);
    std::ofstream out(out_path);
    out << "{\"minicc.compile_s\": " << 1e-9 * static_cast<double>(compile_ns)
        << ", \"vm.init_s\": " << 1e-9 * static_cast<double>(init_ns)
        << "}\n";
    return out.good() ? 0 : 1;
  }
  std::ifstream in(input_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", input_path.c_str());
    return 1;
  }
  std::vector<uint8_t> input((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());

  auto start = Clock::now();
  const image::Image img = workloads::CompileWorkload(*spec);
  const int64_t compile_ns = NsSince(start);

  start = Clock::now();
  vm::Machine machine;
  machine.LoadImage(img);
  const int64_t vm_init_ns = NsSince(start);
  machine.set_engine(vm::Engine::kThreaded);
  machine.SetInput(std::move(input));

  Ledger ledger;
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = static_cast<uint32_t>(std::stoul(tcache));
  config.transport_factory = [&ledger](softcache::MemoryController& mc,
                                       net::Channel& channel) {
    auto handler = [&mc, &ledger](const std::vector<uint8_t>& frame) {
      const auto t0 = Clock::now();
      std::vector<uint8_t> reply = mc.Handle(frame);
      ledger.handle_ns.push_back(NsSince(t0));
      return reply;
    };
    return std::make_unique<TimedTransport>(channel, std::move(handler),
                                            ledger);
  };
  softcache::MemoryController mc(img, config.style, config.max_block_instrs,
                                 config.max_trace_blocks);
  net::Channel channel(config.channel);
  softcache::CacheController cc(machine, mc, channel, config);
  cc.Attach();
  TimedTrap trap(cc, ledger);
  machine.set_trap_handler(&trap);

  start = Clock::now();
  const vm::RunResult result = machine.Run();
  const int64_t run_ns = NsSince(start);

  std::fwrite(machine.output().data(), 1, machine.output().size(), stdout);
  if (result.reason == vm::StopReason::kFault) {
    std::fprintf(stderr, "fault: %s\n", result.fault_message.c_str());
    return 1;
  }

  const int64_t trap_total = Sum(ledger.trap_ns);
  const int64_t link_total = Sum(ledger.link_ns);
  const int64_t handle_total = Sum(ledger.handle_ns);
  std::vector<int64_t> link_self;  // per call: link time minus its Handle
  if (ledger.link_ns.size() == ledger.handle_ns.size()) {
    for (size_t i = 0; i < ledger.link_ns.size(); ++i) {
      link_self.push_back(ledger.link_ns[i] - ledger.handle_ns[i]);
    }
  }
  const auto& stats = cc.stats();
  const auto& server = mc.server().stats();
  const double misses = static_cast<double>(ledger.trap_ns.size());
  const double vm_self_s =
      1e-9 * static_cast<double>(run_ns - trap_total - ledger.other_trap_ns);
  const uint64_t lookups = server.translates + server.translate_memo_hits;

  std::ofstream out(out_path);
  const auto field = [&out](const char* key, double value, bool last = false) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out << "  \"" << key << "\": " << buf << (last ? "\n" : ",\n");
  };
  out << "{\n";
  // Guest identity, compared against the untraced srun run.
  field("instructions", static_cast<double>(result.instructions));
  field("cycles", static_cast<double>(result.cycles));
  field("exit_code", result.exit_code);
  field("blocks_translated", static_cast<double>(stats.blocks_translated));
  field("wire_bytes", static_cast<double>(channel.stats().total_bytes()));
  field("run_s", 1e-9 * static_cast<double>(run_ns));
  // Per-layer ledger.
  field("minicc.compile_s", 1e-9 * static_cast<double>(compile_ns));
  field("vm.init_s", 1e-9 * static_cast<double>(vm_init_ns));
  field("vm.self_s", vm_self_s);
  field("vm.self_mips",
        vm_self_s > 0 ? static_cast<double>(result.instructions) / vm_self_s / 1e6
                      : 0.0);
  field("vm.sb.fills", static_cast<double>(machine.sb_stats().fills));
  field("vm.sb.invalidations",
        static_cast<double>(machine.sb_stats().invalidations));
  field("cc.misses", misses);
  field("cc.miss_ns.p50", Percentile(&ledger.trap_ns, 50));
  field("cc.miss_ns.p99", Percentile(&ledger.trap_ns, 99));
  field("cc.self_s", 1e-9 * static_cast<double>(trap_total - link_total));
  field("cc.evictions", static_cast<double>(stats.evictions));
  field("cc.patch_only_frac",
        misses > 0 ? static_cast<double>(stats.patch_only_misses) / misses
                   : 0.0);
  field("link.calls", static_cast<double>(ledger.link_ns.size()));
  field("link.self_ns.p50", Percentile(&link_self, 50));
  field("link.self_s", 1e-9 * static_cast<double>(link_total - handle_total));
  field("link.retries", static_cast<double>(stats.net.retries));
  field("link.bytes", static_cast<double>(channel.stats().total_bytes()));
  field("mc.handle_ns.p50", Percentile(&ledger.handle_ns, 50));
  field("mc.handle_ns.p99", Percentile(&ledger.handle_ns, 99));
  field("mc.self_s", 1e-9 * static_cast<double>(handle_total));
  field("mc.translates", static_cast<double>(server.translates));
  field("mc.memo_hit_rate",
        lookups > 0 ? static_cast<double>(server.translate_memo_hits) /
                          static_cast<double>(lookups)
                    : 0.0,
        /*last=*/true);
  out << "}\n";
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return result.exit_code & 0xff;
}

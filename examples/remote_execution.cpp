// Remote execution: drives the explicit MC/CC split the ARM prototype
// implements — a cell-phone-class client fetching its code (and, with the
// software D-cache, its data) from a tower-side server over a narrow link.
// Prints the full protocol-level accounting for both directions.
//
//   $ ./remote_execution [link_mbps]
#include <cstdio>
#include <cstdlib>

#include "dcache/dcache.h"
#include "minicc/compiler.h"
#include "softcache/system.h"
#include "util/stats.h"
#include "workloads/workloads.h"

using namespace sc;

int main(int argc, char** argv) {
  const uint64_t mbps = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10;

  // The client runs the gzip workload: sensor-style "reduce the data set
  // and send only reduced amounts to higher systems" (Section 2.4).
  const auto* spec = workloads::FindWorkload("gzip");
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("gzip", 1);

  std::printf("client: ARM-style CC, 6 KB code memory + software D-cache\n");
  std::printf("server: MC holding the %zu-byte program image\n", img.text.size());
  std::printf("link:   %llu Mbps, 2000-cycle latency\n\n",
              (unsigned long long)mbps);

  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kArm;
  config.tcache_bytes = 6 * 1024;
  config.channel.bits_per_second = mbps * 1'000'000;

  softcache::MultiClientSystem system(img, {.base = config});
  system.SetInput(0, input);

  // Attach a software D-cache so data also lives behind the link, placed in
  // local memory just past the I-cache regions.
  dcache::DCacheConfig dconfig;
  dconfig.local_base = system.cc(0).local_limit();
  dconfig.dcache_blocks = 512;
  dconfig.block_bytes = 64;
  dcache::DataCache data_cache(system.machine(0), system.mc(),
                               system.channel(0), dconfig);
  data_cache.Attach();

  const vm::RunResult result = system.RunAll()[0];
  if (result.reason != vm::StopReason::kHalted) {
    std::fprintf(stderr, "fault: %s\n", result.fault_message.c_str());
    return 1;
  }
  data_cache.FlushAll();

  // Show the tail of the console (the compressed head is binary).
  const std::string out = system.OutputString(0);
  const size_t stats_pos = out.find("== gzip stats ==");
  std::printf("--- client console (stats tail) ---\n%s\n",
              stats_pos == std::string::npos ? out.c_str()
                                             : out.c_str() + stats_pos);

  const auto& net = system.channel(0).stats();
  const auto& code = system.cc(0).stats();
  const auto& data = data_cache.stats();
  std::printf("--- protocol accounting ---\n");
  std::printf("%-28s %12s\n", "", "count/bytes");
  std::printf("%-28s %12llu\n", "code chunks fetched",
              (unsigned long long)code.blocks_translated);
  std::printf("%-28s %12llu\n", "data block fetches",
              (unsigned long long)data.misses);
  std::printf("%-28s %12llu\n", "data writebacks",
              (unsigned long long)data.writebacks);
  std::printf("%-28s %12llu\n", "scache line spills",
              (unsigned long long)data.scache_spills);
  std::printf("%-28s %12llu\n", "messages client->server",
              (unsigned long long)net.messages_to_server);
  std::printf("%-28s %12llu\n", "messages server->client",
              (unsigned long long)net.messages_to_client);
  std::printf("%-28s %12s\n", "bytes client->server",
              util::HumanBytes(net.bytes_to_server).c_str());
  std::printf("%-28s %12s\n", "bytes server->client",
              util::HumanBytes(net.bytes_to_client).c_str());
  std::printf("%-28s %11.2f%%\n", "run time spent on the wire",
              100.0 * (double)net.total_cycles / (double)result.cycles);
  std::printf(
      "\nTry ./remote_execution 1 (slow link) or 100 (fast link) to see the\n"
      "paper's point that rewriting shifts work to the unconstrained server\n"
      "while the link cost stays a startup transient.\n");
  return 0;
}

// hqbench — the repository benchmark.
//
//   hqbench --workload <tpch_seq|bi_replay|etl_mixed> --seed <n>
//           --seconds <s> --trace <0|1>
//
// Drives the real proxy (vdb::Engine -> HyperQService -> TdwpServer)
// through tdwp client sessions in this one process. --trace 0 measures the
// end-to-end metrics with tracing off everywhere; --trace 1 is the separate
// traced run that reports the per-layer metrics (layers.cc). Every run
// checks the answers it gets; a wrong one makes the run exit 1.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "clients.h"
#include "common/stopwatch.h"
#include "layers.h"
#include "report.h"
#include "stats.h"
#include "workload.h"

namespace hqbench {
namespace {

// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

int RunEndToEnd(const Workload& workload, double seconds) {
  std::unique_ptr<Proxy> proxy;
  std::unique_ptr<ClientPool> clients;
  std::vector<double> setup_s;
  auto set_up = [&]() {
    clients.reset();
    proxy.reset();
    hyperq::Stopwatch sw;
    Status st = SetUp(workload, /*tracing=*/false, &proxy, &clients);
    if (!st.ok()) {
      std::fprintf(stderr, "hqbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    setup_s.push_back(sw.ElapsedSeconds());
    return true;
  };

  if (!set_up()) return 1;
  RunStats run = clients->Run(seconds);
  std::string final_check = workload.FinalCheck(proxy.get(), clients->sent());
  // Read before the extra set-ups below, so the peak covers exactly one
  // set-up plus the measured run.
  double peak_rss_mb = PeakRssMb();
  for (int i = 1; i < kSetups; ++i) {
    if (!set_up()) return 1;
  }

  std::vector<double> read_ms, write_ms;
  uint64_t rows = 0;
  for (const auto& s : run.samples) {
    (s.write ? write_ms : read_ms).push_back(s.latency_us / 1e3);
    if (!s.write) rows += s.rows;
  }
  Distribution reads(read_ms), writes(write_ms);

  Report report;
  std::printf("hqbench %s: %d session(s), closed loop, tracing off, "
              "%.2f s measured\n",
              workload.name(), workload.sessions(), run.elapsed_s);
  report.Add("setup_s", Distribution(setup_s).Median(), "s",
             "median of " + std::to_string(kSetups) + " set-ups");
  report.Add("throughput_qps", reads.count() / run.elapsed_s, "1/s",
             std::to_string(reads.count()) + " requests");
  report.Add("latency_p50_ms", reads.Median(), "ms",
             "n=" + std::to_string(reads.count()));
  report.Add("latency_p95_ms", reads.Quantile(0.95), "ms",
             "n=" + std::to_string(reads.count()) + ", " +
                 std::to_string(reads.Beyond(0.95)) + " beyond");
  report.Add("rows_per_s", rows / run.elapsed_s, "1/s",
             std::to_string(rows) + " rows");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  if (!writes.empty()) {
    // Only etl_mixed has a load session; not in the JSON result because
    // every JSON metric must exist on every workload.
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  write_p50_ms %.4f ms, write_p95_ms %.4f ms (n=%zu, "
                  "%zu beyond p95)",
                  writes.Median(), writes.Quantile(0.95), writes.count(),
                  writes.Beyond(0.95));
    report.Note(buf);
  }
  report.Note(Figure9(run.samples).Line(workload.name()));
  char buf[200];
  std::snprintf(buf, sizeof(buf), "  error_rate %.6f (%lld failed of %lld)",
                run.attempted > 0
                    ? static_cast<double>(run.failed) / run.attempted
                    : 0.0,
                static_cast<long long>(run.failed),
                static_cast<long long>(run.attempted));
  report.Note(buf);

  bool correct = run.wrong_answer.empty() && final_check.empty();
  if (!run.first_error.empty()) {
    report.Note("  first error: " + run.first_error);
  }
  if (!run.wrong_answer.empty()) {
    report.Note("  WRONG ANSWER: " + run.wrong_answer);
  }
  if (!final_check.empty()) report.Note("  WRONG ANSWER: " + final_check);
  clients.reset();
  proxy.reset();
  report.Print(correct, run.attempted, run.failed);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hqbench --workload <tpch_seq|bi_replay|etl_mixed> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace hqbench

int main(int argc, char** argv) {
  using namespace hqbench;
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      name = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::strcmp(argv[i + 1], "0") != 0;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
  if (workload == nullptr || seconds <= 0) return Usage();
  return trace ? RunTraced(*workload, seed, seconds)
               : RunEndToEnd(*workload, seconds);
}

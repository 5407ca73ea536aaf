// Closed-loop tdwp client sessions: one thread per session, each sending
// its workload's next request only after the previous reply is decoded.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "protocol/client.h"
#include "workload.h"

namespace hqbench {

/// \brief One completed request, as the client saw it.
/// Kept small (floats): a run stores one per request, and the samples
/// count towards the process's peak RSS.
struct Sample {
  float latency_us = 0;  // send until the last row is decoded
  // Server-reported Success-frame timing (Figure 9 categories).
  float translate_us = 0;
  float execute_us = 0;
  float convert_us = 0;
  uint32_t rows = 0;  // result rows delivered (0 for commands)
  bool write = false;
};

struct RunStats {
  std::vector<Sample> samples;
  double elapsed_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First failed request's error, and first wrong answer (empty = none).
  std::string first_error;
  std::string wrong_answer;
};

/// \brief The workload's sessions, connected over tdwp to one proxy.
class ClientPool {
 public:
  ClientPool(Proxy* proxy, const Workload* workload);
  ~ClientPool();
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Connects and logs on every session.
  Status Connect();
  /// Sends each session's warm-up requests (untimed, answers checked).
  Status Warm();
  /// Runs all sessions concurrently for `seconds` (sessions stop only at
  /// the workload's pass boundaries). When `probe_us` is set, the calling
  /// thread meanwhile times a trivial statement straight through
  /// vdb::Engine::Execute every couple of milliseconds: the wait for the
  /// engine while the workload runs.
  RunStats Run(double seconds, std::vector<double>* probe_us = nullptr);

  /// Requests each session has completed so far, warm-up included.
  std::vector<uint64_t> sent() const;

 private:
  struct Session {
    hyperq::protocol::TdwpClient client;
    uint64_t next = 0;
  };

  /// Sends `session`'s next request; records it into `stats`.
  void Step(int session, RunStats* stats);

  Proxy* proxy_;
  const Workload* workload_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

/// \brief The paper's Figure 9 decomposition of a run: sums of the
/// server-reported Success-frame timings over all requests.
struct Figure9 {
  double translate_us = 0;
  double execute_us = 0;
  double convert_us = 0;

  explicit Figure9(const std::vector<Sample>& samples);
  /// Hyper-Q's share: (translate + convert) / (all three), in percent.
  double overhead_pct() const;
  /// One table line: the overhead next to its three bases.
  std::string Line(const std::string& workload) const;
};

/// \brief Builds a fresh proxy for `workload`, loads it, connects the
/// sessions and warms the translation cache: everything before timing.
Status SetUp(const Workload& workload, bool tracing,
             std::unique_ptr<Proxy>* proxy,
             std::unique_ptr<ClientPool>* clients);

}  // namespace hqbench

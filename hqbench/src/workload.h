// The benchmark's three workloads and the proxy they drive.
//
// Every workload is a closed loop: each client session sends its next
// request only after the previous reply has been fully decoded, like bteq,
// BI and ETL clients do. Requests are generated from the run's seed; the
// proxy only ever sees the generated statements.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/resource_governor.h"
#include "common/result.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hqbench {

using hyperq::Status;

/// \brief The real proxy stack: vdb::Engine -> HyperQService -> TdwpServer.
struct Proxy {
  /// `tracing` sets both ServiceOptions::tracing and
  /// TdwpServerOptions::tracing; `cache` enables the translation cache.
  explicit Proxy(bool tracing, bool cache = true);
  ~Proxy();
  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  Status StartServer();
  /// Submits one SQL-A statement through the library API (set-up only).
  Status Exec(const std::string& sql);

  hyperq::vdb::Engine engine;
  std::shared_ptr<hyperq::ResourceGovernor> governor;
  std::unique_ptr<hyperq::service::HyperQService> service;
  std::unique_ptr<hyperq::protocol::TdwpServer> server;
  uint32_t admin_session = 0;

 private:
  bool tracing_;
};

/// \brief One request of a client session and what the benchmark knows
/// about its answer.
struct Request {
  std::string sql;
  /// Counted as a write (the etl_mixed load session) rather than as a
  /// read request.
  bool write = false;
  /// Expected result rows (rowsets) or affected rows (DML); -1 = unknown.
  int64_t expect_rows = -1;
  /// When set, the reply's RowsChecksum must equal `expect_checksum`.
  bool has_checksum = false;
  uint64_t expect_checksum = 0;
};

/// \brief A workload: how the proxy is loaded and what each session sends.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int sessions() const = 0;

  /// Creates the schema through the proxy and loads the data.
  virtual Status Load(Proxy* proxy) const = 0;
  /// Creates only the schema (for translation-only services).
  virtual Status LoadSchema(Proxy* proxy) const = 0;

  /// The `i`-th request of `session` (0-based, never ending).
  virtual Request Next(int session, uint64_t i) const = 0;
  /// Sessions may stop only at multiples of this many requests
  /// (1 = anywhere).
  virtual uint64_t pass_length() const { return 1; }
  /// Requests each session sends before timing starts (cache warm-up).
  virtual uint64_t warmup_requests(int session) const = 0;

  /// Distinct statements whose layers the traced run times.
  virtual std::vector<std::string> LayerStatements() const = 0;

  /// Requests per session the traced run also sends through
  /// HyperQService::Submit on a fresh proxy to compare answers (0 = none).
  virtual uint64_t library_check_requests() const { return 0; }

  /// End-of-run check over the whole run (`sent[s]` = requests session
  /// `s` completed); empty string = ok, else the reason.
  virtual std::string FinalCheck(Proxy* proxy,
                                 const std::vector<uint64_t>& sent) const {
    (void)proxy;
    (void)sent;
    return std::string();
  }
};

/// \brief Creates a workload by name (tpch_seq, bi_replay, etl_mixed);
/// null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// \brief Checks one reply against what `request` says is known about it.
/// Empty string = ok, else the reason.
std::string CheckAnswer(const Request& request,
                        const hyperq::protocol::ClientResult& result);

/// \brief Order-insensitive checksum of result rows.
uint64_t RowsChecksum(
    const std::vector<std::vector<hyperq::Datum>>& rows);

/// \brief Deterministic 64-bit generator (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
  }

 private:
  uint64_t state_;
};

}  // namespace hqbench

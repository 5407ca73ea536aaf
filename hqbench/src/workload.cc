#include "workload.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <set>

#include "types/date.h"
#include "workload/customer.h"
#include "workload/tpch.h"

namespace hqbench {

using hyperq::Datum;
using hyperq::Decimal;
namespace protocol = hyperq::protocol;
namespace service = hyperq::service;
namespace workload = hyperq::workload;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Proxy::Proxy(bool tracing, bool cache)
    : governor(std::make_shared<hyperq::ResourceGovernor>()),
      tracing_(tracing) {
  service::ServiceOptions options;
  options.tracing = tracing;
  options.translation_cache.enabled = cache;
  options.governor = governor;
  service = std::make_unique<service::HyperQService>(&engine, options);
  auto sid = service->OpenSession("hqbench_admin");
  if (sid.ok()) admin_session = *sid;
}

Proxy::~Proxy() {
  if (server != nullptr) server->Stop();
}

Status Proxy::StartServer() {
  protocol::TdwpServerOptions options;
  options.tracing = tracing_;
  options.metrics = service->metrics_registry();
  server = std::make_unique<protocol::TdwpServer>(service.get(), options);
  return server->Start(0);
}

Status Proxy::Exec(const std::string& sql) {
  auto r = service->Submit(admin_session, sql);
  return r.status();
}

namespace {

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

uint64_t Fnv1a(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint64_t Scramble(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ULL;
}

/// Hash of one field's value. Cheap for the common kinds, because every
/// reply is checked inside the closed loop.
uint64_t FieldHash(const Datum& d) {
  if (d.is_null()) return 0;
  if (d.is_int()) return Scramble(1, static_cast<uint64_t>(d.int_val()));
  if (d.is_date()) return Scramble(2, static_cast<uint64_t>(d.date_val()));
  if (d.is_decimal()) {
    const Decimal& v = d.decimal_val();
    return Scramble(Scramble(3, static_cast<uint64_t>(v.value)),
                    static_cast<uint64_t>(v.scale));
  }
  std::string text;
  if (d.is_string()) {
    // CHAR(n) values travel blank-padded to n; storage keeps them bare.
    const std::string& v = d.string_val();
    text = v.substr(0, v.find_last_not_of(' ') + 1);
  } else if (d.is_double()) {
    // Nine significant digits: summation-order noise in the last bits of
    // an aggregate must not read as a wrong answer.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", d.double_val());
    text = buf;
  } else {
    text = d.ToString();
  }
  return Fnv1a(0xCBF29CE484222325ULL, text.data(), text.size());
}

/// Hash of one row; RowsChecksum sums these, so the checksum does not
/// depend on row order.
uint64_t RowHash(const std::vector<Datum>& row) {
  uint64_t h = 0;
  for (const auto& d : row) h = Scramble(h, FieldHash(d));
  return h;
}

struct TpchAnswer {
  int64_t rows;
  uint64_t checksum;
};

// Result rows and RowsChecksum of each TPC-H query at scale factor
// kTpchScale with data seed kTpchSeed. Regenerate only when the data
// generator or a query text changes on purpose.
constexpr double kTpchScale = 0.01;
constexpr uint64_t kTpchSeed = 19620718;
constexpr TpchAnswer kTpchAnswers[22] = {
    {4, 0x50da71d8479ccda3ULL},   {5, 0x42b255d7c9e8778cULL},
    {10, 0x1150ce358672b6d0ULL},  {5, 0xf53bd6a0e1c6a538ULL},
    {5, 0xc058da28732e660fULL},   {1, 0x9636c25049d7f6a6ULL},
    {4, 0x030284521b81158bULL},   {2, 0x00dbc985a38f2b9fULL},
    {0, 0x0000000000000000ULL},   {20, 0x3e78a8472faadf39ULL},
    {159, 0xce98a9455bb71f5aULL}, {2, 0x7799679116fd60c2ULL},
    {19, 0xc83b41080394b946ULL},  {1, 0xe21a86427c63c4b9ULL},
    {1, 0x37bdc26275337b38ULL},   {271, 0x4a945625c2022cb7ULL},
    {1, 0x7a4d39679ef12cf7ULL},   {100, 0x38d22832bc9903f4ULL},
    {1, 0xe049a3ce344d9a9fULL},   {0, 0x0000000000000000ULL},
    {4, 0x3c54e6ccf998bdf5ULL},   {0, 0x0000000000000000ULL},
};

Status LoadTpchData(Proxy* proxy) {
  return workload::LoadTpch(proxy->service.get(), proxy->admin_session,
                            &proxy->engine, {kTpchScale, kTpchSeed});
}

Status LoadTpchSchema(Proxy* proxy) {
  for (const auto& ddl : workload::TpchSchemaSqlA()) {
    HQ_RETURN_IF_ERROR(proxy->Exec(ddl));
  }
  return Status::OK();
}

std::string DateText(int32_t days) { return hyperq::FormatDate(days); }

/// "<cents / 100>.<cents % 100>" for non-negative cents.
std::string CentsText(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld",
                static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

/// Fisher-Yates with the benchmark's own generator, so the order depends
/// only on the seed.
void Shuffle(std::vector<std::string>* v, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Next() % i]);
  }
}

// ---------------------------------------------------------------------------
// tpch_seq
// ---------------------------------------------------------------------------

class TpchSeq : public Workload {
 public:
  explicit TpchSeq(uint64_t seed) : offset_(seed % 22) {}

  const char* name() const override { return "tpch_seq"; }
  int sessions() const override { return 1; }
  Status Load(Proxy* proxy) const override { return LoadTpchData(proxy); }
  Status LoadSchema(Proxy* proxy) const override {
    return LoadTpchSchema(proxy);
  }

  Request Next(int, uint64_t i) const override {
    int q = static_cast<int>((offset_ + i) % 22);
    Request r;
    r.sql = workload::TpchQueries()[q];
    r.expect_rows = kTpchAnswers[q].rows;
    r.has_checksum = true;
    r.expect_checksum = kTpchAnswers[q].checksum;
    return r;
  }
  uint64_t pass_length() const override { return 22; }
  uint64_t warmup_requests(int) const override { return 22; }

  std::vector<std::string> LayerStatements() const override {
    return workload::TpchQueries();
  }

 private:
  uint64_t offset_;
};

// ---------------------------------------------------------------------------
// bi_replay
// ---------------------------------------------------------------------------

// Share of Table 1's distinct-query population that is synthesized.
constexpr double kBiScale = 0.25;
// Rows bulk-loaded into the customer tables; small, so the proxy's own
// per-request path and not vdb operator speed dominates.
constexpr int64_t kPatients = 100;
constexpr int64_t kClaims = 100;
// The replay's single-row claim inserts carry this date (see
// workload/customer.cc); the loaded claims never do, so one DEL on it at
// the end of every Health cycle keeps T_CLAIM at a bounded size.
constexpr const char* kReplayClaimDate = "2014-01-02";

class BiReplay : public Workload {
 public:
  explicit BiReplay(uint64_t seed) : seed_(seed) {
    // The populations keep the synthesizer's default literals; the seed
    // picks the replay order and the table contents.
    auto health = workload::SynthesizeWorkload(
        workload::CustomerProfile::Customer1Health(), kBiScale);
    auto telco = workload::SynthesizeWorkload(
        workload::CustomerProfile::Customer2Telco(), kBiScale);
    for (int s = 0; s < kSessions; ++s) {
      bool is_health = s < kSessions / 2;
      const auto& population = is_health ? health : telco;
      std::vector<std::string> stream;
      for (const auto& q : population) {
        for (int64_t r = 0; r < q.replay_count; ++r) stream.push_back(q.sql);
      }
      Shuffle(&stream, seed * 131 + s);
      if (is_health) {
        stream.push_back(std::string("DEL FROM T_CLAIM WHERE CLAIM_DATE = "
                                     "DATE '") +
                         kReplayClaimDate + "'");
      }
      streams_.push_back(std::move(stream));
    }
    std::set<std::string> seen;
    for (const auto* population : {&health, &telco}) {
      for (const auto& q : *population) {
        if (seen.insert(q.sql).second) distinct_.push_back(q.sql);
      }
    }
    Shuffle(&distinct_, seed ^ 0xD15C);
  }

  const char* name() const override { return "bi_replay"; }
  int sessions() const override { return kSessions; }

  Status LoadSchema(Proxy* proxy) const override {
    return workload::SetUpCustomerSchema(proxy->service.get(),
                                         proxy->admin_session);
  }

  Status Load(Proxy* proxy) const override {
    HQ_RETURN_IF_ERROR(LoadSchema(proxy));
    auto* storage = proxy->engine.storage();
    HQ_ASSIGN_OR_RETURN(auto* pat, storage->GetTable("T_PAT"));
    HQ_ASSIGN_OR_RETURN(auto* claim, storage->GetTable("T_CLAIM"));
    Rng rng(seed_ ^ 0xDA7A);
    int32_t y2013 = hyperq::DaysFromCivil(2013, 1, 1);
    int32_t y2014 = hyperq::DaysFromCivil(2014, 1, 1);
    for (int64_t id = 1; id <= kPatients; ++id) {
      pat->rows.push_back(
          {Datum::Int(id), Datum::String("name" + std::to_string(id)),
           Datum::Int(rng.Uniform(0, 2000)),
           Datum::Date(y2014 + static_cast<int32_t>(rng.Uniform(0, 364))),
           Datum::Int(rng.Uniform(0, 49))});
    }
    for (int64_t id = 1; id <= kClaims; ++id) {
      int64_t cents = rng.Uniform(100, 150000);
      auto amount = Decimal::Parse(CentsText(cents));
      auto net = Decimal::Parse(CentsText(cents * 9 / 10));
      if (!amount.ok() || !net.ok()) {
        return Status::Internal("claim amount rendering");
      }
      claim->rows.push_back(
          {Datum::Int(id), Datum::Int(rng.Uniform(1, kPatients)),
           Datum::MakeDecimal(*amount), Datum::MakeDecimal(*net),
           Datum::Date(y2013 + static_cast<int32_t>(rng.Uniform(0, 364)))});
    }
    pat->version++;
    claim->version++;
    return Status::OK();
  }

  Request Next(int session, uint64_t i) const override {
    const auto& stream = streams_[session];
    Request r;
    r.sql = stream[i % stream.size()];
    return r;
  }
  uint64_t warmup_requests(int) const override { return 2000; }
  uint64_t library_check_requests() const override { return 250; }

  std::vector<std::string> LayerStatements() const override {
    size_t n = std::min<size_t>(distinct_.size(), 400);
    return std::vector<std::string>(distinct_.begin(), distinct_.begin() + n);
  }

 private:
  static constexpr int kSessions = 4;
  uint64_t seed_;
  std::vector<std::vector<std::string>> streams_;
  std::vector<std::string> distinct_;
};

// ---------------------------------------------------------------------------
// etl_mixed
// ---------------------------------------------------------------------------

constexpr int kExtractSessions = 3;
constexpr std::array<const char*, 12> kExtractColumns = {
    "L_ORDERKEY",   "L_PARTKEY",       "L_SUPPKEY",  "L_LINENUMBER",
    "L_QUANTITY",   "L_EXTENDEDPRICE", "L_DISCOUNT", "L_TAX",
    "L_RETURNFLAG", "L_SHIPDATE",      "L_SHIPMODE", "L_COMMENT"};
constexpr int kWindowsPerSession = 16;
// ~2.4k lineitem rows at SF 0.01: more than one converter batch (2048).
constexpr int32_t kWindowDays = 95;
// Load-session cycle: kInsertsPerCycle single-row INS, then one DEL that
// keeps the newest kStageKeep rows.
constexpr uint64_t kInsertsPerCycle = 19;
constexpr int64_t kStageKeep = 10;

class EtlMixed : public Workload {
 public:
  explicit EtlMixed(uint64_t seed) : seed_(seed) {
    Rng rng(seed ^ 0xE71);
    int32_t first = hyperq::DaysFromCivil(1992, 3, 1);
    int32_t last = hyperq::DaysFromCivil(1998, 6, 1) - kWindowDays;
    for (int i = 0; i < kExtractSessions * kWindowsPerSession; ++i) {
      windows_.push_back(static_cast<int32_t>(rng.Uniform(first, last)));
    }
  }

  const char* name() const override { return "etl_mixed"; }
  int sessions() const override { return kExtractSessions + 1; }

  Status LoadSchema(Proxy* proxy) const override {
    HQ_RETURN_IF_ERROR(LoadTpchSchema(proxy));
    return proxy->Exec(kStageDdl);
  }

  Status Load(Proxy* proxy) const override {
    HQ_RETURN_IF_ERROR(LoadTpchData(proxy));
    HQ_RETURN_IF_ERROR(proxy->Exec(kStageDdl));
    if (window_rows_.empty()) {
      // Expected extract sizes and checksums, computed straight from
      // storage rather than through any SQL path.
      HQ_ASSIGN_OR_RETURN(auto* lineitem,
                          proxy->engine.storage()->GetTable("LINEITEM"));
      std::vector<int> cols;
      for (const char* name : kExtractColumns) {
        cols.push_back(lineitem->FindColumn(name));
        if (cols.back() < 0) return Status::Internal("LINEITEM column");
      }
      int shipdate = lineitem->FindColumn("L_SHIPDATE");
      window_rows_.assign(windows_.size(), 0);
      window_checksums_.assign(windows_.size(), 0);
      std::vector<Datum> projected(cols.size());
      for (const auto& row : lineitem->rows) {
        int32_t d = row[shipdate].date_val();
        for (size_t c = 0; c < cols.size(); ++c) projected[c] = row[cols[c]];
        uint64_t h = RowHash(projected);
        for (size_t w = 0; w < windows_.size(); ++w) {
          if (d >= windows_[w] && d < windows_[w] + kWindowDays) {
            ++window_rows_[w];
            window_checksums_[w] += h;
          }
        }
      }
    }
    return Status::OK();
  }

  Request Next(int session, uint64_t i) const override {
    Request r;
    if (session < kExtractSessions) {
      size_t w = session * kWindowsPerSession + i % kWindowsPerSession;
      r.sql = "SEL ";
      for (const char* name : kExtractColumns) {
        r.sql += name;
        r.sql += name == kExtractColumns.back() ? " " : ", ";
      }
      r.sql += "FROM LINEITEM WHERE L_SHIPDATE >= DATE '" +
               DateText(windows_[w]) + "' AND L_SHIPDATE < DATE '" +
               DateText(windows_[w] + kWindowDays) + "'";
      if (!window_rows_.empty()) {
        r.expect_rows = window_rows_[w];
        r.has_checksum = true;
        r.expect_checksum = window_checksums_[w];
      }
      return r;
    }
    r.write = true;
    uint64_t cycle = i / (kInsertsPerCycle + 1);
    uint64_t pos = i % (kInsertsPerCycle + 1);
    if (pos < kInsertsPerCycle) {
      int64_t id = static_cast<int64_t>(cycle * kInsertsPerCycle + pos + 1);
      Rng rng(seed_ * 7919 + static_cast<uint64_t>(id));
      int64_t cents = rng.Uniform(100, 9999999);
      r.sql = "INS INTO ETL_STAGE VALUES (" + std::to_string(id) + ", " +
              std::to_string(rng.Uniform(1, 60000)) + ", " +
              std::to_string(rng.Uniform(1, 50)) + ".00, " +
              CentsText(cents) + ", DATE '" +
              DateText(hyperq::DaysFromCivil(1998, 1, 1) +
                       static_cast<int32_t>(rng.Uniform(0, 364))) +
              "')";
      r.expect_rows = 1;
    } else {
      int64_t newest = static_cast<int64_t>((cycle + 1) * kInsertsPerCycle);
      r.sql = "DEL FROM ETL_STAGE WHERE ID <= " +
              std::to_string(newest - kStageKeep);
      // Rows older than the keep window: everything but the previous
      // cycle's survivors is new this cycle.
      r.expect_rows = static_cast<int64_t>(kInsertsPerCycle) -
                      (cycle == 0 ? kStageKeep : 0);
    }
    return r;
  }
  uint64_t warmup_requests(int session) const override {
    return session < kExtractSessions ? kWindowsPerSession
                                      : kInsertsPerCycle + 1;
  }

  std::vector<std::string> LayerStatements() const override {
    std::vector<std::string> out;
    for (int s = 0; s < kExtractSessions; ++s) {
      for (int w = 0; w < kWindowsPerSession; ++w) {
        out.push_back(Next(s, w).sql);
      }
    }
    for (uint64_t i = 0; i <= kInsertsPerCycle; ++i) {
      out.push_back(Next(kExtractSessions, i).sql);
    }
    return out;
  }

  std::string FinalCheck(Proxy* proxy,
                         const std::vector<uint64_t>& sent) const override {
    uint64_t n = sent[kExtractSessions];
    uint64_t cycles = n / (kInsertsPerCycle + 1);
    int64_t inserted = static_cast<int64_t>(
        cycles * kInsertsPerCycle + n % (kInsertsPerCycle + 1));
    int64_t deleted = 0;
    for (uint64_t c = 0; c < cycles; ++c) {
      deleted += Next(kExtractSessions, c * (kInsertsPerCycle + 1) +
                                            kInsertsPerCycle)
                     .expect_rows;
    }
    auto r = proxy->service->Submit(proxy->admin_session,
                                    "SEL COUNT(*) FROM ETL_STAGE");
    if (!r.ok()) return "staging count failed: " + r.status().ToString();
    auto rows = r->result.DecodeRows();
    if (!rows.ok() || rows->size() != 1 || (*rows)[0].size() != 1) {
      return "staging count: malformed result";
    }
    int64_t count = (*rows)[0][0].AsInt();
    if (count != inserted - deleted) {
      return "staging COUNT(*) " + std::to_string(count) + " != inserts " +
             std::to_string(inserted) + " - deletes " +
             std::to_string(deleted);
    }
    return std::string();
  }

 private:
  static constexpr const char* kStageDdl =
      "CREATE TABLE ETL_STAGE (ID INTEGER, ORDERKEY INTEGER, QTY "
      "DECIMAL(15,2), PRICE DECIMAL(15,2), SHIPDATE DATE)";
  uint64_t seed_;
  std::vector<int32_t> windows_;
  mutable std::vector<int64_t> window_rows_;
  mutable std::vector<uint64_t> window_checksums_;
};

}  // namespace

uint64_t RowsChecksum(const std::vector<std::vector<Datum>>& rows) {
  uint64_t sum = 0;
  for (const auto& row : rows) sum += RowHash(row);
  return sum;
}

std::string CheckAnswer(const Request& request,
                        const protocol::ClientResult& result) {
  int64_t got = result.columns.empty()
                    ? static_cast<int64_t>(result.activity_count)
                    : static_cast<int64_t>(result.rows.size());
  uint64_t checksum = request.has_checksum ? RowsChecksum(result.rows) : 0;
  if ((request.expect_rows >= 0 && got != request.expect_rows) ||
      checksum != request.expect_checksum) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%lld rows, checksum 0x%016llx; expected %lld rows, "
                  "checksum 0x%016llx: ",
                  static_cast<long long>(got),
                  static_cast<unsigned long long>(checksum),
                  static_cast<long long>(request.expect_rows),
                  static_cast<unsigned long long>(request.expect_checksum));
    return buf + request.sql.substr(0, 120);
  }
  return std::string();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "tpch_seq") return std::make_unique<TpchSeq>(seed);
  if (name == "bi_replay") return std::make_unique<BiReplay>(seed);
  if (name == "etl_mixed") return std::make_unique<EtlMixed>(seed);
  return nullptr;
}

}  // namespace hqbench

#include "clients.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/stopwatch.h"

namespace hqbench {

ClientPool::ClientPool(Proxy* proxy, const Workload* workload)
    : proxy_(proxy), workload_(workload) {}

ClientPool::~ClientPool() {
  for (auto& s : sessions_) s->client.Goodbye();
}

Status ClientPool::Connect() {
  for (int s = 0; s < workload_->sessions(); ++s) {
    auto session = std::make_unique<Session>();
    HQ_RETURN_IF_ERROR(session->client.Connect(proxy_->server->port()));
    HQ_RETURN_IF_ERROR(
        session->client.Logon("hqbench" + std::to_string(s), "pw"));
    sessions_.push_back(std::move(session));
  }
  return Status::OK();
}

void ClientPool::Step(int session, RunStats* stats) {
  Session& s = *sessions_[session];
  Request request = workload_->Next(session, s.next++);
  ++stats->attempted;
  hyperq::Stopwatch sw;
  auto result = s.client.Run(request.sql);
  double latency_us = sw.ElapsedMicros();
  if (!result.ok()) {
    ++stats->failed;
    if (stats->first_error.empty()) {
      stats->first_error = result.status().ToString() + ": " + request.sql;
    }
    return;
  }
  std::string wrong = CheckAnswer(request, *result);
  if (!wrong.empty() && stats->wrong_answer.empty()) {
    stats->wrong_answer = wrong;
  }
  Sample sample;
  sample.latency_us = static_cast<float>(latency_us);
  sample.translate_us = static_cast<float>(result->translation_micros);
  sample.execute_us = static_cast<float>(result->execution_micros);
  sample.convert_us = static_cast<float>(result->conversion_micros);
  sample.rows = static_cast<uint32_t>(result->rows.size());
  sample.write = request.write;
  stats->samples.push_back(sample);
}

Status ClientPool::Warm() {
  const int n = workload_->sessions();
  std::vector<RunStats> per_session(n);
  std::vector<std::thread> threads;
  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      for (uint64_t i = 0; i < workload_->warmup_requests(s); ++i) {
        Step(s, &per_session[s]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& stats : per_session) {
    if (stats.failed > 0) return Status::Internal(stats.first_error);
    if (!stats.wrong_answer.empty()) {
      return Status::Internal("wrong answer: " + stats.wrong_answer);
    }
  }
  return Status::OK();
}

RunStats ClientPool::Run(double seconds, std::vector<double>* probe_us) {
  const int n = workload_->sessions();
  const uint64_t pass = workload_->pass_length();
  std::vector<RunStats> per_session(n);
  std::atomic<int> running{n};
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(seconds));
  hyperq::Stopwatch wall;
  std::vector<std::thread> threads;
  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      RunStats* stats = &per_session[s];
      do {
        Step(s, stats);
      } while (sessions_[s]->next % pass != 0 ||
               std::chrono::steady_clock::now() < deadline);
      running.fetch_sub(1);
    });
  }
  if (probe_us != nullptr) {
    while (running.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      hyperq::Stopwatch sw;
      auto r = proxy_->engine.Execute("SELECT 1");
      if (r.ok()) probe_us->push_back(sw.ElapsedMicros());
    }
  }
  for (auto& t : threads) t.join();

  RunStats total;
  total.elapsed_s = wall.ElapsedSeconds();
  for (auto& stats : per_session) {
    total.attempted += stats.attempted;
    total.failed += stats.failed;
    if (total.first_error.empty()) total.first_error = stats.first_error;
    if (total.wrong_answer.empty()) total.wrong_answer = stats.wrong_answer;
    total.samples.insert(total.samples.end(), stats.samples.begin(),
                         stats.samples.end());
  }
  return total;
}

std::vector<uint64_t> ClientPool::sent() const {
  std::vector<uint64_t> out;
  for (const auto& s : sessions_) out.push_back(s->next);
  return out;
}

Figure9::Figure9(const std::vector<Sample>& samples) {
  for (const auto& s : samples) {
    translate_us += s.translate_us;
    execute_us += s.execute_us;
    convert_us += s.convert_us;
  }
}

double Figure9::overhead_pct() const {
  double total = translate_us + execute_us + convert_us;
  return total > 0 ? 100.0 * (translate_us + convert_us) / total : 0.0;
}

std::string Figure9::Line(const std::string& workload) const {
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "Figure 9 (%s): translate %.0f us, execute %.0f us, "
                "convert %.0f us -> Hyper-Q overhead %.3f%%",
                workload.c_str(), translate_us, execute_us, convert_us,
                overhead_pct());
  return buf;
}

Status SetUp(const Workload& workload, bool tracing,
             std::unique_ptr<Proxy>* proxy,
             std::unique_ptr<ClientPool>* clients) {
  *proxy = std::make_unique<Proxy>(tracing);
  HQ_RETURN_IF_ERROR(workload.Load(proxy->get()));
  HQ_RETURN_IF_ERROR((*proxy)->StartServer());
  *clients = std::make_unique<ClientPool>(proxy->get(), &workload);
  HQ_RETURN_IF_ERROR((*clients)->Connect());
  return (*clients)->Warm();
}

}  // namespace hqbench

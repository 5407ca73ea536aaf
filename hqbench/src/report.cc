#include "report.h"

#include <cstdio>

namespace hqbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::AddQuantiles(const std::string& prefix, const Distribution& d,
                          const std::string& unit, const std::string& note) {
  std::string counted = "n=" + std::to_string(d.count()) + ", " +
                        std::to_string(d.Beyond(0.95)) + " beyond p95";
  Add(prefix + ".p50", d.Median(), unit,
      counted + (note.empty() ? "" : "; " + note));
  Add(prefix + ".p95", d.Quantile(0.95), unit, counted);
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  for (const auto& m : metrics_) {
    std::printf("  %-34s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const auto& n : notes_) std::printf("%s\n", n.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace hqbench

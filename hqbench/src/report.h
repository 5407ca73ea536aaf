// The benchmark's output: a human-readable table followed, as the last
// line of standard output, by one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace hqbench {

class Report {
 public:
  /// A metric that goes into the JSON result.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A line printed in the table only.
  void Note(const std::string& text);

  /// Adds `<prefix>.p50` and `<prefix>.p95` of `d` and notes the sample
  /// count.
  void AddQuantiles(const std::string& prefix, const Distribution& d,
                    const std::string& unit, const std::string& note);

  /// Prints the table, then the JSON line.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace hqbench

// Shared table-printing and result-emission helpers for the paper benches.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace flexsfp::bench {

/// Print the usage line and exit 2: the bench CLIs' answer to bad input.
[[noreturn]] inline void usage_error(const char* argv0, const char* usage,
                                     const std::string& problem) {
  std::fprintf(stderr, "usage: %s %s  (%s)\n", argv0, usage, problem.c_str());
  std::exit(2);
}

/// Positional argument `index` parsed in full as an integer in [lo, hi], or
/// `fallback` when it is absent. Text, a suffix ("4x"), a sign on an
/// unsigned value or anything out of range is a usage error, so a typo never
/// runs a silently different experiment.
template <typename T>
T positional_arg(int argc, char** argv, int index, T fallback, T lo, T hi,
                 const char* usage) {
  if (argc <= index) return fallback;
  const std::string_view text = argv[index];
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size() || value < lo ||
      value > hi) {
    usage_error(argv[0], usage,
                "argument " + std::to_string(index) + " must be an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "], got '" + std::string(text) + "'");
  }
  return value;
}

/// More than `max` positional arguments is a usage error too.
inline void max_args(int argc, char** argv, int max, const char* usage) {
  if (argc - 1 > max) {
    usage_error(argv[0], usage,
                "takes at most " + std::to_string(max) + " argument(s), got " +
                    std::to_string(argc - 1));
  }
}

inline void title(const std::string& text) {
  std::printf("\n=== %s ===\n\n", text.c_str());
}

inline void rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

/// Named scalar results of a bench run ("delivered_gbps_64", "ledger_ok").
using Figures = std::vector<std::pair<std::string, double>>;

/// Write `BENCH_<name>.json` in the working directory: the bench's headline
/// figures plus the full registry snapshot of the run, so CI can archive
/// machine-readable results next to the human tables. Returns false (and
/// says so on stderr) when the file cannot be written.
inline bool write_bench_json(const std::string& name,
                             const obs::MetricSnapshot& snapshot,
                             const Figures& figures = {}) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::string doc = "{\"bench\":\"" + name + "\",\"figures\":{";
  for (std::size_t i = 0; i < figures.size(); ++i) {
    if (i != 0) doc += ",";
    doc += "\"" + figures[i].first + "\":";
    if (std::isfinite(figures[i].second)) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.17g", figures[i].second);
      doc += buffer;
    } else {
      doc += "null";  // NaN/inf are not JSON
    }
  }
  doc += "},\"metrics\":" + snapshot.to_json() + "}\n";
  const bool ok = std::fputs(doc.c_str(), out) >= 0;
  std::fclose(out);
  if (ok) note("wrote " + path);
  return ok;
}

}  // namespace flexsfp::bench

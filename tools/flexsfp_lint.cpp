// flexsfp-lint: static pipeline verification from the command line.
//
// Runs analysis::PipelineVerifier over catalogued deployable designs and
// prints compiler-style diagnostics (or JSON for CI). Exit codes:
//   0  every verified design is acceptable
//   1  lint failure: error-severity diagnostics (or warnings with
//      --fail-on-warning), or an expectation mismatch in
//      --check-expectations mode
//   2  usage error / unknown design / unknown device
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/catalog.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/verifier.hpp"
#include "apps/register.hpp"
#include "hw/device.hpp"

namespace {

using namespace flexsfp;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: flexsfp-lint [options]\n"
               "\n"
               "Statically verify FlexSFP pipeline designs: resource fit,\n"
               "line-rate arithmetic, table geometry and pipeline shape --\n"
               "the paper's feasibility verdicts without running the\n"
               "simulator.\n"
               "\n"
               "options:\n"
               "  --list                 list catalogued designs and exit\n"
               "  --list-rules           list the FSL rule catalog and exit\n"
               "  --design <name>        verify one design (repeatable)\n"
               "  --all                  verify every catalogued design\n"
               "                         (default when no --design given)\n"
               "  --device <name>        target device (MPF100T, MPF200T,\n"
               "                         MPF300T, MPF500T; default MPF200T)\n"
               "  --min-frame <bytes>    smallest frame the BPF abstract\n"
               "                         interpreter proves packet loads\n"
               "                         against (default 64)\n"
               "  --json                 machine-readable report on stdout\n"
               "  --fail-on-warning      treat warnings as failures\n"
               "  --check-expectations   fail when a design's verdict\n"
               "                         differs from the catalog's\n"
               "                         expect_feasible flag (CI mode)\n"
               "  -h, --help             this text\n");
}

struct DesignResult {
  const analysis::DeployableDesign* design = nullptr;
  analysis::DiagnosticReport report;
  bool feasible = true;  // no error-severity diagnostics
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  std::string device_name = "MPF200T";
  std::size_t min_frame_bytes = 64;
  bool list_rules = false;
  bool list_only = false;
  bool all = false;
  bool json = false;
  bool fail_on_warning = false;
  bool check_expectations = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--design") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flexsfp-lint: --design needs a name\n");
        return 2;
      }
      names.emplace_back(argv[++i]);
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--device") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flexsfp-lint: --device needs a name\n");
        return 2;
      }
      device_name = argv[++i];
    } else if (arg == "--min-frame") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flexsfp-lint: --min-frame needs a byte count\n");
        return 2;
      }
      // Parsed in full and bounded by the largest frame the interpreter
      // models: a suffix or an out-of-range count is a usage error, never
      // a silently truncated or saturated bound.
      const char* text = argv[++i];
      const char* end = text + std::strlen(text);
      const std::size_t max_frame =
          analysis::VerifierOptions{}.bpf_max_frame_bytes;
      const auto [ptr, ec] = std::from_chars(text, end, min_frame_bytes);
      if (ec != std::errc{} || ptr != end || min_frame_bytes == 0 ||
          min_frame_bytes > max_frame) {
        std::fprintf(stderr,
                     "flexsfp-lint: --min-frame takes a byte count in [1, "
                     "%zu] (got '%s')\n",
                     max_frame, text);
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--fail-on-warning") {
      fail_on_warning = true;
    } else if (arg == "--check-expectations") {
      check_expectations = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "flexsfp-lint: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (list_rules) {
    for (const auto& rule : analysis::rule_catalog()) {
      std::printf("%-8s %-8s %s\n", std::string(rule.id).c_str(),
                  analysis::to_string(rule.max_severity).c_str(),
                  std::string(rule.summary).c_str());
    }
    return 0;
  }

  const auto& catalog = analysis::deployable_designs();
  if (list_only) {
    for (const auto& design : catalog) {
      std::printf("%-18s %-10s %s\n", design.name.c_str(),
                  design.expect_feasible ? "feasible" : "infeasible",
                  design.description.c_str());
    }
    return 0;
  }

  const auto device = hw::FpgaDevice::by_name(device_name);
  if (!device) {
    std::fprintf(stderr, "flexsfp-lint: unknown device '%s'\n",
                 device_name.c_str());
    return 2;
  }

  std::vector<const analysis::DeployableDesign*> selected;
  if (names.empty() || all) {
    for (const auto& design : catalog) selected.push_back(&design);
  }
  for (const auto& name : names) {
    const auto* design = analysis::find_design(name);
    if (design == nullptr) {
      std::fprintf(stderr,
                   "flexsfp-lint: unknown design '%s' (--list shows the "
                   "catalog)\n",
                   name.c_str());
      return 2;
    }
    selected.push_back(design);
  }

  apps::register_builtin_apps();
  analysis::VerifierOptions options;
  options.device = *device;
  options.bpf_min_frame_bytes = min_frame_bytes;
  const analysis::PipelineVerifier verifier(options);

  std::vector<DesignResult> results;
  for (const auto* design : selected) {
    DesignResult result;
    result.design = design;
    result.report = verifier.verify(*design->build());
    result.feasible = !result.report.has_errors();
    results.push_back(std::move(result));
  }

  bool failed = false;
  for (const auto& result : results) {
    if (check_expectations) {
      if (result.feasible != result.design->expect_feasible) failed = true;
    } else if (!result.feasible) {
      failed = true;
    }
    if (fail_on_warning && result.report.has_warnings()) failed = true;
  }

  if (json) {
    std::string out = "{\"device\":\"" + analysis::json_escape(device->name()) +
                      "\",\"designs\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const DesignResult& result = results[i];
      if (i != 0) out += ",";
      out += "{\"name\":\"" + analysis::json_escape(result.design->name) +
             "\",\"description\":\"" +
             analysis::json_escape(result.design->description) +
             "\",\"expected_feasible\":" +
             (result.design->expect_feasible ? "true" : "false") +
             ",\"feasible\":" + (result.feasible ? "true" : "false") +
             ",\"report\":" + result.report.to_json() + "}";
    }
    out += "],\"pass\":" + std::string(failed ? "false" : "true") + "}";
    std::printf("%s\n", out.c_str());
  } else {
    for (const DesignResult& result : results) {
      const bool expectation_ok =
          result.feasible == result.design->expect_feasible;
      std::printf("== %s [%s on %s, expected %s]%s\n",
                  result.design->name.c_str(),
                  result.feasible ? "FEASIBLE" : "INFEASIBLE",
                  device->name().c_str(),
                  result.design->expect_feasible ? "feasible" : "infeasible",
                  check_expectations && !expectation_ok
                      ? "  <-- EXPECTATION MISMATCH"
                      : "");
      const std::string text = result.report.to_text();
      std::fputs(text.c_str(), stdout);
      std::printf("\n");
    }
    std::printf("%zu design(s) verified on %s: %s\n", results.size(),
                device->name().c_str(), failed ? "FAIL" : "OK");
  }
  return failed ? 1 : 0;
}

// sws-analyze: offline analyzer for Tracer::dump_chrome_json traces.
//
//   sws-analyze <trace.json>                  full report
//   sws-analyze --report <trace.json>         run summary: report + critical
//                                             path + hot-victim convoys
//   sws-analyze --diff <a.json> <b.json>      A/B comparison
//   sws-analyze --self-check <trace.json>     protocol op-shape check;
//                                             exit 1 on any violation
//
// Options: --window-ns=N          pathology-scan window (default duration/64)
//          --timeseries=FILE      also summarize an sws-timeseries JSON
//                                 document (bench_common --timeseries-out)
//                                 and verify its accounting invariant;
//                                 exit 1 if any window's category deltas
//                                 fail to sum to the elapsed delta
//
// The self-check is what CI runs on every push: each successful SWS steal
// must be exactly one remote fetch-add + one task-copy get (+ one nbi
// completion add); each successful SDC steal must show the six-op
// lock/fetch/claim/unlock/copy/notify sequence (paper Fig 2). A trace
// with no successful steal fails it, unless the run had a single PE.

#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"

namespace {

int usage() {
  std::cerr << "usage: sws-analyze [--self-check|--report] <trace.json>\n"
            << "       sws-analyze --diff <a.json> <b.json>\n"
            << "       options: --window-ns=N --timeseries=FILE\n";
  return 2;
}

/// Summarizes an sws-timeseries document and checks its accounting
/// invariant; returns the exit code (1 on any mismatched window).
int check_timeseries(const std::string& file) {
  const auto ts = sws::obs::parse_timeseries_file(file);
  sws::obs::write_timeseries_summary(std::cout, ts);
  const auto errs = sws::obs::check_accounting(ts);
  for (const std::string& e : errs) std::cerr << "  ! " << e << "\n";
  if (!errs.empty()) {
    std::cerr << "accounting self-check: FAILED\n";
    return 1;
  }
  std::cout << "accounting self-check: OK (" << ts.t.size() << " windows)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Hand-rolled parsing: every flag here is positional-file adjacent,
    // which the generic Options "--key value" rule would misread.
    sws::obs::WindowConfig wc;
    bool diff = false;
    bool self_check = false;
    bool report_mode = false;
    std::string timeseries_file;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--diff") {
        diff = true;
      } else if (arg == "--self-check") {
        self_check = true;
      } else if (arg == "--report") {
        report_mode = true;
      } else if (arg.rfind("--window-ns=", 0) == 0) {
        wc.window_ns = std::stoull(arg.substr(12));
      } else if (arg.rfind("--timeseries=", 0) == 0) {
        timeseries_file = arg.substr(13);
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "sws-analyze: unknown option " << arg << "\n";
        return usage();
      } else {
        files.push_back(arg);
      }
    }

    if (diff) {
      if (files.size() != 2) return usage();
      const auto a = sws::obs::analyze(
          sws::obs::parse_chrome_trace_file(files[0]), wc);
      const auto b = sws::obs::analyze(
          sws::obs::parse_chrome_trace_file(files[1]), wc);
      sws::obs::write_diff(std::cout, a, b);
      return 0;
    }

    // --timeseries alone (no trace) is a valid invocation: summarize and
    // self-check the sampled document.
    if (files.empty() && !timeseries_file.empty() && !self_check)
      return check_timeseries(timeseries_file);

    if (files.size() != 1) return usage();
    const auto rt = sws::obs::parse_chrome_trace_file(files[0]);
    const auto report = sws::obs::analyze(rt, wc);
    sws::obs::write_report(std::cout, report);

    if (report_mode) {
      sws::obs::write_critical_path(std::cout, sws::obs::critical_path(rt));
      sws::obs::write_convoy(std::cout, sws::obs::convoy_report(rt, wc));
    }

    const int rc =
        timeseries_file.empty() ? 0 : check_timeseries(timeseries_file);

    if (self_check) {
      const auto verdict = sws::obs::self_check(report);
      (verdict.ok ? std::cout : std::cerr)
          << "self-check: " << verdict.message << "\n";
      if (!verdict.ok) return 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "sws-analyze: " << e.what() << "\n";
    return 2;
  }
}

// pacbench: the measured benchmark's own program.  It links the
// repository's libraries and drives them through their public functions;
// perfbench/run.py runs it next to the real binaries (see NOTES.md).
//
//   pacbench info                              SIMD level and EM threads
//   pacbench gen SHAPE ROWS SEED OUT.pacb      seeded workload input
//   pacbench fit ...                           traced single-process fit
//   pacbench search ...                        traced in-process search
//   pacbench load ...                          open-loop predict generator
//   pacbench serve ...                         traced in-process server
//
// Every timed number here is taken from outside the library call it
// measures, with std::chrono::steady_clock; nothing inside the program is
// instrumented.
#pragma once
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pacbench {

int usage();
int run_gen(const std::vector<std::string>& args);
int run_fit(int argc, const char* const* argv);
int run_search(int argc, const char* const* argv);
int run_load(int argc, const char* const* argv);
int run_serve(int argc, const char* const* argv);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (mean of the middle pair for an even count); 0 if empty.
double median(std::vector<double> v);

/// A flat JSON object of numbers and number lists, written in insertion
/// order.  Doubles keep all 17 significant digits.
class Record {
 public:
  void num(const std::string& key, double value);
  void list(const std::string& key, const std::vector<double>& values);
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace pacbench

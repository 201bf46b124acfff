#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>

#include "pacbench.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace pacbench {

int usage() {
  std::cerr << "usage: pacbench info\n"
               "       pacbench gen SHAPE ROWS SEED OUT.pacb\n"
               "       pacbench fit|search|load|serve --flag value ...\n"
               "(perfbench/run.py drives every subcommand; see NOTES.md)\n";
  return 2;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::string format_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Record::num(const std::string& key, double value) {
  fields_.emplace_back(key, format_double(value));
}

void Record::list(const std::string& key, const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) s += ",";
    s += format_double(values[i]);
  }
  fields_.emplace_back(key, s + "]");
}

void Record::write(const std::string& path) const {
  std::ofstream out(path);
  PAC_REQUIRE_MSG(out.good(), "cannot write '" << path << "'");
  out << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i)
    out << (i ? ",\n " : "") << quote(fields_[i].first) << ": "
        << fields_[i].second;
  out << "}\n";
  PAC_REQUIRE_MSG(out.good(), "short write to '" << path << "'");
}

}  // namespace pacbench

int main(int argc, char** argv) {
  if (argc < 2) return pacbench::usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") {
      // The build's resolved dispatch level and EM thread count, for the
      // run manifest.
      std::cout << "simd " << pac::simd::to_string(pac::simd::level())
                << "\nem_threads " << pac::ThreadPool::resolve(0) << "\n";
      return 0;
    }
    if (cmd == "gen")
      return pacbench::run_gen(std::vector<std::string>(argv + 2, argv + argc));
    // The flag parser skips its argv[0]; hand it the subcommand name there.
    if (cmd == "fit") return pacbench::run_fit(argc - 1, argv + 1);
    if (cmd == "search") return pacbench::run_search(argc - 1, argv + 1);
    if (cmd == "load") return pacbench::run_load(argc - 1, argv + 1);
    if (cmd == "serve") return pacbench::run_serve(argc - 1, argv + 1);
    return pacbench::usage();
  } catch (const std::exception& e) {
    std::cerr << "pacbench " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}

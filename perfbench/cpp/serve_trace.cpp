// The serving layer's measurement: an open-loop predict generator (`load`)
// and a traced in-process server run (`serve`).
//
// The generator owns at most kConnections serve::Client connections.
// Request i of a rate step is due at step_start + i / rate whatever the
// server does; a free connection takes the next request, sleeps until it is
// due and sends it.  Each request's due, send and completion times and its
// outcome go to a CSV; perfbench/stats.py turns them into latency (from
// the due time) and lateness (send minus due).  Responses are checked
// against the reference labels of the same probe rows.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "autoclass/checkpoint.hpp"
#include "data/io.hpp"
#include "pacbench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace pacbench {

namespace {

using namespace pac;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kTemplates = 512;
constexpr std::size_t kBigRows = 64;
constexpr double kBigFraction = 0.1;  // share of kBigRows-row requests
constexpr std::size_t kWarmupRequests = 25;

/// Outcome codes written to the CSV (stats.py reads them).
enum Status : int { kOk = 0, kRefused = 1, kError = 2, kWrongLabels = 3 };

struct Template {
  data::Dataset rows;
  std::size_t offset = 0;  // first probe row
};

struct Sample {
  std::size_t step = 0;
  std::uint64_t index = 0;
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  int status = kOk;
  std::size_t rows = 0;
};

struct Plan {
  std::vector<double> rates;      // offered requests per second, per step
  std::vector<double> durations;  // seconds, per step
  std::uint64_t mix_seed = 1;
};

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

Plan read_plan(const Cli& cli) {
  Plan plan;
  plan.rates = parse_list(cli.get_string("rates", ""));
  plan.durations = parse_list(cli.get_string("durations", ""));
  plan.mix_seed = static_cast<std::uint64_t>(cli.get_int("mix-seed", 1));
  PAC_REQUIRE_MSG(!plan.rates.empty() &&
                      plan.rates.size() == plan.durations.size(),
                  "--rates and --durations need one entry per step");
  return plan;
}

std::vector<std::int32_t> read_labels(const std::string& path) {
  std::ifstream in(path);
  PAC_REQUIRE_MSG(in.good(), "cannot read '" << path << "'");
  std::vector<std::int32_t> labels;
  std::int32_t v = 0;
  while (in >> v) labels.push_back(v);
  return labels;
}

/// The seeded request mix: 1-row requests and a kBigFraction share of
/// kBigRows-row requests, each a slice of the probe rows.
std::vector<Template> make_templates(const data::Dataset& probe,
                                     const Plan& plan) {
  PAC_REQUIRE(probe.num_items() > kBigRows);
  Xoshiro256ss rng(plan.mix_seed);
  std::vector<Template> out;
  for (std::size_t k = 0; k < kTemplates; ++k) {
    const std::size_t size = uniform01(rng) < kBigFraction ? kBigRows : 1;
    const std::size_t offset = uniform_index(rng, probe.num_items() - size + 1);
    out.push_back(Template{probe.slice(offset, offset + size), offset});
  }
  return out;
}

bool labels_match(const std::vector<std::int32_t>& got,
                  const std::vector<std::int32_t>& ref, std::size_t offset) {
  return offset + got.size() <= ref.size() &&
         std::equal(got.begin(), got.end(), ref.begin() + offset);
}

/// Run every step of `plan` against the server at `address`.
std::vector<Sample> run_plan(const std::string& address,
                             const std::vector<Template>& templates,
                             const std::vector<std::int32_t>& ref,
                             const Plan& plan) {
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t c = 0; c < kConnections; ++c)
    clients.push_back(std::make_unique<serve::Client>(address, 10.0));

  // Warm-up, not recorded: every connection's first requests pay for
  // lazy set-up on both sides.
  for (std::size_t c = 0; c < kConnections; ++c)
    for (std::size_t k = 0; k < kWarmupRequests; ++k)
      clients[c]->predict(templates[k % templates.size()].rows, false);

  std::vector<Sample> all;
  for (std::size_t step = 0; step < plan.rates.size(); ++step) {
    const double interval = 1.0 / plan.rates[step];
    const auto count = static_cast<std::uint64_t>(
        std::max(1.0, plan.rates[step] * plan.durations[step]));
    std::atomic<std::uint64_t> next{0};
    std::vector<std::vector<Sample>> per(kConnections);
    const double start = now_s() + 0.01;
    const auto worker = [&](std::size_t c) {
      for (std::uint64_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        const double due = start + static_cast<double>(i) * interval;
        const double wait = due - now_s();
        if (wait > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        const Template& tp = templates[i % templates.size()];
        Sample s{step, i, due - start, now_s() - start, 0.0, kOk,
                 tp.rows.num_items()};
        try {
          const serve::PredictResponse resp = clients[c]->predict(tp.rows, false);
          if (!labels_match(resp.labels, ref, tp.offset)) s.status = kWrongLabels;
        } catch (const serve::ServeError&) {
          s.status = kRefused;  // e.g. "server busy"
        } catch (const std::exception&) {
          s.status = kError;
          try {  // the connection is gone; later requests get a fresh one
            clients[c] = std::make_unique<serve::Client>(address, 1.0);
          } catch (const std::exception&) {
          }
        }
        s.done = now_s() - start;
        per[c].push_back(s);
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c)
      threads.emplace_back(worker, c);
    for (std::thread& t : threads) t.join();
    for (const auto& samples : per)
      all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

void write_samples(const std::string& path, const Plan& plan,
                   const std::vector<Sample>& samples) {
  std::ofstream out(path);
  PAC_REQUIRE_MSG(out.good(), "cannot write '" << path << "'");
  out << "step,rate,index,due,sent,done,status,rows\n";
  out.precision(17);
  for (const Sample& s : samples)
    out << s.step << "," << plan.rates[s.step] << "," << s.index << ","
        << s.due << "," << s.sent << "," << s.done << "," << s.status << ","
        << s.rows << "\n";
  PAC_REQUIRE_MSG(out.good(), "short write to '" << path << "'");
}

}  // namespace

int run_load(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  const std::string address = cli.get_string("connect", "");
  const std::string out = cli.get_string("out", "");
  if (address.empty() || out.empty()) return usage();
  const Plan plan = read_plan(cli);
  const data::Dataset probe = data::open_dataset(cli.get_string("probe", ""));
  const std::vector<Template> templates = make_templates(probe, plan);
  const std::vector<std::int32_t> ref =
      read_labels(cli.get_string("ref-labels", ""));
  write_samples(out, plan, run_plan(address, templates, ref, plan));
  return 0;
}

int run_serve(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  const std::string checkpoint = cli.get_string("checkpoint", "");
  const std::string out_json = cli.get_string("out", "");
  const std::string out_csv = cli.get_string("samples", "");
  if (checkpoint.empty() || out_json.empty() || out_csv.empty()) return usage();
  const Plan plan = read_plan(cli);
  Record rec;

  // Set-up as pac_serve does it: data, model, checkpoint.
  const data::Dataset dataset = data::open_dataset(cli.get_string("data", ""));
  const ac::Model model = ac::Model::default_model(dataset);
  ac::SearchResult loaded = ac::load_search_result_file(checkpoint, model);
  PAC_REQUIRE_MSG(!loaded.best.empty(), "empty leaderboard in checkpoint");
  const ac::Classification& served = loaded.best.front().classification;

  // The predict kernel alone, on one kBigRows-row request.
  const data::Dataset probe = data::open_dataset(cli.get_string("probe", ""));
  const data::Dataset batch = probe.slice(0, kBigRows);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    const double start = now_s();
    const serve::PredictOutput p = serve::predict_batch(served, batch, false);
    samples.push_back(now_s() - start);
    PAC_CHECK(p.labels.size() == kBigRows);
  }
  rec.num("serve.predict_batch_s", median(samples));

  // The load plan against an in-process server with pac_serve's defaults.
  const std::vector<Template> templates = make_templates(probe, plan);
  const std::vector<std::int32_t> ref =
      read_labels(cli.get_string("ref-labels", ""));
  serve::ServerOptions opts;
  serve::Server server(model, served, opts);
  server.start();
  const std::vector<Sample> result =
      run_plan(server.bound_address(), templates, ref, plan);
  server.stop();
  write_samples(out_csv, plan, result);

  const metrics::Registry& m = server.metrics();
  const metrics::Histogram* request = m.find_histogram("serve.request_seconds");
  const metrics::Histogram* batch_rows = m.find_histogram("serve.batch_rows");
  const metrics::Histogram* depth = m.find_histogram("serve.queue_depth_rows");
  PAC_CHECK(request != nullptr && batch_rows != nullptr && depth != nullptr);
  rec.num("serve.request_s_p50", request->quantile(0.5));
  rec.num("serve.request_s_p99", request->quantile(0.99));
  rec.num("serve.batch_rows_mean", batch_rows->mean());
  rec.num("serve.queue_depth_rows_mean", depth->mean());
  rec.num("serve.busy_rejections",
          static_cast<double>(server.busy_rejections()));
  rec.write(out_json);
  return 0;
}

}  // namespace pacbench

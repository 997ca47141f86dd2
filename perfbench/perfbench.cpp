// perfbench: the repository's end-to-end benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Four workloads drive the public entry points (README.md in this
// directory explains why each exists and how every metric is defined):
//
//   serve-mlp    serve::Runtime, behavioural backend, Table-I MLP + SpinDrop
//   cascade-ood  serve::Runtime, cascade backend (behavioural -> tiled rung)
//   eval-cnn     core::evaluate on the Table-I CNN + SpinScaleDropout
//   train-cnn    train::Trainer on the same CNN, sharded over two workers
//
// --trace 0 measures the named workload untraced and prints the end-to-end
// metrics. --trace 1 prints the per-layer metrics instead: it runs the
// named workload untraced and traced (for the tracing overhead), then a
// traced pass of every workload, with spans recorded here, around the
// calls into each layer; nothing inside the library is instrumented for
// it. Per-layer numbers are span self-times.
//
// The model, the datasets and the request payloads are fixed; --seed
// draws the traffic (the order in which payloads are requested or batches
// evaluated). Quality metrics are therefore identical on every run, and a
// change in them is a correctness signal, not noise.
//
// Every run checks its outputs: answers to a replayed payload must repeat
// bit for bit, a sample of served requests must match an offline
// batch-of-one replay, evaluation must be thread-count invariant and
// training must be worker-count invariant and repeatable. A mismatch or an
// exception counts as a failed operation and the run exits non-zero.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bayesian.h"
#include "core/census.h"
#include "core/fidelity.h"
#include "core/models.h"
#include "core/pipeline.h"
#include "core/uncertainty.h"
#include "data/ood.h"
#include "data/strokes.h"
#include "energy/accountant.h"
#include "nn/model.h"
#include "nn/simd.h"
#include "obs/trace.h"
#include "serve/backend.h"
#include "serve/runtime.h"
#include "train/trainer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace neuspin;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- settings

constexpr std::size_t kMcSamples = 20;      // T for every workload
constexpr std::size_t kMaxBatch = 16;       // serve batcher max_batch
constexpr std::size_t kInFlight = 16;       // closed-loop window == max_batch
constexpr std::size_t kServeWorkers = 2;    // + the client thread = 3 busy
constexpr std::size_t kEvalThreads = 2;
constexpr std::size_t kEvalBatch = 16;
constexpr std::size_t kTrainBatch = 32;
constexpr std::size_t kTrainShards = 2;
constexpr double kDropoutP = 0.15;
constexpr std::size_t kSetupRepeats = 5;
// The cascade gate escalates the most uncertain 15% of held-out digits, so
// the escalated requests (not the boundary between the modes) set p90.
constexpr double kGateQuantile = 0.85;
constexpr double kWindowSeconds = 1.0;      // sampling window of a timed phase
constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 18;
// Steal shares are counted in ticks (0.25% of a 1 s window on 4 CPUs). A
// slope between windows closer than kMinStealStep is mostly noise, and
// below a kMinStealSpan spread across the windows no slope is fitted.
constexpr double kMinStealStep = 0.01;
constexpr double kMinStealSpan = 0.02;
constexpr double kMaxPhaseSeconds = 60.0;   // hard stop for an unfinished cycle

// Fixed construction seeds: the system under test never depends on --seed.
constexpr std::uint64_t kMlpSeed = 42;
constexpr std::uint64_t kCnnSeed = 43;
constexpr std::uint64_t kRequestSeedBase = 0x7065726662656e63ull;
constexpr std::uint64_t kEvalSeedBase = 0x6576616c636e6eull;

constexpr std::size_t kServePool = 256;     // 224 digits + 32 noise (1 in 8)
constexpr std::size_t kOodEvery = 8;
constexpr std::size_t kReplaySample = 8;    // served requests replayed offline
constexpr std::size_t kEvalBatches = 16;    // 256 labelled test images
constexpr std::size_t kTrainExamples = 320; // 10 steps of 32 per round

const std::vector<std::string> kWorkloads = {"serve-mlp", "cascade-ood", "eval-cnn",
                                             "train-cnn"};

// ------------------------------------------------------------------ helpers

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Linearly interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::vector<float> row_of(const nn::Dataset& data, std::size_t i) {
  const nn::Tensor x = data.batch(i, i + 1).first;
  return {x.data().begin(), x.data().end()};
}

nn::Tensor stack_rows(const std::vector<std::vector<float>>& rows) {
  nn::Tensor out({rows.size(), rows.front().size()});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(),
              out.data().begin() + static_cast<std::ptrdiff_t>(r * rows[r].size()));
  }
  return out;
}

/// The traffic of a run: cycles over the indices [0, n) of a fixed input
/// pool, each cycle in a fresh order drawn from the run's seed, so every
/// input is used once per cycle and no batch composition repeats.
class Traffic {
 public:
  Traffic(std::size_t n, std::uint64_t seed, std::uint64_t salt)
      : engine_(nn::mix_seed(seed, salt)), order_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      order_[i] = i;
    }
  }
  std::size_t next() {
    if (cursor_ == 0) {
      std::shuffle(order_.begin(), order_.end(), engine_);
    }
    const std::size_t i = order_[cursor_];
    cursor_ = (cursor_ + 1) % order_.size();
    return i;
  }

 private:
  std::mt19937_64 engine_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

/// FNV-1a over every parameter and persistent state tensor of a network.
std::uint64_t weights_digest(nn::Sequential& net) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](const nn::Tensor& t) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data().data());
    for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  for (const nn::ParamRef& p : net.parameters()) {
    fold(*p.value);
  }
  for (const nn::Tensor* s : net.state_tensors()) {
    fold(*s);
  }
  return h;
}

/// Span and metric name of layer `i`: `<prefix><i>.<Layer>`.
std::string layer_name(const std::string& prefix, const nn::Sequential& net, std::size_t i) {
  return prefix + std::to_string(i) + "." + net.layer(i).name();
}

// ------------------------------------------------------------ bookkeeping

/// Operations attempted and failed, with the first few failure messages.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(what);
    }
  }
  /// A check outside the timed operations: counted as one failed operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      fail(what);
    }
  }
};

/// The machine's CPU ticks since boot, summed over all CPUs (/proc/stat):
/// {ticks stolen by the hypervisor, all ticks}.
std::pair<double, double> steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return {0.0, 0.0};
  }
  char label[16] = {};
  double v[8] = {};
  const int got = std::fscanf(f, "%15s %lf %lf %lf %lf %lf %lf %lf %lf", label, &v[0], &v[1],
                              &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 9) {
    return {0.0, 0.0};
  }
  double total = 0.0;
  for (const double x : v) {
    total += x;
  }
  return {v[7], total};
}

/// Theil-Sen fit of `y` against `x` (the median of the slopes between
/// pairs at least kMinStealStep apart in `x`), evaluated at x = 0. When `x`
/// spans less than kMinStealSpan the slope is not resolved and the
/// estimate is the median of `y`.
double at_zero(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.empty() || *std::max_element(x.begin(), x.end()) -
                           *std::min_element(x.begin(), x.end()) < kMinStealSpan) {
    return median(y);
  }
  std::vector<double> slopes;
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = i + 1; j < x.size(); ++j) {
      if (std::abs(x[j] - x[i]) >= kMinStealStep) {
        slopes.push_back((y[j] - y[i]) / (x[j] - x[i]));
      }
    }
  }
  const double slope = slopes.empty() ? 0.0 : median(std::move(slopes));
  std::vector<double> intercepts;
  for (std::size_t i = 0; i < x.size(); ++i) {
    intercepts.push_back(y[i] - slope * x[i]);
  }
  return median(std::move(intercepts));
}

/// Wall time, process CPU time, operations and per-operation latencies of
/// a timed phase, sampled in windows of kWindowSeconds.
///
/// Every reported figure is estimated at zero steal: each window records
/// the share of the machine's CPU time the hypervisor stole, and a robust
/// line through the per-window figures against that share is read off
/// where the share is zero. On a shared host, windows in which neighbours
/// take the cores run measurably slower (20-40% at 10% steal); the fit
/// keeps them from moving the result while still using every window.
class Phase {
 public:
  Phase() { open_ = mark(); }

  /// Record `n` completed operations (and the latency of the call that
  /// completed them); closes the window when it is due.
  void add(std::size_t n, double latency_us = -1.0) {
    ops_ += n;
    if (latency_us >= 0.0) {
      const Sample sample{static_cast<float>(latency_us),
                          static_cast<std::uint32_t>(windows_.size())};
      std::size_t slot = seen_++;
      if (slot >= samples_.size()) {
        slot = std::uniform_int_distribution<std::size_t>(0, slot)(reservoir_);
      }
      if (slot < samples_.size()) {
        samples_[slot] = sample;
      }
    }
    if (seconds_since(open_.wall) >= kWindowSeconds) {
      close(mark());
    }
  }

  /// Operations per wall second.
  [[nodiscard]] double throughput() const {
    return fit([](const Window& w) { return static_cast<double>(w.ops) / w.seconds; });
  }
  /// Process CPU time (user + system) per operation.
  [[nodiscard]] double cpu_us_per_op() const {
    return fit([](const Window& w) { return 1e6 * w.cpu_seconds / static_cast<double>(w.ops); });
  }
  /// Latency quantile `q` of the calls completed in each window.
  [[nodiscard]] double latency(double q) const {
    std::vector<std::vector<double>> per_window(windows_.size());
    for (std::size_t i = 0; i < std::min(seen_, samples_.size()); ++i) {
      if (samples_[i].window < windows_.size()) {
        per_window[samples_[i].window].push_back(samples_[i].us);
      }
    }
    std::vector<double> steal, y;
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      if (!per_window[w].empty()) {
        steal.push_back(windows_[w].steal_share);
        y.push_back(quantile(std::move(per_window[w]), q));
      }
    }
    return at_zero(steal, y);
  }

 private:
  struct Window {
    double seconds = 0.0;
    std::size_t ops = 0;
    double cpu_seconds = 0.0;
    double steal_share = 0.0;
  };
  struct Mark {
    Clock::time_point wall;
    double cpu = 0.0;
    std::size_t ops = 0;
    std::pair<double, double> steal;
  };
  /// One latency and the window it completed in.
  struct Sample {
    float us = 0.0f;
    std::uint32_t window = 0;
  };

  [[nodiscard]] Mark mark() const { return {Clock::now(), cpu_seconds(), ops_, steal_ticks()}; }

  void close(const Mark& now) {
    Window w;
    w.seconds = std::chrono::duration<double>(now.wall - open_.wall).count();
    w.ops = now.ops - open_.ops;
    w.cpu_seconds = now.cpu - open_.cpu;
    const double total = now.steal.second - open_.steal.second;
    w.steal_share = total > 0.0 ? (now.steal.first - open_.steal.first) / total : 0.0;
    windows_.push_back(w);
    open_ = now;
  }

  template <typename F>
  [[nodiscard]] double fit(F figure) const {
    std::vector<double> steal, y;
    for (const Window& w : windows_) {
      if (w.ops > 0) {
        steal.push_back(w.steal_share);
        y.push_back(figure(w));
      }
    }
    return at_zero(steal, y);
  }

  std::size_t ops_ = 0;
  Mark open_;
  std::vector<Window> windows_;
  // A fixed-size latency reservoir (algorithm R), allocated and touched up
  // front: the harness's memory does not grow with throughput, so
  // peak_rss_mb does not either. Calls completing in the unfinished last
  // window carry its index and drop out of the figures with it.
  std::vector<Sample> samples_ = std::vector<Sample>(kMaxLatencySamples);
  std::size_t seen_ = 0;
  std::mt19937_64 reservoir_{0x5eed};
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

void put(Metrics& m, const std::string& name, double value, const std::string& unit) {
  m[name] = {value, unit};
}

/// Self time of every recorded span, grouped by name: the span's duration
/// minus the durations of its direct children on the same track.
std::map<std::string, std::vector<double>> self_times(const obs::Tracer& tracer) {
  std::vector<obs::SpanRecord> spans = tracer.spans();
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.track != b.track) {
      return a.track < b.track;
    }
    if (a.begin_us != b.begin_us) {
      return a.begin_us < b.begin_us;
    }
    return a.end_us > b.end_us;  // the enclosing span first
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // enclosing spans of the current one
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].track != spans[i - 1].track) {
      open.clear();
    }
    while (!open.empty() && spans[open.back()].end_us <= spans[i].begin_us) {
      open.pop_back();
    }
    self[i] = spans[i].end_us - spans[i].begin_us;
    if (!open.empty()) {
      self[open.back()] -= self[i];
    }
    open.push_back(i);
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(self[i]);
  }
  return out;
}


/// Record one completed span (no-op without a tracer). Track 0 is the
/// calling thread.
void record_span(obs::Tracer* tracer, const std::string& name, Clock::time_point begin,
                 Clock::time_point end, std::uint64_t track = 0) {
  if (tracer == nullptr) {
    return;
  }
  obs::SpanRecord span;
  span.name = name;
  span.category = "perfbench";
  span.begin_us = tracer->to_us(begin);
  span.end_us = tracer->to_us(end);
  span.track = track;
  tracer->record(std::move(span));
}

std::vector<double> durations(const obs::Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == name) {
      out.push_back(s.end_us - s.begin_us);
    }
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

/// Census-priced energy of one T-pass inference of `model`, picojoules —
/// the same pricing the behavioural serving backend attributes.
double census_energy_pj(const core::BuiltModel& model) {
  core::CensusConfig census;
  census.mc_passes = kMcSamples;
  return core::inference_census(model.arch, model.method, census)
      .total_energy(energy::default_energy_params());
}

core::EvalOptions eval_options(std::size_t batch, std::size_t threads) {
  core::EvalOptions options;
  options.mc_samples = kMcSamples;
  options.batch_size = kEvalBatch;
  options.threads = threads;
  options.seed = nn::mix_seed(kEvalSeedBase, batch);
  return options;
}

bool same_result(const core::EvalResult& a, const core::EvalResult& b) {
  const float x[] = {a.accuracy, a.nll, a.ece, a.brier, a.mean_entropy};
  const float y[] = {b.accuracy, b.nll, b.ece, b.brier, b.mean_entropy};
  return same_bits(x, y);
}

/// Layer-by-layer forward of `net` with one span per layer inside an
/// enclosing `<prefix>forward` span. The spans are recorded after the
/// pass, so the bookkeeping stays out of the timed interval; every span
/// edge is its own clock reading, so no two spans share an endpoint.
/// Returns the final activations.
nn::Tensor traced_layers(nn::Sequential& net, const nn::Tensor& input,
                         const std::string& prefix, obs::Tracer* tracer) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> layers(net.size());
  const auto begin = Clock::now();
  nn::Tensor x = input;
  for (std::size_t i = 0; i < net.size(); ++i) {
    layers[i].first = Clock::now();
    x = net.layer(i).forward(x, /*training=*/false);
    layers[i].second = Clock::now();
  }
  record_span(tracer, prefix + "forward", begin, Clock::now());
  for (std::size_t i = 0; i < net.size(); ++i) {
    record_span(tracer, layer_name(prefix, net, i), layers[i].first, layers[i].second);
  }
  return x;
}

/// Per-layer `_us` (median self time per pass) and `_share` (of the median
/// enclosing forward span) metrics, plus the span coverage: the summed
/// layer medians over the median forward span. Medians keep a pass that
/// the tracer's own bookkeeping interrupted out of the figures.
void layer_metrics(const nn::Sequential& net, const std::string& prefix,
                   const obs::Tracer& tracer, Metrics& m, Tally& tally) {
  const auto self = self_times(tracer);
  const double forward = median(durations(tracer, prefix + "forward"));
  double layers = 0.0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const std::string name = layer_name(prefix, net, i);
    const auto it = self.find(name);
    if (it == self.end() || forward <= 0.0) {
      tally.fail("no spans for " + name);
      continue;
    }
    const double us = median(it->second);
    layers += us;
    put(m, name + "_us", us, "us");
    put(m, name + "_share", us / forward, "ratio");
  }
  const double coverage = forward > 0.0 ? layers / forward : 0.0;
  put(m, prefix + "span_coverage", coverage, "ratio");
  tally.check(coverage >= 0.9 && coverage <= 1.1,
              prefix + "forward: layer self times sum to " + std::to_string(coverage) +
                  " of the forward span (want within 10%)");
}

// ---------------------------------------------------------------- workloads

/// Per-request trace tracks, unique across the workloads of a traced run.
std::uint64_t g_request_track = 0;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Timed operations for `seconds` (longer when the first pass over the
  /// fixed inputs is unfinished). Spans go to `tracer` when it is set.
  virtual void run(Phase& phase, double seconds, Tally& tally, obs::Tracer* tracer) = 0;
  /// accuracy, energy_uj_per_req and ood_auroc.
  virtual void quality(Metrics& m, Tally& tally) = 0;
  /// Output checks that run outside the timed operations.
  virtual void verify(Tally& tally) = 0;
  /// Per-layer metrics from the spans of traced runs, after any layer
  /// probes of this workload (which record into `tracer`).
  virtual void layers(Metrics& m, obs::Tracer& tracer, Tally& tally) = 0;
};

// -- serve-mlp / cascade-ood ------------------------------------------------

/// A served answer, kept per payload so every later answer to the same
/// payload can be compared bit for bit.
struct Answer {
  std::vector<float> probs;
  float entropy = 0.0f;
  float mutual_info = 0.0f;
  std::size_t predicted = 0;
  double energy_pj = 0.0;
  bool escalated = false;
};

bool same_answer(const Answer& a, const Answer& b) {
  const float x[] = {a.entropy, a.mutual_info};
  const float y[] = {b.entropy, b.mutual_info};
  return same_bits(a.probs, b.probs) && same_bits(x, y) && a.predicted == b.predicted &&
         same_bits(a.energy_pj, b.energy_pj) && a.escalated == b.escalated;
}

bool same_prediction(const Answer& a, const core::Prediction& p) {
  const float x[] = {a.entropy, a.mutual_info};
  const float y[] = {p.entropy.front(), p.mutual_info.front()};
  return same_bits(a.probs, p.mean_probs.data()) && same_bits(x, y);
}

class ServeWorkload : public Workload {
 public:
  ServeWorkload(bool cascade, std::uint64_t seed)
      : cascade_(cascade),
        prefix_(cascade ? "serve.cascade." : "serve.mlp."),
        traffic_(kServePool, seed, cascade ? 2 : 1) {
    build_data();
    core::ModelConfig mc;
    mc.method = core::Method::kSpinDrop;
    mc.seed = kMlpSeed;
    mc.dropout_p = kDropoutP;
    model_ = core::make_binary_mlp(mc, 256, {128, 128}, 10);
    core::FitConfig fc;
    fc.epochs = 6;
    fc.shards = kTrainShards;
    fc.workers = kTrainShards;
    (void)core::fit(model_, train_, fc);

    for (std::size_t j = 0; j < pool_.size(); ++j) {
      seeds_.push_back(nn::mix_seed(kRequestSeedBase, j));
    }
    first_.assign(pool_.size(), std::nullopt);
    census_pj_ = census_energy_pj(model_);

    config_.workers = kServeWorkers;
    config_.mc_samples = kMcSamples;
    config_.batcher.max_batch = kMaxBatch;
    if (cascade_) {
      config_.backend = serve::Backend::kCascade;
      config_.spindrop_p = kDropoutP;  // the model's own dropout probability
      config_.cascade.entropy_threshold = calibrate_gate();
    }
    runtime_ = std::make_unique<serve::Runtime>(model_, config_);

    // Warm-up: the first requests pay for lazy allocations and cold caches.
    Tally warm;
    Phase phase;
    loop(phase, 0.0, 4 * kInFlight, warm, nullptr);
    if (warm.failed > 0) {
      throw std::runtime_error("warm-up failed: " + warm.errors.front());
    }
  }

  void run(Phase& phase, double seconds, Tally& tally, obs::Tracer* tracer) override {
    queue_us_.clear();
    compute_us_.clear();
    batch_sizes_.clear();
    loop(phase, seconds, 0, tally, tracer);
  }

  void quality(Metrics& m, Tally& tally) override {
    std::vector<float> entropy;
    std::vector<bool> is_ood;
    std::size_t labelled = 0, hits = 0;
    double energy = 0.0;
    for (std::size_t j = 0; j < pool_.size(); ++j) {
      if (!first_[j]) {
        tally.fail("payload " + std::to_string(j) + " was never answered");
        return;
      }
      entropy.push_back(first_[j]->entropy);
      is_ood.push_back(ood_[j] != 0);
      energy += first_[j]->energy_pj;
      if (ood_[j] == 0) {
        ++labelled;
        hits += first_[j]->predicted == labels_[j] ? 1 : 0;
      }
    }
    put(m, "accuracy", static_cast<double>(hits) / static_cast<double>(labelled), "ratio");
    put(m, "energy_uj_per_req", energy * 1e-6 / static_cast<double>(pool_.size()), "uJ");
    put(m, "ood_auroc", core::auroc(entropy, is_ood), "ratio");
  }

  void verify(Tally& tally) override {
    // Offline replay of a fixed sample (half digits, half noise) through
    // the batch-of-one McPredictor at the served request seed.
    core::BuiltModel replica = model_.clone();
    replica.enable_mc(true);
    std::unique_ptr<core::TiledBackend> tiled;
    const std::size_t stride = pool_.size() / kReplaySample;
    for (std::size_t k = 0; k < kReplaySample; ++k) {
      const std::size_t j = k * stride + (k % 2 == 0 ? 0 : 3);
      const std::string what = name() + " replay of payload " + std::to_string(j);
      if (!first_[j]) {
        tally.check(false, what + ": never served");
        continue;
      }
      const Answer& served = *first_[j];
      const nn::Tensor x({1, pool_[j].size()}, pool_[j]);
      const core::Prediction p = core::McPredictor(kMcSamples, seeds_[j])
          .predict(x, core::McPredictor::SeededForward(
                          [&replica](const nn::Tensor& in, std::uint64_t pass_seed) {
                            replica.reseed_stochastic(pass_seed);
                            return replica.stochastic_logits(in);
                          }));
      const bool escalate =
          cascade_ && serve::should_escalate(config_.cascade, p.entropy.front(), 1.0);
      if (escalate != served.escalated) {
        tally.check(false, what + ": escalation decision differs");
        continue;
      }
      if (!escalate) {
        tally.check(same_prediction(served, p) && same_bits(served.energy_pj, census_pj_),
                    what + ": differs from the behavioural batch-of-one replay");
        continue;
      }
      if (!tiled) {
        tiled = make_tiled();
      }
      const std::uint64_t seed = seeds_[j];
      const core::BackendBatch up = tiled->forward(x, std::span(&seed, 1), nullptr);
      tally.check(same_prediction(served, up.predictions.front()) &&
                      same_bits(served.energy_pj, census_pj_ + up.energy_pj.front()),
                  what + ": differs from the tiled batch-of-one replay");
    }
  }

  void layers(Metrics& m, obs::Tracer& tracer, Tally& tally) override {
    put(m, prefix_ + "submit_us", median(durations(tracer, prefix_ + "submit")), "us");
    put(m, prefix_ + "queue_us", median(queue_us_), "us");
    put(m, prefix_ + "compute_us", median(compute_us_), "us");
    put(m, prefix_ + "batch_size", mean(batch_sizes_), "count");
    if (cascade_) {
      probe_cascade(m, tracer, tally);
    } else {
      probe_mlp(m, tracer, tally);
    }
  }

 private:
  [[nodiscard]] std::string name() const { return cascade_ ? "cascade-ood" : "serve-mlp"; }

  /// Table-I MLP data: stroke digits (flattened 16x16, standardized) for
  /// training and gate calibration, and a request pool of 256 payloads
  /// where one in eight is uniform noise.
  void build_data() {
    data::StrokeConfig sc;
    sc.samples_per_class = 100;
    train_ = data::standardize_per_sample(data::make_stroke_digits_flat(sc, 7));
    sc.samples_per_class = 8;
    calib_ = data::standardize_per_sample(data::make_stroke_digits_flat(sc, 5));
    sc.samples_per_class = 23;
    const nn::Dataset digits =
        data::standardize_per_sample(data::make_stroke_digits_flat(sc, 3));
    const std::size_t noise_count = kServePool / kOodEvery;
    sc.samples_per_class = noise_count / 10 + 1;
    const nn::Dataset noise_images = data::make_ood(
        data::make_stroke_digits(sc, 3), data::OodKind::kUniformNoise, noise_count, 99);
    const nn::Dataset noise = data::standardize_per_sample(nn::Dataset{
        noise_images.inputs.reshaped({noise_count, 256}), noise_images.labels});
    std::size_t next_digit = 0, next_noise = 0;
    for (std::size_t j = 0; j < kServePool; ++j) {
      const bool is_noise = j % kOodEvery == 3;
      const nn::Dataset& src = is_noise ? noise : digits;
      const std::size_t row = is_noise ? next_noise++ : next_digit++;
      pool_.push_back(row_of(src, row));
      labels_.push_back(is_noise ? 0 : src.labels[row]);
      ood_.push_back(is_noise ? 1 : 0);
    }
  }

  /// Entropy gate at the kGateQuantile quantile of the behavioural rung's
  /// entropies on held-out digits.
  double calibrate_gate() {
    core::BehavioralBackendConfig bc;
    bc.mc_samples = kMcSamples;
    core::BehavioralBackend cheap(model_, bc);
    std::vector<std::uint64_t> seeds(calib_.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      seeds[i] = nn::mix_seed(kRequestSeedBase ^ 0xca11b, i);
    }
    const core::BackendBatch out = cheap.forward(calib_.inputs, seeds, nullptr);
    std::vector<double> entropy;
    for (const core::Prediction& p : out.predictions) {
      entropy.push_back(p.entropy.front());
    }
    return quantile(entropy, kGateQuantile);
  }

  std::unique_ptr<core::TiledBackend> make_tiled() const {
    core::TiledBackendConfig tc;
    tc.tile = config_.tile;
    tc.tile_seed = config_.tile_seed;
    tc.mc_samples = kMcSamples;
    tc.spindrop_p = config_.spindrop_p;
    core::BuiltModel staging = model_.clone();
    return std::make_unique<core::TiledBackend>(staging.net, tc);
  }

  /// Closed loop: one client keeps kInFlight requests in flight, sending
  /// the next payload of the seeded order whenever the oldest completes.
  /// Stops after `max_requests` (when nonzero), or once `seconds` passed
  /// and every payload has been answered at least once.
  void loop(Phase& phase, double seconds, std::size_t max_requests, Tally& tally,
            obs::Tracer* tracer) {
    struct Pending {
      std::future<serve::ServedPrediction> future;
      std::size_t payload = 0;
      Clock::time_point sent, submitted;
    };
    std::deque<Pending> window;
    std::size_t requests = 0;
    bool stop = false;
    const auto start = Clock::now();
    while (!stop || !window.empty()) {
      while (!stop && window.size() < kInFlight) {
        Pending p;
        p.payload = traffic_.next();
        p.sent = Clock::now();
        p.future = runtime_->submit(pool_[p.payload], seeds_[p.payload]);
        p.submitted = Clock::now();
        window.push_back(std::move(p));
      }
      Pending p = std::move(window.front());
      window.pop_front();
      ++tally.attempted;
      ++requests;
      double latency = -1.0;
      try {
        const serve::ServedPrediction r = p.future.get();
        const auto done = Clock::now();
        latency = micros(p.sent, done);
        const Answer a{r.probs,     r.entropy,   r.mutual_info, r.predicted_class,
                       r.energy_pj, r.escalated};
        std::optional<Answer>& first = first_[p.payload];
        if (!first) {
          first = a;
          ++answered_;
        } else if (!same_answer(*first, a)) {
          tally.fail(name() + ": payload " + std::to_string(p.payload) +
                     " answered differently on replay");
        }
        if (tracer != nullptr) {
          queue_us_.push_back(r.queue_latency_us);
          compute_us_.push_back(r.compute_latency_us);
          batch_sizes_.push_back(static_cast<double>(r.batch_size));
          const std::uint64_t track = obs::Tracer::kRequestTrackBase + g_request_track++;
          record_span(tracer, prefix_ + "request", p.sent, done, track);
          record_span(tracer, prefix_ + "submit", p.sent, p.submitted, track);
        }
      } catch (const std::exception& e) {
        tally.fail(name() + ": request failed: " + e.what());
      }
      phase.add(1, latency);
      const double elapsed = seconds_since(start);
      if (max_requests > 0) {
        stop = requests + window.size() >= max_requests;
      } else if (elapsed >= seconds && answered_ == pool_.size()) {
        stop = true;
      } else if (elapsed >= kMaxPhaseSeconds) {
        tally.fail(name() + ": the request pool was not served within the phase limit");
        stop = true;
      }
    }
  }

  /// The fused MC forward and the stacked forward layer by layer, on the
  /// first 16 digit payloads (320 stacked rows at T=20).
  void probe_mlp(Metrics& m, obs::Tracer& tracer, Tally& tally) {
    std::vector<std::size_t> picked;
    for (std::size_t j = 0; j < pool_.size() && picked.size() < kMaxBatch; ++j) {
      if (ood_[j] == 0) {
        picked.push_back(j);
      }
    }
    std::vector<std::vector<float>> rows;
    std::vector<std::uint64_t> seeds;
    for (const std::size_t j : picked) {
      rows.push_back(pool_[j]);
      seeds.push_back(seeds_[j]);
    }
    const nn::Tensor inputs = stack_rows(rows);

    core::BuiltModel fused = model_.clone();
    fused.enable_mc(true);
    constexpr std::size_t kPasses = 20;
    for (std::size_t it = 0; it < kPasses; ++it) {
      const auto t0 = Clock::now();
      const std::vector<core::Prediction> preds =
          core::predict_fused_batch(fused, inputs, seeds, kMcSamples);
      record_span(&tracer, "core.fused_forward", t0, Clock::now());
      if (it == 0) {
        bool ok = true;
        for (std::size_t b = 0; b < picked.size(); ++b) {
          ok = ok && first_[picked[b]] && same_prediction(*first_[picked[b]], preds[b]);
        }
        tally.check(ok, "core::predict_fused_batch differs from the served answers");
      }
    }
    put(m, "core.fused_forward_us", median(durations(tracer, "core.fused_forward")), "us");

    // The stacked input of predict_fused_batch: row b*T + t is payload b
    // under pass t's stream.
    const std::size_t features = rows.front().size();
    const std::size_t stacked_rows = picked.size() * kMcSamples;
    nn::Tensor stacked({stacked_rows, features});
    std::vector<std::uint64_t> row_seeds(stacked_rows);
    for (std::size_t b = 0; b < picked.size(); ++b) {
      for (std::size_t t = 0; t < kMcSamples; ++t) {
        std::copy(rows[b].begin(), rows[b].end(),
                  stacked.data().begin() +
                      static_cast<std::ptrdiff_t>((b * kMcSamples + t) * features));
        row_seeds[b * kMcSamples + t] = nn::mix_seed(seeds[b], t);
      }
    }
    core::BuiltModel reference = model_.clone();
    reference.enable_mc(true);
    const nn::Tensor expected = reference.stochastic_logits_rows(stacked, row_seeds);

    core::BuiltModel layered = model_.clone();
    layered.enable_mc(true);
    nn::Sequential& net = layered.net;
    // Untraced pass: the duplicate-row census at each layer's input, and
    // the layer-by-layer result against the whole-network forward.
    net.reseed_rows(row_seeds);
    nn::Tensor x = stacked;
    for (std::size_t i = 0; i < net.size(); ++i) {
      const std::size_t width = x.numel() / stacked_rows;
      std::size_t dup = 0;
      for (std::size_t b = 0; b < picked.size(); ++b) {
        for (std::size_t t = 1; t < kMcSamples; ++t) {
          const std::size_t r = b * kMcSamples + t;
          dup += same_bits(x.data().subspan(r * width, width),
                           x.data().subspan((r - 1) * width, width))
                     ? 1
                     : 0;
        }
      }
      put(m, layer_name("nn.mlp.", net, i) + "_dup_share",
          static_cast<double>(dup) / static_cast<double>(picked.size() * (kMcSamples - 1)),
          "ratio");
      x = net.layer(i).forward(x, /*training=*/false);
    }
    tally.check(same_bits(x.data(), expected.data()),
                "layer-by-layer MLP forward differs from Sequential::forward");
    for (std::size_t it = 0; it < kPasses; ++it) {
      net.reseed_rows(row_seeds);
      (void)traced_layers(net, stacked, "nn.mlp.", &tracer);
    }
    layer_metrics(net, "nn.mlp.", tracer, m, tally);
  }

  /// The cascade's two rungs called directly on 8 batches of 16 pool
  /// payloads, gated like the runtime gates them.
  void probe_cascade(Metrics& m, obs::Tracer& tracer, Tally& tally) {
    core::BehavioralBackendConfig bc;
    bc.mc_samples = kMcSamples;
    bc.energy_pj_per_request = census_pj_;
    core::BehavioralBackend cheap(model_, bc);
    const std::unique_ptr<core::TiledBackend> tiled = make_tiled();
    std::size_t escalated = 0;
    double tiled_us = 0.0, tiled_energy_pj = 0.0;
    bool ok = true;
    for (std::size_t batch = 0; batch < 8; ++batch) {
      std::vector<std::vector<float>> rows;
      std::vector<std::uint64_t> seeds;
      for (std::size_t b = 0; b < kMaxBatch; ++b) {
        rows.push_back(pool_[batch * kMaxBatch + b]);
        seeds.push_back(seeds_[batch * kMaxBatch + b]);
      }
      const nn::Tensor inputs = stack_rows(rows);
      const auto t0 = Clock::now();
      core::BackendBatch out = cheap.forward(inputs, seeds, nullptr);
      record_span(&tracer, "core.behavioral_forward", t0, Clock::now());
      std::vector<std::size_t> up_rows;
      for (std::size_t b = 0; b < kMaxBatch; ++b) {
        if (serve::should_escalate(config_.cascade, out.predictions[b].entropy.front(),
                                   1.0)) {
          up_rows.push_back(b);
        }
      }
      if (!up_rows.empty()) {
        std::vector<std::vector<float>> sub;
        std::vector<std::uint64_t> sub_seeds;
        for (const std::size_t b : up_rows) {
          sub.push_back(rows[b]);
          sub_seeds.push_back(seeds[b]);
        }
        const auto t1 = Clock::now();
        const core::BackendBatch up = tiled->forward(stack_rows(sub), sub_seeds, nullptr);
        const auto t2 = Clock::now();
        record_span(&tracer, "core.tiled_forward", t1, t2);
        tiled_us += micros(t1, t2);
        for (std::size_t k = 0; k < up_rows.size(); ++k) {
          out.predictions[up_rows[k]] = up.predictions[k];
          out.energy_pj[up_rows[k]] += up.energy_pj[k];
          out.escalated[up_rows[k]] = 1;
          tiled_energy_pj += up.energy_pj[k];
        }
        escalated += up_rows.size();
      }
      for (std::size_t b = 0; b < kMaxBatch; ++b) {
        const std::optional<Answer>& served = first_[batch * kMaxBatch + b];
        ok = ok && served && same_prediction(*served, out.predictions[b]) &&
             same_bits(served->energy_pj, out.energy_pj[b]) &&
             served->escalated == (out.escalated[b] != 0);
      }
    }
    tally.check(ok, "the cascade's rungs called directly differ from the served answers");
    tally.check(escalated > 0, "the cascade probe escalated no request");
    put(m, "core.behavioral_forward_us", median(durations(tracer, "core.behavioral_forward")),
        "us");
    put(m, "core.tiled_forward_us", tiled_us / static_cast<double>(std::max<std::size_t>(escalated, 1)),
        "us");
    put(m, "xbar.energy_uj_per_escalation",
        tiled_energy_pj * 1e-6 / static_cast<double>(std::max<std::size_t>(escalated, 1)), "uJ");
    put(m, "xbar.rows_skipped_share", runtime_->delta_stats().skip_ratio(), "ratio");
    std::size_t pool_escalated = 0, pool_ood = 0;
    for (std::size_t j = 0; j < pool_.size(); ++j) {
      pool_escalated += first_[j] && first_[j]->escalated ? 1 : 0;
      pool_ood += ood_[j];
    }
    put(m, "serve.escalated_share",
        static_cast<double>(pool_escalated) / static_cast<double>(pool_.size()), "ratio");
    put(m, "serve.ood_share", static_cast<double>(pool_ood) / static_cast<double>(pool_.size()),
        "ratio");
  }

  bool cascade_;
  std::string prefix_;
  nn::Dataset train_, calib_;
  std::vector<std::vector<float>> pool_;
  std::vector<std::size_t> labels_;
  std::vector<std::uint8_t> ood_;
  std::vector<std::uint64_t> seeds_;
  Traffic traffic_;
  core::BuiltModel model_;
  double census_pj_ = 0.0;
  serve::RuntimeConfig config_;
  std::vector<std::optional<Answer>> first_;
  std::size_t answered_ = 0;
  // Per request of the last traced run: the runtime's own queue and
  // compute attribution (the harness places no spans inside the runtime).
  std::vector<double> queue_us_, compute_us_, batch_sizes_;
  // Declared last: its destructor drains and joins the workers first.
  std::unique_ptr<serve::Runtime> runtime_;
};

// -- eval-cnn / train-cnn ---------------------------------------------------

/// Table-I CNN data: stroke-digit images (1x16x16, standardized) for
/// training, 256 labelled test images and 64 uniform-noise images.
struct CnnData {
  nn::Dataset train, test, noise;

  CnnData() {
    data::StrokeConfig sc;
    sc.samples_per_class = kTrainExamples / 10;
    train = data::standardize_per_sample(data::make_stroke_digits(sc, 11));
    sc.samples_per_class = kEvalBatches * kEvalBatch / 10 + 1;
    const nn::Dataset digits = data::make_stroke_digits(sc, 22);
    const std::size_t n = kEvalBatches * kEvalBatch;
    auto [inputs, labels] = digits.batch(0, n);
    test = data::standardize_per_sample(nn::Dataset{std::move(inputs), std::move(labels)});
    noise = data::standardize_per_sample(
        data::make_ood(digits, data::OodKind::kUniformNoise, 64, 99));
  }
};

/// The Table-I CNN with SpinScaleDropout, briefly trained on `data`.
core::BuiltModel trained_cnn(const CnnData& data) {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinScaleDrop;
  mc.seed = kCnnSeed;
  mc.dropout_p = kDropoutP;
  core::BuiltModel model = core::make_binary_cnn(mc);
  core::FitConfig fc;
  fc.epochs = 8;
  fc.shards = kTrainShards;
  fc.workers = kTrainShards;
  (void)core::fit(model, data.train, fc);
  return model;
}

/// Held-out accuracy and OOD AUROC of a CNN on the fixed test images.
void cnn_quality(const core::BuiltModel& model, const CnnData& data, Metrics& m) {
  const core::EvalOptions options = eval_options(0, kEvalThreads);
  put(m, "accuracy", core::evaluate(model, data.test, options).accuracy, "ratio");
  put(m, "ood_auroc", core::evaluate_ood(model, data.test, data.noise, options).auroc,
      "ratio");
  put(m, "energy_uj_per_req", census_energy_pj(model) * 1e-6, "uJ");
}

class EvalWorkload : public Workload {
 public:
  explicit EvalWorkload(std::uint64_t seed)
      : model_(trained_cnn(data_)), traffic_(kEvalBatches, seed, 3) {
    for (std::size_t k = 0; k < kEvalBatches; ++k) {
      auto [inputs, labels] = data_.test.batch(k * kEvalBatch, (k + 1) * kEvalBatch);
      batches_.push_back(nn::Dataset{std::move(inputs), std::move(labels)});
    }
    first_.assign(kEvalBatches, std::nullopt);
    // Warm-up: one evaluation of every batch shape the loop will run.
    (void)core::evaluate(model_, batches_.front(), eval_options(0, kEvalThreads));
  }

  void run(Phase& phase, double seconds, Tally& tally, obs::Tracer* tracer) override {
    const auto start = Clock::now();
    while (true) {
      const std::size_t k = traffic_.next();
      ++tally.attempted;
      double latency = -1.0;
      try {
        const auto t0 = Clock::now();
        const core::EvalResult r =
            core::evaluate(model_, batches_[k], eval_options(k, kEvalThreads));
        const auto t1 = Clock::now();
        latency = micros(t0, t1);
        record_span(tracer, "core.evaluate", t0, t1);
        if (!first_[k]) {
          first_[k] = r;
          ++answered_;
        } else if (!same_result(*first_[k], r)) {
          tally.fail("eval-cnn: batch " + std::to_string(k) + " evaluated differently on replay");
        }
      } catch (const std::exception& e) {
        tally.fail(std::string("eval-cnn: evaluate failed: ") + e.what());
      }
      phase.add(kEvalBatch, latency);
      const double elapsed = seconds_since(start);
      if ((elapsed >= seconds && answered_ == kEvalBatches) || elapsed >= kMaxPhaseSeconds) {
        break;
      }
    }
  }

  void quality(Metrics& m, Tally& tally) override {
    double hits = 0.0;
    for (const auto& r : first_) {
      if (!r) {
        tally.fail("eval-cnn: a test batch was never evaluated");
        return;
      }
      hits += static_cast<double>(r->accuracy) * static_cast<double>(kEvalBatch);
    }
    Metrics quality;
    cnn_quality(model_, data_, quality);
    put(m, "accuracy", std::round(hits) / static_cast<double>(kEvalBatches * kEvalBatch),
        "ratio");
    m["ood_auroc"] = quality["ood_auroc"];
    m["energy_uj_per_req"] = quality["energy_uj_per_req"];
  }

  void verify(Tally& tally) override {
    const std::size_t k = 0;
    const core::EvalResult serial = core::evaluate(model_, batches_[k], eval_options(k, 1));
    tally.check(first_[k] && same_result(*first_[k], serial),
                "eval-cnn: threads=1 and threads=2 disagree on batch " + std::to_string(k));
  }

  void layers(Metrics& m, obs::Tracer& tracer, Tally& tally) override {
    put(m, "core.evaluate_batch_us", median(durations(tracer, "core.evaluate")), "us");
    // One stochastic pass of one 16-image batch, layer by layer.
    const nn::Tensor& images = batches_.front().inputs;
    const std::uint64_t pass_seed = nn::mix_seed(kEvalSeedBase, 0x1a7e5);
    core::BuiltModel reference = model_.clone();
    reference.enable_mc(true);
    reference.reseed_stochastic(pass_seed);
    const nn::Tensor expected = reference.stochastic_logits(images);
    core::BuiltModel layered = model_.clone();
    layered.enable_mc(true);
    for (std::size_t it = 0; it < 40; ++it) {
      layered.reseed_stochastic(pass_seed);
      const nn::Tensor logits =
          traced_layers(layered.net, images, "nn.cnn.", it == 0 ? nullptr : &tracer);
      if (it == 0) {
        tally.check(same_bits(logits.data(), expected.data()),
                    "layer-by-layer CNN forward differs from Sequential::forward");
      }
    }
    layer_metrics(layered.net, "nn.cnn.", tracer, m, tally);
  }

 private:
  CnnData data_;
  core::BuiltModel model_;
  std::vector<nn::Dataset> batches_;
  Traffic traffic_;
  std::vector<std::optional<core::EvalResult>> first_;
  std::size_t answered_ = 0;
};

class TrainWorkload : public Workload {
 public:
  TrainWorkload() : initial_(trained_cnn(data_)) {
    // Warm-up: one full round, which also fixes the reference weights.
    Tally warm;
    Phase phase;
    round(phase, kTrainShards, warm, nullptr);
    if (warm.failed > 0) {
      throw std::runtime_error("warm-up failed: " + warm.errors.front());
    }
  }

  void run(Phase& phase, double seconds, Tally& tally, obs::Tracer* tracer) override {
    const auto start = Clock::now();
    do {
      round(phase, kTrainShards, tally, tracer);
    } while (seconds_since(start) < seconds);
  }

  void quality(Metrics& m, Tally& /*tally*/) override {
    cnn_quality(trained_, data_, m);
  }

  void verify(Tally& tally) override {
    Phase phase;
    round(phase, 1, tally, nullptr);  // compared against the 2-worker digest
  }

  void layers(Metrics& m, obs::Tracer& tracer, Tally& /*tally*/) override {
    const std::vector<obs::SpanRecord> spans = tracer.spans();
    std::vector<double> steps, optimizer, reduce;
    std::vector<std::pair<double, double>> reduce_spans;
    for (const obs::SpanRecord& s : spans) {
      if (s.name == "shard:reduce") {
        reduce_spans.emplace_back(s.begin_us, s.end_us);
        reduce.push_back(s.end_us - s.begin_us);
      }
    }
    for (const obs::SpanRecord& s : spans) {
      if (s.name != "train.step") {
        continue;
      }
      steps.push_back(s.end_us - s.begin_us);
      for (const auto& [b, e] : reduce_spans) {
        if (b >= s.begin_us && e <= s.end_us) {
          optimizer.push_back(s.end_us - e);
        }
      }
    }
    put(m, "train.step_us", median(steps), "us");
    put(m, "train.forward_us", median(durations(tracer, "shard:fwd")), "us");
    put(m, "train.backward_us", median(durations(tracer, "shard:bwd")), "us");
    put(m, "train.optimizer_us", median(optimizer), "us");
    put(m, "train.reduce_share", sum(reduce) / std::max(sum(steps), 1e-9), "ratio");
  }

 private:
  /// One round: a fresh copy of the set-up CNN trained for one more epoch
  /// on the fixed examples. Every round must produce the same weights.
  void round(Phase& phase, std::size_t workers, Tally& tally, obs::Tracer* tracer) {
    core::BuiltModel model = initial_.clone();
    model.enable_mc(false);
    train::TrainerConfig tc;
    tc.epochs = 1;
    tc.batch_size = kTrainBatch;
    tc.lr = 0.01f;
    tc.label_smoothing = 0.05f;
    tc.shards = kTrainShards;
    tc.workers = workers;
    tc.regularizer = model.make_regularizer(1e-4f, 1e-2f);
    tc.tracer = tracer;
    const auto begin = Clock::now();
    auto last = begin;
    try {
      train::Trainer trainer(model.net, std::move(tc));
      trainer.set_preemption_check([&] {
        const auto now = Clock::now();
        phase.add(kTrainBatch, micros(last, now));
        record_span(tracer, "train.step", last, now);
        last = Clock::now();  // after the bookkeeping, so steps never touch
        ++tally.attempted;
        return false;
      });
      (void)trainer.fit(data_.train);
    } catch (const std::exception& e) {
      tally.fail(std::string("train-cnn: training failed: ") + e.what());
      return;
    }
    record_span(tracer, "train.round", begin, Clock::now());
    const std::uint64_t digest = weights_digest(model.net);
    if (!digest_) {
      digest_ = digest;
    } else if (*digest_ != digest) {
      tally.fail("train-cnn: a round with " + std::to_string(workers) +
                 " workers trained different weights");
    }
    trained_ = std::move(model);
  }

  CnnData data_;
  core::BuiltModel initial_;
  core::BuiltModel trained_;
  std::optional<std::uint64_t> digest_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "serve-mlp") {
    return std::make_unique<ServeWorkload>(false, seed);
  }
  if (name == "cascade-ood") {
    return std::make_unique<ServeWorkload>(true, seed);
  }
  if (name == "eval-cnn") {
    return std::make_unique<EvalWorkload>(seed);
  }
  if (name == "train-cnn") {
    return std::make_unique<TrainWorkload>();
  }
  throw std::invalid_argument("unknown workload " + name);
}

// --------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) == kWorkloads.end()) {
    throw std::invalid_argument("--workload must be one of serve-mlp, cascade-ood, "
                                "eval-cnn, train-cnn");
  }
  if (!(o.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return o;
}

void print_result(const Tally& tally, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value.first, value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// End-to-end metrics of one workload: set up kSetupRepeats times (the
/// median is setup_s), then the timed phase on the last set-up.
void measure(const Options& o, Tally& tally, Metrics& m) {
  std::vector<double> setup;
  std::unique_ptr<Workload> w;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    w.reset();
    const auto t0 = Clock::now();
    w = make_workload(o.workload, o.seed);
    setup.push_back(seconds_since(t0));
  }
  Phase phase;
  w->run(phase, o.seconds, tally, nullptr);
  put(m, "throughput_per_s", phase.throughput(), "1/s");
  put(m, "cpu_us_per_op", phase.cpu_us_per_op(), "us");
  put(m, "p50_us", phase.latency(0.50), "us");
  put(m, "p90_us", phase.latency(0.90), "us");
  put(m, "setup_s", median(setup), "s");
  w->quality(m, tally);
  w->verify(tally);
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-layer metrics: the named workload untraced and traced (tracing
/// overhead), then a traced run and the layer probes of every workload.
void trace(const Options& o, Tally& tally, Metrics& m) {
  obs::TraceConfig tc;
  tc.enabled = true;
  tc.max_spans = 1u << 21;
  obs::Tracer tracer(tc);
  const double slice = o.seconds / 5.0;
  std::vector<std::string> order = {o.workload};
  for (const std::string& name : kWorkloads) {
    if (name != o.workload) {
      order.push_back(name);
    }
  }
  std::map<std::string, std::unique_ptr<Workload>> loaded;
  for (const std::string& name : order) {
    loaded[name] = make_workload(name, o.seed);
  }
  Workload& own = *loaded[o.workload];
  Phase untraced;
  own.run(untraced, slice, tally, nullptr);
  Phase traced;
  own.run(traced, slice, tally, &tracer);
  put(m, "trace.overhead_share", 1.0 - traced.throughput() / untraced.throughput(), "ratio");
  for (const std::string& name : order) {
    Workload& w = *loaded[name];
    if (name != o.workload) {
      Phase phase;
      w.run(phase, slice, tally, &tracer);
    }
    w.layers(m, tracer, tally);
    w.verify(tally);
  }
  if (tracer.dropped() > 0) {
    tally.fail("tracer dropped " + std::to_string(tracer.dropped()) + " spans");
  }
  tracer.write_chrome_trace(o.trace_out);
  std::printf("trace %s %zu spans\n", o.trace_out.c_str(), tracer.span_count());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf(
      "build {\"build_type\": \"%s\", \"compiler\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"simd_tier\": \"%s\", \"nproc\": %u}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
      nn::simd::tier_name(nn::simd::active_tier()), std::thread::hardware_concurrency());
  Tally tally;
  Metrics m;
  try {
    if (o.trace) {
      trace(o, tally, m);
    } else {
      measure(o, tally, m);
    }
  } catch (const std::exception& e) {
    tally.fail(std::string("exception: ") + e.what());
  }
  for (const auto& [name, value] : m) {
    if (!std::isfinite(value.first)) {
      tally.fail("metric " + name + " is not finite");
    }
  }
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);
  if (tally.attempted == 0) {
    tally.attempted = 1;
    tally.failed = std::max<std::size_t>(tally.failed, 1);
  }
  print_result(tally, m);
  return tally.failed == 0 ? 0 : 1;
}

// Batched uncertainty-aware inference runtime.
//
// The request path the offline pipeline never had: clients submit single
// samples, a dynamic batcher coalesces them (serve/batcher.h), and a pool
// of replicated model workers runs the T-pass Monte-Carlo predictive loop
// per request, returning class probabilities, predictive entropy / mutual
// information, a selective-prediction decision (serve/policy.h) and
// per-request latency + energy attribution.
//
//   client ──submit──▶ Batcher ──pop_batch──▶ worker[i] (replica clone)
//                                                │  fused (batch x T)
//                                                │  stacked MC forward
//   future ◀──ServedPrediction── policy+ledger ◀─┘
//
// Workers answer through the core::FidelityBackend seam (core/fidelity.h):
// each worker owns one backend clone and serves every popped batch with
// one batched forward(inputs, request_seeds) call. Three backends plug in:
//  * kBehavioral — core::BehavioralBackend (BuiltModel clones on the fast
//    tensor path: the deterministic head once per request, the stochastic
//    tail as one (requests x T) stacked forward, with any behavioural
//    HwNoiseConfig non-idealities the model was built with); energy is
//    census-derived per request (core::inference_census).
//  * kTiled — core::TiledBackend (a TiledMlp replica: crossbar currents,
//    ADC quantization, defects, event-driven delta evaluation); energy is
//    measured event by event into a per-request EnergyLedger.
//  * kCascade — serve::CascadeBackend (serve/backend.h): every request
//    answers on the behavioural rung, and escalates to the tiled rung
//    when the cheap answer is uncertain (entropy/margin gate). Escalated
//    requests carry the tiled bits, the rest the behavioural bits.
//
// Reproducibility contract: a request's prediction is a pure function of
// (model, features, mc_samples, request seed) — the i-th auto-seeded
// request computes EXACTLY what the offline core::evaluate path computes
// for sample i at batch_size 1 (same per-batch seed derivation
// mix_seed(seed, i), same McPredictor loop). Worker count, batch
// composition and linger tuning never change a result, only when it
// arrives.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/census.h"
#include "core/fidelity.h"
#include "core/models.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/backend.h"
#include "serve/batcher.h"
#include "serve/fault.h"
#include "serve/policy.h"
#include "xbar/health.h"
#include "xbar/tile.h"

namespace neuspin::serve {

/// Which fidelity level answers requests.
enum class Backend : std::uint8_t {
  kBehavioral,  ///< BuiltModel clones (fast tensor ops + behavioural noise)
  kTiled,       ///< TiledMlp replicas (full electrical simulation)
  kCascade,     ///< behavioural rung + uncertainty-gated tiled escalation
};

[[nodiscard]] std::string backend_name(Backend backend);

/// Why a submission was rejected instead of queued.
enum class ShedReason : std::uint8_t {
  kQueueFull,  ///< admission control: queue depth at max_queue_depth
  kShutdown,   ///< submitted after shutdown() — never retry
};

[[nodiscard]] std::string shed_reason_name(ShedReason reason);

/// Machine-readable overload rejection: carried by the shed future (and
/// thrown to post-shutdown submitters) so clients can back off
/// programmatically instead of parsing an error string. Derives from
/// std::runtime_error, so callers that only catch the old bare error keep
/// working.
class OverloadError : public std::runtime_error {
 public:
  OverloadError(ShedReason reason, double retry_after_us, std::size_t queue_depth);

  [[nodiscard]] ShedReason reason() const { return reason_; }
  /// Suggested back-off before retrying, microseconds: the p50 end-to-end
  /// latency read off the runtime's latency histogram at shed time — the
  /// best estimate of when a queue slot frees — floored at
  /// max(max_linger, 100us) so a client never busy-retries off a cold or
  /// unrealistically fast window. 0 when the reason is kShutdown and
  /// retrying is pointless.
  [[nodiscard]] double retry_after_us() const { return retry_after_us_; }
  /// Pending requests observed when the submission was shed.
  [[nodiscard]] std::size_t queue_depth() const { return queue_depth_; }

 private:
  ShedReason reason_;
  double retry_after_us_;
  std::size_t queue_depth_;
};

/// A request's completion deadline passed before a worker could serve it.
/// Thrown through the request's future; the Monte-Carlo forward is never
/// spent on an already-late request.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded(std::uint64_t request_id, double overrun_us);

  [[nodiscard]] std::uint64_t request_id() const { return request_id_; }
  /// How far past the deadline the request was when a worker picked it up.
  [[nodiscard]] double overrun_us() const { return overrun_us_; }

 private:
  std::uint64_t request_id_;
  double overrun_us_;
};

/// Worker supervision: a heartbeat thread that detects workers stuck in a
/// forward (a stall fault, a pathological input) and re-queues their
/// in-flight requests onto healthy workers.
struct SupervisionConfig {
  bool enabled = false;
  /// Health-check cadence of the supervisor thread.
  std::chrono::microseconds heartbeat{1000};
  /// A busy worker whose current batch has been running longer than this
  /// is declared stalled: its unanswered requests move back to the queue
  /// (once per request — a request stranded twice fails to the client)
  /// and the worker's backend is re-cloned when it eventually returns.
  /// Must comfortably exceed the honest worst-case batch time, or the
  /// supervisor will "rescue" requests from workers that were merely slow.
  std::chrono::microseconds stall_timeout{50000};
};

/// Online substrate health monitoring: scheduled canary probes of the
/// tiled substrate between batches, automatic spare-line healing, and
/// preventive drift recalibration (ROADMAP: robustness; off by default).
///
/// Scheduling is deterministic the same way the fault schedule is: every
/// served batch takes one global health ticket, and whether ticket n
/// probes (n % probe_every == 0) or recalibrates is a pure function of
/// the ticket — which worker draws it is a scheduling accident. Probes
/// run on the worker's own thread BETWEEN batches, so queued requests
/// simply wait: monitoring and healing never drop a request. A failed
/// probe quarantines the cascade's expensive rung (escalations degrade to
/// the cheap rung, flagged `degraded`) while healing runs; a heal that
/// cannot restore spec falls back to the worker-restart path (re-clone
/// from the pristine prototype — the same path crash recovery uses).
struct HealthConfig {
  bool enabled = false;
  /// Probe cadence in global batch tickets (0 = never probe; preventive
  /// recalibration may still run on its own cadence).
  std::uint64_t probe_every = 64;
  /// Tolerances forwarded to xbar::probe_tile / xbar::heal_tile.
  xbar::ProbeConfig probe{};
  /// Heal (remap + recalibrate) when a probe fails. When false the
  /// monitor only quarantines and counts — useful for measuring raw
  /// degradation in benchmarks.
  bool auto_heal = true;
  /// Preventive recalibration cadence in global batch tickets (0 = only
  /// recalibrate as part of healing). Cheap insurance against slow drift
  /// that stays under the probe's detection tolerance.
  std::uint64_t recal_every = 0;
};

struct RuntimeConfig {
  Backend backend = Backend::kBehavioral;
  /// Model workers (one replica clone each): 0 = one per hardware thread.
  std::size_t workers = 0;
  std::size_t mc_samples = 20;  ///< T stochastic passes per request
  /// Base seed: auto-seeded request i draws its RNG stream from
  /// mix_seed(seed, i), mirroring core::evaluate's per-batch derivation.
  std::uint64_t seed = 0x6e6575737276ull;  // "neusrv"
  BatcherConfig batcher{};
  PolicyConfig policy{};
  /// Tiled backend: crossbar design point, tile construction seed (same
  /// seed on every replica = identical programmed hardware) and the
  /// SpinDrop probability of the hardware dropout modules.
  xbar::TileConfig tile{};
  std::uint64_t tile_seed = 42;
  double spindrop_p = 0.0;
  /// Cascade backend: when does a behavioural answer escalate to the
  /// tiled rung (ignored by the single-fidelity backends).
  CascadeConfig cascade{};
  /// Per-request energy attribution. Tiled: measured event-by-event.
  /// Behavioral: priced from the model's architecture census under
  /// `census` (mc_passes is overridden with `mc_samples`).
  bool account_energy = true;
  core::CensusConfig census{};
  /// Fused-path intra-batch parallelism: each popped batch's stacked
  /// (requests x T) stochastic tail is split into this many deterministic
  /// contiguous row partitions served concurrently on the shared
  /// core::ThreadPool, each partition on its own replica clone (so a
  /// single large request batch scales past one core even at workers=1).
  /// 1 (the default) runs the stack inline on the worker; 0 means one
  /// partition per hardware thread. Results are bitwise identical for any
  /// value — the per-row streams make the partition invisible. Memory
  /// cost: (fused_workers - 1) extra model clones per worker.
  std::size_t fused_workers = 1;
  /// Admission control: when > 0 and the batcher already holds this many
  /// pending requests, new submissions are shed — their future fails with
  /// an OverloadError (machine-readable reason + retry-after hint)
  /// instead of joining the queue — so overload degrades into fast,
  /// actionable rejections rather than unbounded tail latency.
  /// 0 disables shedding. The depth check races benignly with the workers
  /// (the bound is approximate by at most the in-flight pops).
  std::size_t max_queue_depth = 0;
  /// Per-request span tracing (off by default). When enabled the runtime
  /// records queue/forward/policy/request spans per sampled request, batch
  /// spans per pop, rung spans per backend forward and per-tile spans on
  /// the electrical path; export with tracer().write_chrome_trace().
  /// Observability only: results are bitwise identical on/off.
  obs::TraceConfig trace{};
  /// Default completion deadline applied to every submission (0 = none;
  /// per-submit deadlines override). A worker picking up an expired
  /// request fails it with DeadlineExceeded BEFORE spending any forward
  /// work on it.
  std::chrono::microseconds default_deadline{0};
  /// Deterministic fault injection (chaos testing; off by default). The
  /// plan's seed fixes the whole fault schedule — see serve/fault.h.
  FaultPlan fault{};
  /// Where the fault decorator mounts: the whole worker backend, or just
  /// the cascade's expensive rung (requires Backend::kCascade).
  FaultSite fault_site = FaultSite::kWorker;
  /// Worker stall detection + rescue (off by default).
  SupervisionConfig supervision{};
  /// Substrate health monitoring + self-healing (off by default).
  HealthConfig health{};
};

/// Aggregate counters since construction, plus a rolling latency window.
struct RuntimeStats {
  std::uint64_t requests = 0;   ///< requests completed (including abstained)
  std::uint64_t batches = 0;    ///< batches popped by workers
  std::uint64_t accepted = 0;
  std::uint64_t abstained = 0;
  std::uint64_t shed = 0;       ///< submissions rejected, any reason
  std::uint64_t shed_queue_full = 0;  ///< rejected by admission control
  std::uint64_t shed_shutdown = 0;    ///< rejected after shutdown()
  /// Requests the cascade escalated to its expensive rung (0 on the
  /// single-fidelity backends).
  std::uint64_t escalated = 0;
  /// Requests served the cheap rung's bits with degraded=true because the
  /// expensive rung was circuit-broken or failing.
  std::uint64_t degraded = 0;
  /// Requests failed with DeadlineExceeded before any forward work.
  std::uint64_t deadline_expired = 0;
  /// Requests re-queued after a worker crash or stall (each at most once).
  std::uint64_t requeued = 0;
  /// Worker backends re-cloned after a crash or a deposed stall.
  std::uint64_t worker_restarts = 0;
  /// Stall rescues performed by the supervisor.
  std::uint64_t worker_stalls = 0;
  /// Substrate health probes run (canary, plus sweep when the canary
  /// failed or force_sweep is on).
  std::uint64_t health_probes = 0;
  /// Probes that found a substrate out of spec.
  std::uint64_t health_failures = 0;
  /// Heal cycles (remap + recalibrate) triggered by failed probes.
  std::uint64_t heals = 0;
  /// Expensive-rung quarantines forced by failed probes.
  std::uint64_t quarantines = 0;
  /// Worst-tile substrate health score at the last probe (1 = pristine;
  /// 1 when health monitoring is off or no probe has run yet).
  double health_score = 1.0;
  double mean_batch_size = 0.0;
  double total_energy_pj = 0.0;
  double total_compute_us = 0.0;  ///< summed per-request MC compute time
  std::size_t queue_depth = 0;    ///< pending requests at sampling time
  /// End-to-end latency percentiles read off the "serve.latency.total_us"
  /// histogram (0 until the first completion). Estimates carry <= 3.125%
  /// relative error and are clamped to the observed [min, max].
  double window_p50_us = 0.0;
  double window_p99_us = 0.0;
};

/// Replicated-worker serving runtime over one trained model.
class Runtime {
 public:
  /// Clones `model` once per worker (behavioural) or programs one TiledMlp
  /// replica per worker from it (tiled), then starts the worker threads.
  /// The caller's model is never mutated and may be discarded afterwards.
  Runtime(const core::BuiltModel& model, const RuntimeConfig& config);
  ~Runtime();  ///< shutdown(): drains pending requests, joins workers

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Enqueue one sample; the future resolves once a worker served it (or
  /// carries the exception that prevented that). Auto-seeded: submission
  /// index i gets stream seed mix_seed(config.seed, i). A sample with a
  /// non-finite feature is never queued: its future fails at once with
  /// std::invalid_argument naming the first such feature's index (counted
  /// in "serve.rejected_input"). Throws OverloadError (reason kShutdown)
  /// after shutdown().
  [[nodiscard]] std::future<ServedPrediction> submit(std::vector<float> features);
  /// Same, under a caller-chosen stream seed (replay / A-B testing).
  [[nodiscard]] std::future<ServedPrediction> submit(std::vector<float> features,
                                                     std::uint64_t request_seed);
  /// Same, with a per-request completion deadline (overrides
  /// RuntimeConfig::default_deadline; 0 = no deadline). A request still
  /// queued when its deadline passes fails with DeadlineExceeded.
  [[nodiscard]] std::future<ServedPrediction> submit(
      std::vector<float> features, std::uint64_t request_seed,
      std::chrono::microseconds deadline);

  /// Blocking convenience: submit + wait.
  [[nodiscard]] ServedPrediction predict(const std::vector<float>& features);

  /// How shutdown treats requests still queued.
  struct ShutdownOptions {
    /// true: serve everything already admitted before joining (the
    /// default, and the destructor's behaviour). false: shed the whole
    /// backlog immediately — every queued request fails with
    /// OverloadError (kShutdown); only batches already on workers finish.
    bool drain = true;
    /// Drain escape hatch: with drain=true and a positive timeout, wait at
    /// most this long for the queue to empty, then shed the leftovers
    /// typed. 0 = wait indefinitely.
    std::chrono::microseconds drain_timeout{0};
  };

  /// Stop accepting requests, serve everything still queued (no request is
  /// lost or answered twice), join the workers. Idempotent.
  void shutdown();
  /// Shutdown with explicit drain semantics (see ShutdownOptions).
  void shutdown(const ShutdownOptions& options);

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }
  [[nodiscard]] const RuntimeConfig& config() const { return config_; }
  /// Aggregate counters assembled from the metrics registry (API-stable
  /// view; the registry itself is the richer source).
  [[nodiscard]] RuntimeStats stats() const;

  /// The runtime's metrics registry: serve.* counters/gauges/histograms,
  /// the batcher's batch-size histogram and queue-depth gauge, and (when
  /// energy accounting is on and the backend has electrical events) the
  /// per-component energy.* series. Render with obs::render_prometheus /
  /// obs::render_json, or watch with obs::PeriodicReporter.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

  /// The runtime's span tracer (enabled via RuntimeConfig::trace). Export
  /// a Perfetto-loadable file with tracer().write_chrome_trace(path).
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

  /// The stream seed the runtime assigns to the i-th auto-seeded request —
  /// exposed so offline replays can reproduce served results bit for bit.
  [[nodiscard]] static std::uint64_t request_stream_seed(std::uint64_t base_seed,
                                                         std::uint64_t request_index);

  /// Event-engine work census summed over every worker backend's tiles
  /// (empty on the behavioural backend). For bench reporting; do not call
  /// while requests are in flight.
  [[nodiscard]] xbar::DeltaStats delta_stats() const;

 private:
  /// One worker's in-flight batch, visible to the supervisor. The slot
  /// lock serializes the worker's publish phase against the supervisor's
  /// rescue; `done[i]` is the single source of truth for "request i is
  /// settled" — whoever sets it owns the promise transition, so a rescued
  /// request can never be answered twice.
  struct InFlight {
    std::mutex mutex;
    std::vector<Request> requests;   ///< the popped batch (slots may be moved-from once done)
    std::vector<std::uint8_t> done;  ///< parallel: promise settled or stolen
    std::chrono::steady_clock::time_point started{};
    bool busy = false;
    /// The supervisor declared this worker stalled and rescued its batch;
    /// the worker re-clones its backend when it eventually returns.
    bool deposed = false;
  };

  [[nodiscard]] std::future<ServedPrediction> submit_with_id(
      std::uint64_t id, std::vector<float> features, std::uint64_t request_seed,
      std::chrono::microseconds deadline);
  /// Build the configured fidelity backend for worker 0 (the others are
  /// clone()s of it), with the fault decorator mounted per fault_site.
  [[nodiscard]] std::unique_ptr<core::FidelityBackend> make_backend(
      const core::BuiltModel& model) const;
  void worker_loop(std::size_t worker_index);
  /// Serve one popped batch through the worker's backend: one batched
  /// forward per feature-count group (so a malformed submission fails its
  /// own group, never its companions), in arrival order within the group.
  /// Returns false when the worker's backend faulted and must be
  /// re-cloned before the next batch.
  [[nodiscard]] bool serve_batch(std::size_t worker_index,
                                 std::vector<Request> batch);
  /// Replace a faulted worker's backend with a fresh clone of the pristine
  /// prototype (no-op when no prototype was kept).
  void restart_backend(std::size_t worker_index);
  /// Health-monitor hook, run by each worker after every served batch:
  /// takes one global health ticket and — when the ticket is due — canary
  /// probes the worker's own backend, quarantines + heals on failure, and
  /// runs preventive recalibration on its own cadence. Requests queued
  /// meanwhile just wait; nothing is dropped.
  void maybe_probe(std::size_t worker_index);
  /// Supervisor heartbeat loop: rescue batches off stalled workers.
  void supervisor_loop();
  /// Fail every request still queued with OverloadError (kShutdown).
  void shed_queue();
  /// Shared tail of the serving path: assemble the ServedPrediction,
  /// apply the policy, record metrics + per-request spans, and fulfill
  /// the request's promise.
  void publish_prediction(Request& request, const core::Prediction& prediction,
                          std::chrono::steady_clock::time_point popped,
                          std::chrono::steady_clock::time_point compute_begin,
                          std::chrono::steady_clock::time_point compute_end,
                          double compute_share_us, double energy_pj,
                          bool escalated, bool degraded, std::size_t batch_size,
                          std::size_t worker_index);
  /// Fold one batch ledger's per-component event counts and priced energy
  /// into the registry's energy.* series.
  void fold_energy(const energy::EnergyLedger& ledger);

  /// Shed retry-after hint: latency-histogram p50 floored at
  /// max(max_linger, 100us).
  [[nodiscard]] double retry_after_hint() const;

  RuntimeConfig config_;
  SelectivePolicy policy_;
  /// Metrics + tracer are declared before the batcher/workers so every
  /// instrument outlives everything that records into it.
  obs::Registry metrics_;
  obs::Tracer tracer_;
  Batcher batcher_;
  /// One fidelity backend per worker: backends_[w] answers everything
  /// worker w pops. All are clone()s of one programmed instance, so every
  /// worker serves identical bits.
  std::vector<std::unique_ptr<core::FidelityBackend>> backends_;
  /// Pristine clone kept for worker restarts (only when fault injection
  /// or supervision is on — it costs a full replica of memory).
  std::unique_ptr<core::FidelityBackend> prototype_;
  /// Shared fault schedule (null unless config.fault.enabled).
  std::shared_ptr<FaultInjector> injector_;
  /// Per-worker in-flight slots (stable addresses; one per worker).
  std::vector<std::unique_ptr<InFlight>> inflight_;
  /// Census-priced energy of one behavioural request (constant per config).
  double census_energy_pj_ = 0.0;
  std::vector<std::thread> threads_;
  std::thread supervisor_;
  std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;
  bool supervisor_stop_ = false;
  std::atomic<std::uint64_t> next_request_ = 0;
  /// Global health-schedule ticket: one per served batch, across workers.
  std::atomic<std::uint64_t> health_ticket_ = 0;
  std::mutex shutdown_mutex_;
  bool stopped_ = false;

  /// Hot-path instruments, looked up once (stable addresses for the
  /// registry's lifetime) so steady-state recording is lock-free.
  obs::Counter* ctr_requests_ = nullptr;
  obs::Counter* ctr_batches_ = nullptr;
  obs::Counter* ctr_accepted_ = nullptr;
  obs::Counter* ctr_abstained_ = nullptr;
  obs::Counter* ctr_shed_ = nullptr;
  obs::Counter* ctr_shed_queue_full_ = nullptr;
  obs::Counter* ctr_shed_shutdown_ = nullptr;
  obs::Counter* ctr_rejected_input_ = nullptr;
  obs::Counter* ctr_escalated_ = nullptr;
  obs::Counter* ctr_degraded_ = nullptr;
  obs::Counter* ctr_deadline_ = nullptr;
  obs::Counter* ctr_requeued_ = nullptr;
  obs::Counter* ctr_restarts_ = nullptr;
  obs::Counter* ctr_worker_stalls_ = nullptr;
  obs::Counter* ctr_drain_shed_ = nullptr;
  obs::Counter* ctr_health_probes_ = nullptr;
  obs::Counter* ctr_health_failures_ = nullptr;
  obs::Counter* ctr_health_sweeps_ = nullptr;
  obs::Counter* ctr_health_cells_faulty_ = nullptr;
  obs::Counter* ctr_remap_rows_ = nullptr;
  obs::Counter* ctr_remap_cols_ = nullptr;
  obs::Counter* ctr_remap_exhausted_ = nullptr;
  obs::Counter* ctr_recal_runs_ = nullptr;
  obs::Counter* ctr_recal_cells_ = nullptr;
  obs::Counter* ctr_heals_ = nullptr;
  obs::Counter* ctr_quarantines_ = nullptr;
  obs::Gauge* gauge_health_score_ = nullptr;
  obs::Gauge* gauge_energy_total_ = nullptr;
  obs::Histogram* hist_latency_total_ = nullptr;
  obs::Histogram* hist_latency_queue_ = nullptr;
  obs::Histogram* hist_latency_compute_ = nullptr;
};

}  // namespace neuspin::serve

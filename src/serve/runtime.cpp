#include "serve/runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/bayesian.h"
#include "core/thread_pool.h"
#include "nn/model.h"

namespace neuspin::serve {

namespace {

double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Floor of the shed retry-after hint: never advise a client to retry
/// faster than this, even off a cold latency histogram.
constexpr double kRetryAfterFloorUs = 100.0;

}  // namespace

std::string backend_name(Backend backend) {
  switch (backend) {
    case Backend::kBehavioral:
      return "behavioral";
    case Backend::kTiled:
      return "tiled";
    case Backend::kCascade:
      return "cascade";
  }
  return "unknown";
}

std::string shed_reason_name(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

OverloadError::OverloadError(ShedReason reason, double retry_after_us,
                             std::size_t queue_depth)
    : std::runtime_error("Runtime: request shed (" + shed_reason_name(reason) +
                         "), queue depth " + std::to_string(queue_depth) +
                         ", retry after ~" +
                         std::to_string(static_cast<long long>(retry_after_us)) +
                         "us"),
      reason_(reason),
      retry_after_us_(retry_after_us),
      queue_depth_(queue_depth) {}

DeadlineExceeded::DeadlineExceeded(std::uint64_t request_id, double overrun_us)
    : std::runtime_error("Runtime: request " + std::to_string(request_id) +
                         " missed its deadline by ~" +
                         std::to_string(static_cast<long long>(overrun_us)) +
                         "us"),
      request_id_(request_id),
      overrun_us_(overrun_us) {}

std::uint64_t Runtime::request_stream_seed(std::uint64_t base_seed,
                                           std::uint64_t request_index) {
  return nn::mix_seed(base_seed, request_index);
}

namespace {

/// Resolve every derived knob once, before the member initializers run:
/// the worker count (0 -> hardware) and the batcher's consumer count
/// (always the worker count, whatever the caller set). config() then
/// reports exactly what the runtime is doing.
RuntimeConfig normalized(RuntimeConfig config) {
  config.workers = core::resolve_worker_count(config.workers);
  config.batcher.consumers = config.workers;
  config.fused_workers = core::resolve_worker_count(config.fused_workers);
  return config;
}

}  // namespace

std::unique_ptr<core::FidelityBackend> Runtime::make_backend(
    const core::BuiltModel& model) const {
  const auto behavioral = [&] {
    core::BehavioralBackendConfig backend;
    backend.mc_samples = config_.mc_samples;
    backend.team_size = config_.fused_workers;
    backend.energy_pj_per_request = census_energy_pj_;
    return std::make_unique<core::BehavioralBackend>(model, backend);
  };
  const auto tiled = [&] {
    core::TiledBackendConfig backend;
    backend.tile = config_.tile;
    backend.tile_seed = config_.tile_seed;
    backend.mc_samples = config_.mc_samples;
    backend.spindrop_p = config_.spindrop_p;
    backend.measure_energy = config_.account_energy;
    // One mutable staging clone feeds the replica build (the TiledMlp
    // constructor only reads the weights and keeps no reference).
    core::BuiltModel staging = model.clone();
    return std::make_unique<core::TiledBackend>(staging.net, backend);
  };
  std::unique_ptr<core::FidelityBackend> base;
  switch (config_.backend) {
    case Backend::kBehavioral:
      base = behavioral();
      break;
    case Backend::kTiled:
      base = tiled();
      break;
    case Backend::kCascade: {
      std::unique_ptr<core::FidelityBackend> expensive = tiled();
      if (injector_ != nullptr &&
          config_.fault_site == FaultSite::kExpensiveRung) {
        // Faults land only on the expensive rung — the breaker's chaos
        // diet: the cheap rung stays healthy to degrade onto.
        expensive = std::make_unique<FaultyBackend>(std::move(expensive),
                                                    injector_);
      }
      base = std::make_unique<CascadeBackend>(behavioral(),
                                              std::move(expensive),
                                              config_.cascade);
      break;
    }
  }
  if (base == nullptr) {
    throw std::invalid_argument("Runtime: unknown backend");
  }
  if (injector_ != nullptr && config_.fault_site == FaultSite::kWorker) {
    base = std::make_unique<FaultyBackend>(std::move(base), injector_);
  }
  return base;
}

Runtime::Runtime(const core::BuiltModel& model, const RuntimeConfig& config)
    : config_(normalized(config)),
      policy_(config_.policy),
      tracer_(config_.trace),
      batcher_(config_.batcher) {
  if (config_.mc_samples == 0) {
    throw std::invalid_argument("Runtime: need at least one MC sample");
  }
  if (config_.fault.enabled && config_.fault_site == FaultSite::kExpensiveRung &&
      config_.backend != Backend::kCascade) {
    throw std::invalid_argument(
        "Runtime: FaultSite::kExpensiveRung requires the cascade backend");
  }
  if (config_.supervision.enabled &&
      (config_.supervision.heartbeat.count() <= 0 ||
       config_.supervision.stall_timeout.count() <= 0)) {
    throw std::invalid_argument(
        "Runtime: supervision heartbeat and stall_timeout must be positive");
  }
  // Hot-path instruments, resolved once: recording is then a relaxed
  // atomic op per event, no registry lock and no stats mutex.
  ctr_requests_ = &metrics_.counter("serve.requests");
  ctr_batches_ = &metrics_.counter("serve.batches");
  ctr_accepted_ = &metrics_.counter("serve.accepted");
  ctr_abstained_ = &metrics_.counter("serve.abstained");
  ctr_shed_ = &metrics_.counter("serve.shed");
  ctr_shed_queue_full_ = &metrics_.counter("serve.shed.queue_full");
  ctr_shed_shutdown_ = &metrics_.counter("serve.shed.shutdown");
  ctr_rejected_input_ = &metrics_.counter("serve.rejected_input");
  ctr_escalated_ = &metrics_.counter("serve.escalated");
  ctr_degraded_ = &metrics_.counter("serve.degraded");
  ctr_deadline_ = &metrics_.counter("serve.deadline_expired");
  ctr_requeued_ = &metrics_.counter("serve.requeued");
  ctr_restarts_ = &metrics_.counter("serve.worker.restarts");
  ctr_worker_stalls_ = &metrics_.counter("serve.worker.stalls");
  ctr_drain_shed_ = &metrics_.counter("serve.drain.shed");
  ctr_health_probes_ = &metrics_.counter("xbar.health.probes");
  ctr_health_failures_ = &metrics_.counter("xbar.health.canary_failures");
  ctr_health_sweeps_ = &metrics_.counter("xbar.health.sweeps");
  ctr_health_cells_faulty_ = &metrics_.counter("xbar.health.cells_faulty");
  ctr_remap_rows_ = &metrics_.counter("xbar.remap.rows");
  ctr_remap_cols_ = &metrics_.counter("xbar.remap.cols");
  ctr_remap_exhausted_ = &metrics_.counter("xbar.remap.exhausted");
  ctr_recal_runs_ = &metrics_.counter("xbar.recal.runs");
  ctr_recal_cells_ = &metrics_.counter("xbar.recal.cells");
  ctr_heals_ = &metrics_.counter("serve.health.heals");
  ctr_quarantines_ = &metrics_.counter("serve.health.quarantines");
  gauge_health_score_ = &metrics_.gauge("serve.health.score");
  gauge_health_score_->set(1.0);
  gauge_energy_total_ = &metrics_.gauge("serve.energy_pj.total");
  hist_latency_total_ = &metrics_.histogram("serve.latency.total_us");
  hist_latency_queue_ = &metrics_.histogram("serve.latency.queue_us");
  hist_latency_compute_ = &metrics_.histogram("serve.latency.compute_us");
  batcher_.bind_metrics(&metrics_.histogram("serve.batch_size"),
                        &metrics_.gauge("serve.queue_depth"));
  const std::size_t workers = config_.workers;
  // Census-price one behavioural request (the behavioural path has no
  // electrical events to measure; the tiled rungs measure instead).
  if (config_.backend != Backend::kTiled && config_.account_energy &&
      !model.arch.layers.empty()) {
    core::CensusConfig census = config_.census;
    census.mc_passes = config_.mc_samples;
    const energy::EnergyLedger ledger =
        core::inference_census(model.arch, model.method, census);
    census_energy_pj_ = ledger.total_energy(energy::default_energy_params());
  }
  if (config_.fault.enabled) {
    injector_ = std::make_shared<FaultInjector>(config_.fault);
  }
  // Worker 0's backend is built from the model; the rest are clone()s of
  // its programmed state — identical bits without re-running programming.
  backends_.reserve(workers);
  backends_.push_back(make_backend(model));
  for (std::size_t w = 1; w < workers; ++w) {
    backends_.push_back(backends_.front()->clone());
  }
  if (config_.fault.enabled || config_.supervision.enabled ||
      config_.health.enabled) {
    // Crash/stall recovery re-clones a faulted worker's backend from this
    // pristine replica (a FaultyBackend clone shares the global injector,
    // so a restarted worker stays on the fault schedule). Health
    // monitoring keeps it too: a heal that cannot restore spec (spares
    // exhausted) falls back to the same re-clone path. Only kept when
    // restarts can happen — it costs a replica of memory.
    prototype_ = backends_.front()->clone();
  }
  if (tracer_.enabled()) {
    // clone() does not propagate the tracer; attach it per replica so
    // every worker's rung/tile spans land in one trace.
    for (auto& backend : backends_) {
      backend->set_tracer(&tracer_);
    }
  }
  // clone() does not propagate metrics either; bind per replica (shared
  // cores — the breaker, the injector — bind idempotently).
  for (auto& backend : backends_) {
    backend->bind_metrics(&metrics_);
  }
  inflight_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    inflight_.push_back(std::make_unique<InFlight>());
  }
  threads_.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
    if (config_.supervision.enabled) {
      supervisor_ = std::thread([this] { supervisor_loop(); });
    }
  } catch (...) {
    // Thread spawn failed partway: release the already-started workers
    // (they would otherwise block in pop_batch forever) and join them, so
    // the exception propagates instead of ~thread calling std::terminate.
    batcher_.close();
    for (auto& thread : threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
    throw;
  }
}

Runtime::~Runtime() { shutdown(); }

void Runtime::shed_queue() {
  std::vector<Request> shed = batcher_.shed_pending();
  if (shed.empty()) {
    return;
  }
  const std::size_t depth = shed.size();
  for (auto& request : shed) {
    ctr_shed_->inc();
    ctr_shed_shutdown_->inc();
    ctr_drain_shed_->inc();
    request.promise.set_exception(std::make_exception_ptr(
        OverloadError(ShedReason::kShutdown, 0.0, depth)));
  }
}

void Runtime::shutdown() { shutdown(ShutdownOptions{}); }

void Runtime::shutdown(const ShutdownOptions& options) {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (stopped_) {
    return;
  }
  stopped_ = true;
  if (!options.drain) {
    // Fast shutdown: the backlog fails typed instead of being served.
    // Batches already on workers still finish (a promise, once popped,
    // is the worker's to settle). Shed BEFORE close — close() releases
    // every pending request to the blocked workers, so shedding first
    // keeps "queued at shutdown" deterministic — then sweep once more
    // for any submission that raced between the two.
    shed_queue();
    batcher_.close();
    shed_queue();
  } else if (options.drain_timeout.count() > 0) {
    batcher_.close();
    // Bounded drain: give the workers the budget, then shed the rest.
    const auto give_up =
        std::chrono::steady_clock::now() + options.drain_timeout;
    while (batcher_.pending() > 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    shed_queue();
  } else {
    batcher_.close();  // full drain: workers serve everything admitted
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  // Supervisor stops last: a stall during the drain still gets rescued.
  {
    std::lock_guard<std::mutex> stop(supervisor_mutex_);
    supervisor_stop_ = true;
  }
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) {
    supervisor_.join();
  }
}

std::future<ServedPrediction> Runtime::submit(std::vector<float> features) {
  const std::uint64_t id = next_request_.fetch_add(1);
  return submit_with_id(id, std::move(features),
                        request_stream_seed(config_.seed, id),
                        config_.default_deadline);
}

std::future<ServedPrediction> Runtime::submit(std::vector<float> features,
                                              std::uint64_t request_seed) {
  return submit_with_id(next_request_.fetch_add(1), std::move(features),
                        request_seed, config_.default_deadline);
}

std::future<ServedPrediction> Runtime::submit(std::vector<float> features,
                                              std::uint64_t request_seed,
                                              std::chrono::microseconds deadline) {
  return submit_with_id(next_request_.fetch_add(1), std::move(features),
                        request_seed, deadline);
}

std::future<ServedPrediction> Runtime::submit_with_id(std::uint64_t id,
                                                      std::vector<float> features,
                                                      std::uint64_t request_seed,
                                                      std::chrono::microseconds deadline) {
  Request request;
  request.id = id;
  request.features = std::move(features);
  request.seed = request_seed;
  request.enqueued = std::chrono::steady_clock::now();
  if (deadline.count() > 0) {
    request.deadline = request.enqueued + deadline;
  }
  std::future<ServedPrediction> future = request.promise.get_future();
  // Input contract: every feature is finite. A NaN or an infinity would
  // spend a full Monte-Carlo forward on an answer that means nothing, so
  // the request fails here, before it takes a queue slot.
  const auto bad = std::find_if_not(request.features.begin(), request.features.end(),
                                    [](float v) { return std::isfinite(v); });
  if (bad != request.features.end()) {
    ctr_rejected_input_->inc();
    request.promise.set_exception(std::make_exception_ptr(std::invalid_argument(
        "Runtime: request " + std::to_string(id) + " feature " +
        std::to_string(bad - request.features.begin()) + " is not finite")));
    return future;
  }
  const std::size_t depth = batcher_.pending();
  if (config_.max_queue_depth > 0 && depth >= config_.max_queue_depth) {
    // Admission control: shed instead of queueing — the future resolves
    // immediately with a machine-readable OverloadError (reason + a
    // retry-after hint from the latency histogram) and the caller can
    // back off programmatically.
    ctr_shed_->inc();
    ctr_shed_queue_full_->inc();
    request.promise.set_exception(std::make_exception_ptr(
        OverloadError(ShedReason::kQueueFull, retry_after_hint(), depth)));
    return future;
  }
  try {
    batcher_.push(std::move(request));  // rejects after shutdown()
  } catch (const std::runtime_error&) {
    // Post-shutdown submission: classify as a shed (reason kShutdown, no
    // point retrying) and rethrow the typed error to the submitter. The
    // batcher already failed the request's promise.
    ctr_shed_->inc();
    ctr_shed_shutdown_->inc();
    throw OverloadError(ShedReason::kShutdown, 0.0, depth);
  }
  return future;
}

ServedPrediction Runtime::predict(const std::vector<float>& features) {
  return submit(features).get();
}

double Runtime::retry_after_hint() const {
  // A client retrying before the oldest queued request could possibly
  // complete is wasted work: floor the hint at the linger budget (and an
  // absolute 100us) so a cold histogram (or one that has only seen
  // sub-floor latencies) still yields a sane back-off.
  const double floor_us = std::max(
      kRetryAfterFloorUs,
      std::chrono::duration<double, std::micro>(config_.batcher.max_linger).count());
  return std::max(floor_us, hist_latency_total_->quantile(0.50));
}

RuntimeStats Runtime::stats() const {
  RuntimeStats out;
  out.requests = ctr_requests_->value();
  out.batches = ctr_batches_->value();
  out.accepted = ctr_accepted_->value();
  out.abstained = ctr_abstained_->value();
  out.shed = ctr_shed_->value();
  out.shed_queue_full = ctr_shed_queue_full_->value();
  out.shed_shutdown = ctr_shed_shutdown_->value();
  out.escalated = ctr_escalated_->value();
  out.degraded = ctr_degraded_->value();
  out.deadline_expired = ctr_deadline_->value();
  out.requeued = ctr_requeued_->value();
  out.worker_restarts = ctr_restarts_->value();
  out.worker_stalls = ctr_worker_stalls_->value();
  out.health_probes = ctr_health_probes_->value();
  out.health_failures = ctr_health_failures_->value();
  out.heals = ctr_heals_->value();
  out.quarantines = ctr_quarantines_->value();
  out.health_score = gauge_health_score_->value();
  out.mean_batch_size =
      out.batches == 0 ? 0.0
                       : static_cast<double>(out.requests) /
                             static_cast<double>(out.batches);
  out.total_energy_pj = gauge_energy_total_->value();
  const obs::HistogramSnapshot compute = hist_latency_compute_->snapshot();
  out.total_compute_us = compute.sum;
  out.queue_depth = batcher_.pending();
  const obs::HistogramSnapshot latency = hist_latency_total_->snapshot();
  out.window_p50_us = latency.quantile(0.50);
  out.window_p99_us = latency.quantile(0.99);
  return out;
}

xbar::DeltaStats Runtime::delta_stats() const {
  xbar::DeltaStats stats;
  for (const auto& backend : backends_) {
    stats += backend->delta_stats();
  }
  return stats;
}

void Runtime::worker_loop(std::size_t worker_index) {
  for (;;) {
    std::vector<Request> batch = batcher_.pop_batch();
    if (batch.empty()) {
      return;  // closed and drained
    }
    ctr_batches_->inc();
    if (!serve_batch(worker_index, std::move(batch))) {
      // The backend faulted (crash) or was deposed mid-stall: replace it
      // before touching another batch. Any requests it stranded were
      // already re-queued, so recovery costs a clone, never a request.
      restart_backend(worker_index);
    }
    // Health monitoring runs BETWEEN batches on the worker's own thread:
    // queued requests wait out a probe/heal, they are never dropped.
    maybe_probe(worker_index);
  }
}

void Runtime::restart_backend(std::size_t worker_index) {
  if (prototype_ == nullptr) {
    return;  // no restart capability configured; keep the old instance
  }
  backends_[worker_index] = prototype_->clone();
  if (tracer_.enabled()) {
    backends_[worker_index]->set_tracer(&tracer_);
  }
  backends_[worker_index]->bind_metrics(&metrics_);
  ctr_restarts_->inc();
}

namespace {

/// Unwrap the fault decorator (if mounted at the worker seam) and find
/// the cascade, so a failed probe can trip the shared breaker.
CascadeBackend* find_cascade(core::FidelityBackend& backend) {
  core::FidelityBackend* inner = &backend;
  if (auto* faulty = dynamic_cast<FaultyBackend*>(inner)) {
    inner = &faulty->inner();
  }
  return dynamic_cast<CascadeBackend*>(inner);
}

}  // namespace

void Runtime::maybe_probe(std::size_t worker_index) {
  if (!config_.health.enabled) {
    return;
  }
  // One global ticket per served batch: whether ticket n probes is a pure
  // function of n (same replayability contract as the fault schedule —
  // which worker draws the ticket is a scheduling accident).
  const std::uint64_t ticket = health_ticket_.fetch_add(1) + 1;
  const bool probe_due =
      config_.health.probe_every > 0 && ticket % config_.health.probe_every == 0;
  const bool recal_due =
      config_.health.recal_every > 0 && ticket % config_.health.recal_every == 0;
  core::FidelityBackend& backend = *backends_[worker_index];
  if (recal_due && !probe_due) {
    // Preventive recalibration: blind re-program against reference
    // weights + ADC offset zeroing, no probe cost.
    obs::ScopedSpan span(&tracer_, "health:recal", "health");
    const std::size_t cells = backend.recalibrate();
    ctr_recal_runs_->inc();
    ctr_recal_cells_->inc(cells);
    return;
  }
  if (!probe_due) {
    return;
  }
  xbar::HealthReport report;
  {
    obs::ScopedSpan span(&tracer_, "health:probe", "health");
    span.arg("ticket", static_cast<double>(ticket));
    span.arg("worker", static_cast<double>(worker_index));
    report = backend.check_health(config_.health.probe);
    span.arg("score", report.score());
  }
  ctr_health_probes_->inc();
  if (report.cells_checked > 0) {
    ctr_health_sweeps_->inc();
    ctr_health_cells_faulty_->inc(report.cells_faulty);
  }
  gauge_health_score_->set(report.score());
  if (report.healthy()) {
    if (recal_due) {
      obs::ScopedSpan span(&tracer_, "health:recal", "health");
      const std::size_t cells = backend.recalibrate();
      ctr_recal_runs_->inc();
      ctr_recal_cells_->inc(cells);
    }
    return;
  }
  ctr_health_failures_->inc();
  // Out of spec. First: stop trusting the electrical rung — force the
  // (shared) breaker open so would-escalate requests on EVERY worker get
  // the cheap rung's bits flagged `degraded` while this substrate heals.
  if (auto* cascade = find_cascade(backend)) {
    cascade->quarantine_expensive();
    ctr_quarantines_->inc();
  }
  if (!config_.health.auto_heal) {
    return;
  }
  xbar::HealSummary summary;
  {
    obs::ScopedSpan span(&tracer_, "health:heal", "health");
    span.arg("ticket", static_cast<double>(ticket));
    span.arg("worker", static_cast<double>(worker_index));
    summary = backend.heal(config_.health.probe);
    span.arg("healthy_after", summary.healthy_after ? 1.0 : 0.0);
  }
  ctr_heals_->inc();
  ctr_remap_rows_->inc(summary.rows_remapped);
  ctr_remap_cols_->inc(summary.cols_remapped);
  ctr_remap_exhausted_->inc(summary.lines_unrepairable);
  ctr_recal_runs_->inc();
  ctr_recal_cells_->inc(summary.cells_recalibrated);
  if (summary.healthy_after) {
    gauge_health_score_->set(1.0);
    return;
  }
  // Spares exhausted (or a defect healing cannot reach): this substrate is
  // beyond in-place repair. Fall back to the crash-recovery path — replace
  // the worker's backend with a pristine re-clone (chip swap). Queued
  // requests simply wait for the clone; none are lost.
  restart_backend(worker_index);
  if (prototype_ != nullptr) {
    gauge_health_score_->set(1.0);
  }
}

void Runtime::supervisor_loop() {
  std::unique_lock<std::mutex> lock(supervisor_mutex_);
  for (;;) {
    supervisor_cv_.wait_for(lock, config_.supervision.heartbeat);
    if (supervisor_stop_) {
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& slot_ptr : inflight_) {
      InFlight& slot = *slot_ptr;
      std::vector<Request> rescue;
      {
        std::lock_guard<std::mutex> slot_lock(slot.mutex);
        if (!slot.busy || slot.deposed ||
            now - slot.started < config_.supervision.stall_timeout) {
          continue;
        }
        // Stalled: depose the worker and steal its unanswered requests.
        // done[i] = 1 transfers promise ownership to us, so the worker —
        // if it ever wakes inside the forward — publishes nothing.
        for (std::size_t i = 0; i < slot.requests.size(); ++i) {
          if (slot.done[i] != 0) {
            continue;
          }
          slot.done[i] = 1;
          Request& request = slot.requests[i];
          if (request.retries == 0) {
            request.retries = 1;
            rescue.push_back(std::move(request));
          } else {
            // Stranded twice: stop gambling worker time on it.
            request.promise.set_exception(
                std::make_exception_ptr(std::runtime_error(
                    "Runtime: request abandoned after repeated worker "
                    "stalls")));
          }
        }
        slot.deposed = true;
        ctr_worker_stalls_->inc();
      }
      if (!rescue.empty()) {
        ctr_requeued_->inc(rescue.size());
        batcher_.requeue(std::move(rescue));
      }
    }
  }
}

void Runtime::publish_prediction(Request& request,
                                 const core::Prediction& prediction,
                                 std::chrono::steady_clock::time_point popped,
                                 std::chrono::steady_clock::time_point compute_begin,
                                 std::chrono::steady_clock::time_point compute_end,
                                 double compute_share_us, double energy_pj,
                                 bool escalated, bool degraded,
                                 std::size_t batch_size,
                                 std::size_t worker_index) {
  const double queue_us = to_us(popped - request.enqueued);
  const double total_us = to_us(compute_end - request.enqueued);
  ServedPrediction served;
  served.request_id = request.id;
  served.escalated = escalated;
  served.degraded = degraded;
  served.probs.assign(prediction.mean_probs.data().begin(),
                      prediction.mean_probs.data().end());
  served.predicted_class = prediction.predicted_class().front();
  served.confidence = served.probs[served.predicted_class];
  served.entropy = prediction.entropy.front();
  served.mutual_info = prediction.mutual_info.front();
  // Per-request spans land on a synthetic per-request track so one
  // request's queue/forward/policy intervals nest cleanly even when its
  // batch companions interleave on the worker thread.
  const bool sampled = tracer_.sampled(request.id);
  const std::uint64_t track = obs::Tracer::kRequestTrackBase + request.id;
  const double policy_begin_us = sampled ? tracer_.now_us() : 0.0;
  const SelectivePolicy::Decision decision =
      policy_.decide(served.confidence, served.entropy, served.mutual_info);
  if (sampled) {
    tracer_.record({"policy", "serve", policy_begin_us, tracer_.now_us(), track,
                    {{"accepted", decision.accepted ? 1.0 : 0.0},
                     {"score", decision.score}},
                    {}});
  }
  served.accepted = decision.accepted;
  served.policy_score = decision.score;
  served.mc_samples = config_.mc_samples;
  served.queue_latency_us = queue_us;
  served.compute_latency_us = compute_share_us;
  served.total_latency_us = total_us;
  served.energy_pj = energy_pj;
  served.batch_size = batch_size;
  served.worker = worker_index;
  ctr_requests_->inc();
  (served.accepted ? ctr_accepted_ : ctr_abstained_)->inc();
  if (escalated) {
    ctr_escalated_->inc();
  }
  if (degraded) {
    ctr_degraded_->inc();
  }
  gauge_energy_total_->add(served.energy_pj);
  hist_latency_total_->record(total_us);
  hist_latency_queue_->record(queue_us);
  hist_latency_compute_->record(compute_share_us);
  if (sampled) {
    tracer_.record({"queue", "serve", tracer_.to_us(request.enqueued),
                    tracer_.to_us(popped), track, {}, {}});
    tracer_.record({"forward", "serve", tracer_.to_us(compute_begin),
                    tracer_.to_us(compute_end), track,
                    {{"escalated", escalated ? 1.0 : 0.0},
                     {"batch_size", static_cast<double>(batch_size)},
                     {"worker", static_cast<double>(worker_index)}},
                    {}});
    // The request span closes at fulfillment time (just below), covering
    // enqueue -> reply end to end.
    tracer_.record({"request", "serve", tracer_.to_us(request.enqueued),
                    tracer_.now_us(), track,
                    {{"id", static_cast<double>(request.id)}},
                    {{"backend", backends_[worker_index]->name()}}});
  }
  request.promise.set_value(std::move(served));
}

void Runtime::fold_energy(const energy::EnergyLedger& ledger) {
  const energy::EnergyParams& params = energy::default_energy_params();
  for (std::size_t c = 0; c < static_cast<std::size_t>(energy::Component::kCount_);
       ++c) {
    const auto component = static_cast<energy::Component>(c);
    const std::uint64_t events = ledger.count(component);
    if (events == 0) {
      continue;
    }
    const std::string name = energy::component_name(component);
    metrics_.counter("energy.events." + name).inc(events);
    metrics_.gauge("energy.pj." + name)
        .add(ledger.component_energy(component, params));
  }
}

namespace {

/// Is a group failure worth a (single) retry on a fresh backend? Shape
/// and argument errors are deterministic — retrying replays them — so
/// they fail fast; everything else (InjectedFault, backend exceptions)
/// is treated as a worker fault.
bool retryable_failure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::invalid_argument&) {
    return false;
  } catch (...) {
    return true;
  }
}

}  // namespace

bool Runtime::serve_batch(std::size_t worker_index, std::vector<Request> batch) {
  const auto popped = std::chrono::steady_clock::now();
  const std::size_t batch_rows = batch.size();
  core::FidelityBackend& backend = *backends_[worker_index];
  InFlight& slot = *inflight_[worker_index];
  // Worker-track span covering the whole pop (rung spans from the backend
  // nest inside it on the same thread track).
  obs::ScopedSpan batch_span(&tracer_, "batch", "serve");
  batch_span.arg("rows", static_cast<double>(batch_rows));
  batch_span.arg("worker", static_cast<double>(worker_index));
  // Group by feature count, preserving arrival order inside each group: a
  // wrong-sized submission then fails with its own shape error without
  // poisoning well-formed companions in the same pop.
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> groups;
  {
    // Park the batch in the worker's in-flight slot so the supervisor can
    // see (and rescue) it, and fail already-expired deadlines before any
    // forward work. done[i] is the promise-ownership bit from here on.
    std::lock_guard<std::mutex> slot_lock(slot.mutex);
    slot.requests = std::move(batch);
    slot.done.assign(slot.requests.size(), 0);
    slot.started = popped;
    slot.busy = true;
    slot.deposed = false;
    for (std::size_t r = 0; r < slot.requests.size(); ++r) {
      Request& request = slot.requests[r];
      if (request.deadline != std::chrono::steady_clock::time_point{} &&
          popped >= request.deadline) {
        slot.done[r] = 1;
        ctr_deadline_->inc();
        request.promise.set_exception(std::make_exception_ptr(
            DeadlineExceeded(request.id, to_us(popped - request.deadline))));
        continue;
      }
      const std::size_t f = request.features.size();
      auto it = std::find_if(groups.begin(), groups.end(),
                             [f](const auto& g) { return g.first == f; });
      if (it == groups.end()) {
        groups.push_back({f, {r}});
      } else {
        it->second.push_back(r);
      }
    }
  }

  bool healthy = true;
  for (auto& [features, members] : groups) {
    std::vector<std::size_t> live;  ///< members still unsettled at build time
    std::exception_ptr error;
    std::optional<core::BackendBatch> answered;
    std::chrono::steady_clock::time_point compute_begin;
    std::chrono::steady_clock::time_point compute_end;
    try {
      const std::size_t rows = members.size();
      nn::Tensor inputs({rows, features});
      std::vector<std::uint64_t> seeds(rows);
      {
        // Snapshot features/seeds under the lock, skipping members the
        // supervisor already rescued (their Request slots are moved-from).
        std::lock_guard<std::mutex> slot_lock(slot.mutex);
        for (const std::size_t r : members) {
          if (slot.done[r] == 0) {
            live.push_back(r);
          }
        }
        if (live.size() != rows) {
          inputs = nn::Tensor({live.size(), features});
          seeds.resize(live.size());
        }
        for (std::size_t b = 0; b < live.size(); ++b) {
          const Request& request = slot.requests[live[b]];
          std::copy(request.features.begin(), request.features.end(),
                    inputs.data().begin() +
                        static_cast<std::ptrdiff_t>(b * features));
          seeds[b] = request.seed;
        }
      }
      if (live.empty()) {
        continue;
      }
      // Per-component energy fold: hand the backend a batch ledger when it
      // has electrical events to merge (the behavioural path has none —
      // its energy is the census constant already in energy_pj).
      std::optional<energy::EnergyLedger> batch_ledger;
      if (config_.account_energy && config_.backend != Backend::kBehavioral) {
        batch_ledger.emplace(config_.tile.adc_bits);
      }
      compute_begin = std::chrono::steady_clock::now();
      // One batched forward answers the whole group (UNLOCKED — this is
      // where a fault plan stalls or crashes us); per-request streams
      // derive from the request seeds, so the grouping is invisible in
      // the results. Energy comes back per request (census-priced,
      // measured, or cascade-summed, by backend).
      answered.emplace(backend.forward(
          inputs, seeds, batch_ledger ? &*batch_ledger : nullptr));
      compute_end = std::chrono::steady_clock::now();
      if (batch_ledger) {
        fold_energy(*batch_ledger);
      }
    } catch (...) {
      error = std::current_exception();
    }

    if (!error) {
      if (live.empty()) {
        continue;
      }
      // The batched forward computes all rows at once; each request is
      // attributed its amortized share of the group's compute time.
      const double compute_share =
          to_us(compute_end - compute_begin) / static_cast<double>(live.size());
      std::lock_guard<std::mutex> slot_lock(slot.mutex);
      for (std::size_t b = 0; b < live.size(); ++b) {
        const std::size_t r = live[b];
        if (slot.done[r] != 0) {
          continue;  // rescued mid-forward: the answer is theirs now
        }
        slot.done[r] = 1;
        const bool degraded =
            b < answered->degraded.size() && answered->degraded[b] != 0;
        publish_prediction(slot.requests[r], answered->predictions[b], popped,
                           compute_begin, compute_end, compute_share,
                           answered->energy_pj[b],
                           answered->escalated[b] != 0, degraded, batch_rows,
                           worker_index);
      }
      continue;
    }

    // The group failed. Retryable failures re-queue each first-time
    // victim exactly once (same request seed — the retried answer is
    // bitwise the answer this forward would have produced); deterministic
    // failures and second-time victims fail to the client.
    const bool retry = retryable_failure(error);
    if (retry) {
      healthy = false;  // the backend is suspect: re-clone before reuse
    }
    std::vector<Request> requeue;
    {
      std::lock_guard<std::mutex> slot_lock(slot.mutex);
      for (const std::size_t r : live) {
        if (slot.done[r] != 0) {
          continue;
        }
        slot.done[r] = 1;
        Request& request = slot.requests[r];
        if (retry && request.retries == 0) {
          request.retries = 1;
          requeue.push_back(std::move(request));
        } else {
          request.promise.set_exception(error);
        }
      }
    }
    if (!requeue.empty()) {
      ctr_requeued_->inc(requeue.size());
      // Back at the queue head BEFORE this worker returns to pop_batch:
      // pop_batch only reports "drained" when the queue is truly empty,
      // so a re-queued request can never be lost to a racing shutdown.
      batcher_.requeue(std::move(requeue));
    }
  }

  {
    std::lock_guard<std::mutex> slot_lock(slot.mutex);
    slot.busy = false;
    if (slot.deposed) {
      healthy = false;  // we were declared stalled: re-clone our backend
    }
    slot.requests.clear();
    slot.done.clear();
  }
  return healthy;
}

}  // namespace neuspin::serve

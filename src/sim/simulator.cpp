#include "sim/simulator.hpp"

#include <algorithm>
#include <string>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::sim {

namespace {

/// Blocked-worm saturation cap: max(kMinWaitingCap, kWaitingPerNode * N).
constexpr std::int64_t kMinWaitingCap = 10'000;
constexpr std::int64_t kWaitingPerNode = 50;
/// Share of the measured stream deleted when MSER-5 cannot determine a
/// cutoff (DESIGN.md §11.2).
constexpr double kMser5FallbackFraction = 0.1;

}  // namespace

const char* to_string(NetKind kind) {
  switch (kind) {
    case NetKind::kIcn1: return "ICN1";
    case NetKind::kEcn1: return "ECN1";
    case NetKind::kIcn2: return "ICN2";
  }
  return "?";
}

Simulator::Simulator(const topo::MultiClusterTopology& topology,
                     const model::NetworkParams& params, double lambda_g,
                     SimConfig config)
    : topology_(topology),
      params_(params),
      lambda_(lambda_g),
      config_(std::move(config)),
      layout_([&] {
        params_.validate();
        if (!(lambda_ > 0.0))
          throw ConfigError("Simulator: lambda_g must be > 0");
        if (config_.measured_messages < 1 || config_.warmup_messages < 0)
          throw ConfigError("Simulator: bad phase configuration");

        // Canonical network order: (ICN1_0, ECN1_0, ICN1_1, ECN1_1, ...,
        // ICN2) with the global service-time table (layout.cpp).
        return build_layout(topology_, params_, config_.relay_mode,
                            config_.flow_control);
      }()),
      engine_(layout_.service, params_.message_flits, queue_, *this,
              config_.flow_control),
      sampler_(topology_, config_.pattern),
      latency_(config_.batch_size),
      internal_latency_(config_.batch_size),
      external_latency_(config_.batch_size) {
  const std::int64_t n = topology_.total_nodes();
  MCS_EXPECTS(n <= EventQueue::kMaxPayload);
  cluster_of_.reserve(static_cast<std::size_t>(n));
  local_of_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < topology_.config().cluster_count(); ++i) {
    const auto size =
        static_cast<topo::EndpointId>(topology_.config().cluster_size(i));
    for (topo::EndpointId l = 0; l < size; ++l) {
      cluster_of_.push_back(i);
      local_of_.push_back(l);
    }
  }
  MCS_ENSURES(static_cast<std::int64_t>(cluster_of_.size()) == n);

  util::Rng master(config_.seed);
  node_rng_.reserve(static_cast<std::size_t>(n));
  for (std::int64_t g = 0; g < n; ++g)
    node_rng_.push_back(master.fork(static_cast<std::uint64_t>(g)));

  per_cluster_.resize(
      static_cast<std::size_t>(topology_.config().cluster_count()));

  cluster_lambda_.reserve(
      static_cast<std::size_t>(topology_.config().cluster_count()));
  for (int i = 0; i < topology_.config().cluster_count(); ++i)
    cluster_lambda_.push_back(topology_.config().cluster_load_scale(i) *
                              lambda_);

  // Shape the route memo to its use-sites (see layout.hpp).
  routes_.init(topology_, layout_);

  // Pre-size the hot pools: recycled worm rows for the expected number of
  // concurrently live worms, and the two event heaps' high-water marks
  // (the in-flight worm events — a worm contributes one pending event
  // while advancing and, at drain time, its kWormDone plus up to one
  // kRelease per hop — and the standing kGenerate event per node).
  engine_.reserve_worms(256, layout_.max_path_len);
  queue_.reserve(256 * static_cast<std::size_t>(layout_.max_path_len + 2),
                 static_cast<std::size_t>(n));

  waiting_cap_ = std::max(kMinWaitingCap, kWaitingPerNode * n);
  generated_cap_ =
      config_.max_generated > 0
          ? config_.max_generated
          : 4 * (config_.warmup_messages + config_.measured_messages);
  measured_latencies_.reserve(
      static_cast<std::size_t>(config_.measured_messages));
  if (config_.warmup_deletion != WarmupDeletion::kOff) {
    measured_cluster_.reserve(
        static_cast<std::size_t>(config_.measured_messages));
    measured_is_internal_.reserve(
        static_cast<std::size_t>(config_.measured_messages));
  }

  // Observability hookup (off = all pointers null, zero further cost).
  probes_ = config_.probes;
  trace_ = config_.trace;
  anatomy_ = config_.anatomy;
  if (probes_ != nullptr)
    for (std::size_t c = 0; c < layout_.channel_net.size(); ++c)
      ++class_channels_[static_cast<int>(
          layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])]
              .kind)];
  if (anatomy_ != nullptr) {
    // Hand the anatomy the channel -> network-class table (NetKind's
    // 0/1/2 order IS the obs class convention).
    std::vector<std::uint8_t> channel_class(layout_.channel_net.size());
    for (std::size_t c = 0; c < layout_.channel_net.size(); ++c)
      channel_class[c] = static_cast<std::uint8_t>(
          layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])]
              .kind);
    anatomy_->prepare(std::move(channel_class));
  }
}

std::uint64_t Simulator::events_processed() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : events_by_kind_) sum += n;
  return sum;
}

Simulator::StopCause Simulator::should_stop(double now) const {
  if (events_processed() > config_.max_events) return StopCause::kEvents;
  if (now > config_.max_time) return StopCause::kTime;
  if (engine_.waiting_worms() > waiting_cap_) return StopCause::kWorms;
  if (generated_ > generated_cap_) return StopCause::kGenerated;
  if (drift_.fired()) return StopCause::kDrift;
  return StopCause::kNone;
}

SimResult Simulator::run() {
  if (config_.collect_channel_stats) engine_.enable_channel_stats();
  if (anatomy_ != nullptr && !config_.collect_channel_stats) {
    // The anatomy's per-station rho-hat is a measured-window statistic, so
    // it adopts collect_channel_stats' semantics: the window opens when
    // the warmup ends (handle_generate).
    engine_.enable_channel_stats();
  }
  if (probes_ != nullptr && !config_.collect_channel_stats &&
      anatomy_ == nullptr) {
    // Probes need busy-time accounting too, but over the WHOLE run (the
    // warmup transient is exactly what they exist to show), so the window
    // opens at t = 0 instead of the measured phase's start. When channel
    // stats or an anatomy are also on, the measured-window semantics win
    // and probe utilization reads 0 until the warmup ends.
    engine_.enable_channel_stats();
    engine_.set_stats_window_start(0.0);
  }

  const std::int64_t n = topology_.total_nodes();
  for (std::int64_t g = 0; g < n; ++g) {
    const auto node = static_cast<std::int32_t>(g);
    queue_.push(node_rng_[static_cast<std::size_t>(g)].exponential(
                    node_lambda(node)),
                EventKind::kGenerate, node);
  }

  SimResult result;
  const auto mark_saturated = [&result](StopCause cause) {
    const StopCauseText text = stop_cause_text(static_cast<int>(cause));
    result.saturated = true;
    result.saturation_reason = text.reason;
    result.saturation_cause = text.cause;
  };
  // The resource caps are polled every 4096 pops (`popped` stays in a
  // register; events_by_kind_ counts the same pops by kind). The drift
  // test is read at each pop, so an overloaded run stops at the measured
  // batch whose mean fired it.
  double now = 0.0;
  std::uint64_t popped = 0;
  while (delivered_measured_ < config_.measured_messages &&
         !drift_.fired()) {
    MCS_ASSERT(!queue_.empty());
    if ((popped & 0xFFF) == 0) {
      const StopCause cause = should_stop(now);
      if (cause != StopCause::kNone) {
        mark_saturated(cause);
        break;
      }
    }
    const Event ev = queue_.pop();
    ++popped;
    ++events_by_kind_[static_cast<std::size_t>(ev.kind)];
    now = ev.time;
    if (ev.kind == EventKind::kGenerate) {
      handle_generate(ev.a, now);
    } else {
      engine_.handle(ev);
    }
    // Observability hook: one pointer test per event when disabled. due()
    // never consumes RNG and record_probe() only reads state, so the
    // event flow is bit-identical with probes on or off.
    if (probes_ != nullptr && probes_->due(now)) record_probe(now);
  }
  // A cap may be crossed after the last poll; re-reading every stop here
  // keeps the verdict independent of the polling cadence.
  if (!result.saturated) {
    const StopCause cause = should_stop(now);
    if (cause != StopCause::kNone) mark_saturated(cause);
  }
  if (probes_ != nullptr &&
      (probes_->samples().empty() || now > probes_->samples().back().time)) {
    // Always close the series with the final state: short runs whose
    // interval never fired, and saturated runs mid-interval, still get a
    // diagnosable last snapshot.
    record_probe(now);
  }

  // Initial-transient deletion (DESIGN.md §11): decide the cutoff over the
  // latency stream in delivery order, then rebuild the latency statistics
  // from the suffix. Runs before the percentile pass below, which permutes
  // measured_latencies_ in place.
  if (config_.warmup_deletion == WarmupDeletion::kMser5 &&
      !measured_latencies_.empty()) {
    const std::size_t measured = measured_latencies_.size();
    const util::Mser5Result mser = util::mser5_cutoff(measured_latencies_);
    result.warmup_fallback = mser.undetermined;
    std::size_t cut =
        mser.undetermined
            ? static_cast<std::size_t>(kMser5FallbackFraction *
                                       static_cast<double>(measured))
            : mser.cutoff;
    if (cut >= measured) cut = measured - 1;  // always keep >= one message
    if (cut > 0) apply_warmup_deletion(cut);
    result.warmup_deleted = static_cast<std::int64_t>(cut);
  }

  result.latency = latency_.interval();
  if (!measured_latencies_.empty()) {
    result.latency_p50 = util::percentile_inplace(measured_latencies_, 0.50);
    result.latency_p95 = util::percentile_inplace(measured_latencies_, 0.95);
    result.latency_p99 = util::percentile_inplace(measured_latencies_, 0.99);
  }
  result.internal_latency = internal_latency_.interval();
  result.external_latency = external_latency_.interval();
  result.mean_source_wait = source_wait_.mean();
  result.mean_conc_wait = conc_wait_.mean();
  result.mean_disp_wait = disp_wait_.mean();
  result.generated = generated_;
  result.delivered_measured = delivered_measured_;
  result.measured_internal =
      static_cast<std::int64_t>(internal_latency_.count());
  result.measured_external =
      static_cast<std::int64_t>(external_latency_.count());
  result.end_time = now;
  result.events_processed = popped;
  result.events_by_kind = events_by_kind_;
  result.worms_spawned = engine_.total_spawned();
  for (const auto& m : per_cluster_) {
    result.per_cluster_latency.push_back(m.mean());
    result.per_cluster_count.push_back(static_cast<std::int64_t>(m.count()));
  }
  if (config_.collect_channel_stats) collect_channel_classes(result);
  if (anatomy_ != nullptr) {
    std::vector<double> busy(engine_.channel_count());
    for (std::size_t c = 0; c < busy.size(); ++c)
      busy[c] = engine_.busy_time(static_cast<GlobalChannelId>(c));
    anatomy_->finalize(result.end_time - measure_start_time_, busy);
  }
  return result;
}

void Simulator::record_probe(double now) {
  obs::ProbeSample s;
  s.time = now;
  s.events = events_processed();
  s.queue_depth = static_cast<std::int64_t>(queue_.size());
  s.live_worms = engine_.live_worms();
  s.waiting_worms = engine_.waiting_worms();
  s.pool_rows = engine_.pool_rows();
  s.generated = generated_;
  s.delivered_measured = delivered_measured_;

  // Per-class utilization over the window since the previous sample:
  // delta of the engine's cumulative busy time, normalized by channel
  // count and window length. O(channels) per sample — off the per-event
  // hot path by construction.
  double busy[obs::kNetClasses] = {0.0, 0.0, 0.0};
  for (std::size_t c = 0; c < layout_.channel_net.size(); ++c)
    busy[static_cast<int>(
        layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])]
            .kind)] += engine_.busy_time(static_cast<GlobalChannelId>(c));
  const double dt = now - probe_prev_time_;
  for (int k = 0; k < obs::kNetClasses; ++k) {
    if (dt > 0.0 && class_channels_[k] > 0) {
      const double u = (busy[k] - probe_prev_busy_[k]) /
                       (dt * static_cast<double>(class_channels_[k]));
      s.utilization[k] = std::clamp(u, 0.0, 1.0);
    }
    probe_prev_busy_[k] = busy[k];
  }
  probe_prev_time_ = now;

  s.per_cluster_delivered.reserve(per_cluster_.size());
  for (const util::OnlineMoments& m : per_cluster_)
    s.per_cluster_delivered.push_back(static_cast<std::int64_t>(m.count()));
  probes_->record(std::move(s));
}

void Simulator::handle_generate(std::int32_t node, double now) {
  auto& rng = node_rng_[static_cast<std::size_t>(node)];
  queue_.push(now + rng.exponential(node_lambda(node)), EventKind::kGenerate,
              node);

  const std::int64_t idx = generated_++;
  if (idx == config_.warmup_messages) {
    measure_start_time_ = now;
    // Probes-only runs keep the stats window open from t = 0 (see run());
    // the measured-window reset belongs to channel stats and the anatomy.
    if (config_.collect_channel_stats || anatomy_ != nullptr)
      engine_.set_stats_window_start(now);
  }

  std::int32_t msg_id;
  if (!free_msgs_.empty()) {
    msg_id = free_msgs_.back();
    free_msgs_.pop_back();
  } else {
    msg_id = static_cast<std::int32_t>(msgs_.size());
    msgs_.emplace_back();
  }
  MsgRec& m = msgs_[static_cast<std::size_t>(msg_id)];

  const std::int32_t src_cluster = cluster_of_[static_cast<std::size_t>(node)];
  const std::int64_t dst_global = sampler_.sample(node, src_cluster, rng);
  MCS_ASSERT(dst_global != node);

  m.gen_time = now;
  m.src_cluster = src_cluster;
  m.src_local = local_of_[static_cast<std::size_t>(node)];
  m.dst_cluster = cluster_of_[static_cast<std::size_t>(dst_global)];
  m.dst_local = local_of_[static_cast<std::size_t>(dst_global)];
  m.internal = m.dst_cluster == m.src_cluster;
  if (m.internal) {
    m.segment = 0;
  } else {
    m.segment =
        config_.relay_mode == RelayMode::kCutThrough ? std::int8_t{4}
                                                     : std::int8_t{1};
  }
  m.measured = idx >= config_.warmup_messages &&
               idx < config_.warmup_messages + config_.measured_messages;
  // Deterministic 1-in-K trace sampling by generation index: RNG state
  // and event flow are untouched whether or not the message is traced.
  m.trace_tid =
      trace_ != nullptr && idx % trace_->sample_every() == 0
          ? next_trace_tid_++
          : -1;
  if (anatomy_ != nullptr) m.anatomy_sum = 0.0;  // MsgRecs are recycled

  spawn_segment(msg_id, now);
}

void Simulator::spawn_segment(std::int32_t msg_id, double now) {
  const MsgRec& m = msgs_[static_cast<std::size_t>(msg_id)];
  switch (m.segment) {
    case 0:  // internal: one worm through the cluster's ICN1
      engine_.spawn(msg_id, routes_.icn1(m), now);
      return;
    case 1:  // external leg 1: source ECN1, node -> concentrator
      engine_.spawn(msg_id, routes_.ecn1_out(m), now);
      return;
    case 2:  // external leg 2: ICN2, concentrator_i -> concentrator_v
      engine_.spawn(msg_id, routes_.icn2(m), now);
      return;
    case 3:  // external leg 3: destination ECN1, concentrator -> node
      engine_.spawn(msg_id, routes_.ecn1_in(m), now);
      return;
    case 4:  // cut-through: the three external legs as one merged worm
      engine_.spawn(msg_id, routes_.cut_through(m), now);
      return;
    default:
      MCS_ASSERT(false);
  }
}

void Simulator::on_worm_done(WormId worm, double time) {
  const Worm& w = engine_.worm(worm);
  MsgRec& m = msgs_[static_cast<std::size_t>(w.msg)];

  if (m.measured) {
    const double wait = engine_.acquire_times(worm).front() - w.enqueue_time;
    switch (m.segment) {
      case 0:
      case 1:
      case 4:
        source_wait_.add(wait);
        break;
      case 2:
        conc_wait_.add(wait);
        break;
      case 3:
        disp_wait_.add(wait);
        break;
      default:
        MCS_ASSERT(false);
    }
    if (anatomy_ != nullptr) record_anatomy(w, m, worm, time);
  }

  if (m.trace_tid >= 0) trace_worm(w, m, worm, time);

  if (m.segment == 0 || m.segment == 3 || m.segment == 4) {
    finalize(w.msg, time);
  } else {
    ++m.segment;
    spawn_segment(w.msg, time);
  }
}

void Simulator::trace_worm(const Worm& w, const MsgRec& m, WormId worm,
                           double time) {
  static constexpr const char* kLegName[] = {"icn1", "ecn1_out", "icn2",
                                             "ecn1_in", "cut_through"};
  const std::span<const double> acq = engine_.acquire_times(worm);
  const std::span<const GlobalChannelId> path = engine_.path_of(worm);
  const std::int32_t tid = m.trace_tid;

  // Leg span: enqueue -> tail drained, with the injection wait and hop
  // count as args.
  trace_->complete(
      kLegName[m.segment], tid, w.enqueue_time, time - w.enqueue_time,
      "\"hops\":" + std::to_string(w.len) +
          ",\"wait\":" + std::to_string(acq.front() - w.enqueue_time));
  // Source-queue wait: enqueue -> first channel grant.
  trace_->complete("queue_wait", tid, w.enqueue_time,
                   acq.front() - w.enqueue_time);
  // Per-hop channel occupancy of the header: grant of hop h -> grant of
  // hop h+1 (the last hop runs to the drain instant). Spans tile the leg
  // exactly, so Perfetto renders the header's walk down the path.
  for (std::int32_t h = 0; h < w.len; ++h) {
    const double end =
        h + 1 < w.len ? acq[static_cast<std::size_t>(h) + 1] : time;
    trace_->complete(
        "hop", tid, acq[static_cast<std::size_t>(h)],
        end - acq[static_cast<std::size_t>(h)],
        "\"ch\":" + std::to_string(path[static_cast<std::size_t>(h)]));
  }
}

void Simulator::record_anatomy(const Worm& w, MsgRec& m, WormId worm,
                               double time) {
  const std::span<const double> acq = engine_.acquire_times(worm);
  const std::span<const GlobalChannelId> path = engine_.path_of(worm);
  // Leg decomposition: wait (enqueue -> first grant), header walk (first
  // grant -> header at the endpoint, i.e. the last hop's grant plus its
  // crossing), tail drain (header at endpoint -> tail drained; exactly 0
  // under store-and-forward, whose crossing is the whole transmission).
  const double wait = acq.front() - w.enqueue_time;
  const double header_end = acq.back() + engine_.crossing_time(path.back());
  const double header = header_end - acq.front();
  const double drain = time - header_end;
  const int seg = m.segment;
  anatomy_->record_leg(seg, wait, header, drain);
  // Legs telescope (enqueue of leg i+1 == done of leg i), so summing the
  // components re-adds to finalize()'s end-to-end latency up to the
  // rounding this re-association introduces — the conservation check.
  m.anatomy_sum += wait + header + drain;
  // Per-hop visits: blocking before the grant of hop h (the header is
  // ready at acq[h-1] + crossing of hop h-1) and occupancy until the next
  // grant (the last hop runs to the drain instant, like the trace spans).
  double ready = w.enqueue_time;
  const std::size_t hops = path.size();
  for (std::size_t h = 0; h < hops; ++h) {
    const auto c = static_cast<std::size_t>(path[h]);
    const double end = h + 1 < hops ? acq[h + 1] : time;
    const int net_class = static_cast<int>(
        layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])].kind);
    anatomy_->record_hop(path[h], net_class, acq[h] - ready, end - acq[h],
                         h == 0, seg);
    ready = acq[h] + engine_.crossing_time(path[h]);
  }
}

void Simulator::finalize(std::int32_t msg_id, double now) {
  MsgRec& m = msgs_[static_cast<std::size_t>(msg_id)];
  if (m.trace_tid >= 0) {
    // Whole-message span: generation -> delivery, wrapping the leg spans.
    trace_->complete("msg", m.trace_tid, m.gen_time, now - m.gen_time,
                     "\"src_cluster\":" + std::to_string(m.src_cluster) +
                         ",\"dst_cluster\":" + std::to_string(m.dst_cluster) +
                         ",\"internal\":" +
                         (m.internal ? "true" : "false") +
                         ",\"measured\":" + (m.measured ? "true" : "false"));
  }
  if (m.measured) {
    const double latency = now - m.gen_time;
    if (anatomy_ != nullptr)
      anatomy_->record_message(latency, m.anatomy_sum, m.internal);
    latency_.add(latency);
    if (latency_.completed_batches() > drift_.batches())
      drift_.add(latency_.last_batch_mean());
    measured_latencies_.push_back(latency);
    (m.internal ? internal_latency_ : external_latency_).add(latency);
    per_cluster_[static_cast<std::size_t>(m.src_cluster)].add(latency);
    if (config_.warmup_deletion != WarmupDeletion::kOff) {
      measured_cluster_.push_back(m.src_cluster);
      measured_is_internal_.push_back(m.internal ? 1 : 0);
    }
    ++delivered_measured_;
  }
  free_msgs_.push_back(msg_id);
}

void Simulator::apply_warmup_deletion(std::size_t cut) {
  MCS_EXPECTS(cut < measured_latencies_.size());
  MCS_EXPECTS(measured_cluster_.size() == measured_latencies_.size());
  util::BatchMeans latency(config_.batch_size);
  util::BatchMeans internal(config_.batch_size);
  util::BatchMeans external(config_.batch_size);
  std::vector<util::OnlineMoments> per_cluster(per_cluster_.size());
  for (std::size_t i = cut; i < measured_latencies_.size(); ++i) {
    const double l = measured_latencies_[i];
    latency.add(l);
    (measured_is_internal_[i] != 0 ? internal : external).add(l);
    per_cluster[static_cast<std::size_t>(measured_cluster_[i])].add(l);
  }
  latency_ = latency;
  internal_latency_ = internal;
  external_latency_ = external;
  per_cluster_ = std::move(per_cluster);
  measured_latencies_.erase(
      measured_latencies_.begin(),
      measured_latencies_.begin() + static_cast<std::ptrdiff_t>(cut));
}

void Simulator::collect_channel_classes(SimResult& result) const {
  const double duration = result.end_time - measure_start_time_;
  std::vector<double> busy(engine_.channel_count());
  std::vector<std::uint64_t> traversals(engine_.channel_count());
  for (std::size_t c = 0; c < engine_.channel_count(); ++c) {
    busy[c] = engine_.busy_time(static_cast<GlobalChannelId>(c));
    traversals[c] = engine_.traversals(static_cast<GlobalChannelId>(c));
  }
  sim::collect_channel_classes(layout_, busy, traversals, duration, result);
}

}  // namespace mcs::sim

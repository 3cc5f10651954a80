// harp-lint: hot-path — the shard cycle and thread loops run once per RM
// poll per shard; loop bodies must not construct vectors or strings.
#include "src/harp/rm_shard.hpp"

#include <algorithm>
#include <chrono>

#include "src/common/check.hpp"
#include "src/common/logging.hpp"

namespace harp::core {

namespace {

double steady_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardedRmServer::ShardedRmServer(platform::HardwareDescription hw, ShardedRmOptions options)
    : hw_(std::move(hw)),
      options_(options),
      coordinator_allocator_(hw_, options.server.solver, options.server.tracer) {
  HARP_CHECK(options_.num_shards >= 1);
  const int n = options_.num_shards;
  const std::size_t num_types = hw_.core_types.size();

  RmServerOptions shard_options = options_.server;
  shard_options.external_solver = options_.rebalance == RebalanceMode::kDisabled;
  shards_.reserve(static_cast<std::size_t>(n));
  shard_scopes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<RmServer>(hw_, shard_options));
    shard_scopes_.push_back("shard" + std::to_string(i));
  }

  if (options_.rebalance == RebalanceMode::kLambdaDrift) {
    // Initial deal: core c of type t goes to shard c mod N — contiguous
    // platforms end up with balanced, interleaved slices.
    budgets_.assign(static_cast<std::size_t>(n),
                    std::vector<std::vector<int>>(num_types));
    for (std::size_t t = 0; t < num_types; ++t)
      for (int c = 0; c < hw_.core_types[t].core_count; ++c)
        budgets_[static_cast<std::size_t>(c % n)][t].push_back(c);
    for (int i = 0; i < n; ++i)
      shards_[static_cast<std::size_t>(i)]->set_core_budget(
          budgets_[static_cast<std::size_t>(i)]);
    drift_rounds_.assign(num_types, 0);
  }

  if (options_.server.metrics != nullptr) {
    rebalances_counter_ = &options_.server.metrics->counter("rm_shard_rebalances_total");
    cycle_histograms_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      cycle_histograms_.push_back(&options_.server.metrics->histogram(
          "rm_cycle_seconds_shard" + std::to_string(i),
          {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}));
  }
}

ShardedRmServer::~ShardedRmServer() { stop_threads(); }

Status ShardedRmServer::listen(const std::string& socket_path) {
  Result<std::unique_ptr<ipc::UnixServer>> server = ipc::UnixServer::listen(socket_path);
  if (!server.ok()) return Status(server.error());
  MutexLock lock(mutex_);
  listener_ = std::move(server).take();
  return Status{};
}

void ShardedRmServer::adopt_channel(std::unique_ptr<ipc::Channel> channel) {
  std::uint64_t admission;
  {
    MutexLock lock(mutex_);
    admission = next_admission_++;
  }
  RmServer& shard = *shards_[static_cast<std::size_t>(
      admission % static_cast<std::uint64_t>(shards_.size()))];
  shard.adopt_channel(std::move(channel), admission);
  if (!threads_.empty()) shard.wakeup();
}

void ShardedRmServer::adopt_into_shard(int index, std::unique_ptr<ipc::Channel> channel) {
  std::uint64_t admission;
  {
    MutexLock lock(mutex_);
    admission = next_admission_++;
  }
  RmServer& shard = *shards_[static_cast<std::size_t>(index)];
  shard.adopt_channel(std::move(channel), admission);
  if (!threads_.empty()) shard.wakeup();
}

void ShardedRmServer::poll(double now_seconds) {
  // Accept pending connections, adopting round-robin in accept order. The
  // coordinator mutex guards only the listener pointer — listen() installs it
  // before polling starts and it lives until destruction — so the accept
  // syscall runs outside the critical section and shard threads reading
  // coordinator counters never stall behind listener I/O (r12).
  ipc::UnixServer* listener = nullptr;
  {
    MutexLock lock(mutex_);
    listener = listener_.get();
  }
  while (listener != nullptr) {
    auto accepted = listener->accept();
    if (!accepted.ok()) {
      HARP_WARN << "sharded accept failed: " << accepted.error().message;
      break;
    }
    if (!accepted.value().has_value()) break;
    adopt_channel(std::move(*accepted.value()));
  }

  // Unthreaded: run every shard's cycle here, in index order, timed.
  if (threads_.empty()) {
    telemetry::Tracer* tracer = options_.server.tracer;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (tracer != nullptr)
        tracer->begin(telemetry::EventType::kShardCycle, shard_scopes_[i],
                      {{"clients", static_cast<double>(shards_[i]->client_count())}});
      auto t0 = std::chrono::steady_clock::now();
      shards_[i]->poll(now_seconds);
      double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (i < cycle_histograms_.size() && cycle_histograms_[i] != nullptr)
        cycle_histograms_[i]->observe(elapsed);
      if (tracer != nullptr)
        tracer->end(telemetry::EventType::kShardCycle, shard_scopes_[i], {});
    }
  }

  if (options_.rebalance == RebalanceMode::kDisabled)
    coordinate_global_solve();
  else
    coordinate_rebalance();
}

void ShardedRmServer::coordinate_global_solve() {
  // Consume every shard's dirty flag (all must clear even if only one set).
  bool dirty = false;
  for (auto& shard : shards_) dirty = shard->take_needs_realloc() || dirty;
  if (!dirty) return;

  MutexLock lock(mutex_);
  merged_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->export_groups(export_scratch_);
    for (const ExportedGroup& e : export_scratch_)
      merged_.push_back({static_cast<int>(i), e});
  }
  if (merged_.empty()) return;
  // Admission order is a single server's adoption order; admissions are
  // unique, so this sort fully determines the instance.
  std::sort(merged_.begin(), merged_.end(),
            [](const auto& a, const auto& b) { return a.second.admission < b.second.admission; });

  group_ptrs_.resize(merged_.size());
  admissions_.resize(merged_.size());
  for (std::size_t g = 0; g < merged_.size(); ++g) {
    group_ptrs_[g] = merged_[g].second.group;
    admissions_[g] = merged_[g].second.admission;
  }

  telemetry::Tracer* tracer = options_.server.tracer;
  if (tracer != nullptr)
    tracer->begin(telemetry::EventType::kAllocCycle, "coordinator",
                  {{"apps", static_cast<double>(merged_.size())},
                   {"shards", static_cast<double>(shards_.size())}});

  coordinator_allocator_.solve(group_ptrs_, coordinator_ws_, coordinator_result_);
  ++coordinator_solves_;

  // The single server's skip test, keyed on admissions.
  if (grants_.unchanged(coordinator_ws_.replayed(), admissions_)) {
    if (tracer != nullptr)
      tracer->end(telemetry::EventType::kAllocCycle, "coordinator", {{"skipped", 1.0}});
    return;
  }

  if (!coordinator_result_.feasible) {
    for (const auto& [shard, e] : merged_)
      shards_[static_cast<std::size_t>(shard)]->push_coallocation(e.client_index);
    if (tracer != nullptr)
      tracer->end(telemetry::EventType::kAllocCycle, "coordinator", {{"feasible", 0.0}});
    return;
  }
  for (std::size_t g = 0; g < merged_.size(); ++g) {
    const auto& [shard, e] = merged_[g];
    std::size_t selected = coordinator_result_.selection[g];
    shards_[static_cast<std::size_t>(shard)]->push_activation(
        e.client_index, e.group->candidates[selected], coordinator_result_.allocations[g],
        e.group->costs[selected]);
  }
  if (tracer != nullptr)
    tracer->end(telemetry::EventType::kAllocCycle, "coordinator",
                {{"feasible", 1.0}, {"total_cost", coordinator_result_.total_cost}});
}

void ShardedRmServer::coordinate_rebalance() {
  MutexLock lock(mutex_);
  const std::size_t num_types = hw_.core_types.size();
  const std::size_t n = shards_.size();
  if (n < 2) return;

  // λ per shard per type (0 before a shard's first Lagrangian solve).
  lambda_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) lambda_scratch_[i] = shards_[i]->last_multipliers();
  const std::vector<std::vector<double>>& lambdas = lambda_scratch_;

  int move_type = -1;
  std::size_t donor = 0;
  std::size_t receiver = 0;
  for (std::size_t t = 0; t < num_types; ++t) {
    double lo = 0.0, hi = 0.0;
    std::size_t lo_shard = 0, hi_shard = 0;
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      double lambda = t < lambdas[i].size() ? lambdas[i][t] : 0.0;
      if (first || lambda < lo) { lo = lambda; lo_shard = i; }
      if (first || lambda > hi) { hi = lambda; hi_shard = i; }
      first = false;
    }
    double drift = hi > 1e-12 ? (hi - lo) / hi : 0.0;
    // A donor must keep at least one core of the type; otherwise its own
    // clients could never be granted it again.
    bool donatable = budgets_[lo_shard][t].size() >= 2 && lo_shard != hi_shard;
    if (drift > options_.lambda_drift_threshold && donatable) {
      ++drift_rounds_[t];
      if (move_type < 0 && drift_rounds_[t] >= options_.rebalance_min_cycles) {
        move_type = static_cast<int>(t);
        donor = lo_shard;
        receiver = hi_shard;
      }
    } else {
      drift_rounds_[t] = 0;
    }
  }
  if (move_type < 0) return;

  // One move per round: take the donor's highest-numbered core of the type
  // (deterministic) and keep both id lists sorted.
  const std::size_t t = static_cast<std::size_t>(move_type);
  int core = budgets_[donor][t].back();
  budgets_[donor][t].pop_back();
  budgets_[receiver][t].insert(
      std::lower_bound(budgets_[receiver][t].begin(), budgets_[receiver][t].end(), core), core);
  shards_[donor]->set_core_budget(budgets_[donor]);
  shards_[receiver]->set_core_budget(budgets_[receiver]);
  drift_rounds_[t] = 0;
  ++rebalances_;
  if (rebalances_counter_ != nullptr) rebalances_counter_->inc();
  if (options_.server.tracer != nullptr)
    options_.server.tracer->instant(
        telemetry::EventType::kRebalance, "coordinator",
        {{"type", static_cast<double>(move_type)},
         {"core", static_cast<double>(core)},
         {"from", static_cast<double>(donor)},
         {"to", static_cast<double>(receiver)}});
  if (!threads_.empty()) {
    shards_[donor]->wakeup();
    shards_[receiver]->wakeup();
  }
  HARP_INFO << "rebalance: core " << core << " (type " << move_type << ") shard " << donor
            << " -> shard " << receiver;
}

void ShardedRmServer::start_threads() {
  HARP_CHECK(options_.rebalance == RebalanceMode::kLambdaDrift);
  if (!threads_.empty()) return;
  stop_threads_.store(false, std::memory_order_release);
  threads_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    threads_.emplace_back([this, i] { shard_thread_main(static_cast<int>(i)); });
}

void ShardedRmServer::stop_threads() {
  if (threads_.empty()) return;
  stop_threads_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->wakeup();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

void ShardedRmServer::shard_thread_main(int index) {
  RmServer& shard = *shards_[static_cast<std::size_t>(index)];
  telemetry::Histogram* histogram =
      static_cast<std::size_t>(index) < cycle_histograms_.size()
          ? cycle_histograms_[static_cast<std::size_t>(index)]
          : nullptr;
  while (!stop_threads_.load(std::memory_order_acquire)) {
    auto t0 = std::chrono::steady_clock::now();
    // Block until readiness or a wakeup; the bounded timeout keeps lease
    // eviction and utility polls ticking on an idle shard.
    shard.poll(steady_now_seconds(), /*timeout_ms=*/50);
    if (histogram != nullptr)
      histogram->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
}

std::size_t ShardedRmServer::client_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->client_count();
  return total;
}

std::uint64_t ShardedRmServer::rebalances() const {
  MutexLock lock(mutex_);
  return rebalances_;
}

std::uint64_t ShardedRmServer::coordinator_solves() const {
  MutexLock lock(mutex_);
  return coordinator_solves_;
}

std::vector<std::vector<std::vector<int>>> ShardedRmServer::budgets() const {
  MutexLock lock(mutex_);
  return budgets_;
}

}  // namespace harp::core

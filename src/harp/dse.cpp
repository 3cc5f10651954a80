#include "src/harp/dse.hpp"

#include "src/harp/decision_core.hpp"

namespace harp::core {

double managed_rebalance_factor(model::AdaptivityType type) {
  return type == model::AdaptivityType::kCustom ? 1.0 : 0.0;
}

OperatingPointTable run_offline_dse(const model::AppBehavior& app,
                                    const platform::HardwareDescription& hw,
                                    const DseOptions& options) {
  double rebalance = options.rebalance_factor >= 0.0
                         ? options.rebalance_factor
                         : managed_rebalance_factor(app.adaptivity);

  // Static applications cannot mold their team to the allocation: profile
  // them with their fixed thread count time-sharing the granted slots.
  bool is_static =
      app.adaptivity == model::AdaptivityType::kStatic && app.default_threads > 0;

  std::vector<platform::ExtendedResourceVector> candidates = enumerate_coarse_points(hw);
  if (options.tracer != nullptr)
    options.tracer->begin(telemetry::EventType::kDseSweep, app.name,
                          {{"candidates", static_cast<double>(candidates.size())}});
  std::vector<OperatingPoint> points;
  points.reserve(candidates.size());
  for (platform::ExtendedResourceVector& erv : candidates) {
    model::AppRates rates =
        is_static ? model::pinned_rates(app, hw, erv, app.default_threads, rebalance,
                                        options.freq_scale)
                  : model::exclusive_rates(app, hw, erv, rebalance, options.freq_scale);
    NonFunctional nfc;
    if (app.qos.has_value()) {
      // Deadline apps: profile the EDF-flavored utility curve — the hit-rate
      // the allocation's sustained service rate achieves at nominal load —
      // rather than raw throughput (a service twice as fast as its traffic
      // gains nothing from more cores).
      const double service_rps = rates.useful_gips / app.qos->work_per_request_gi;
      nfc.utility = model::qos_utility(service_rps, app.qos->nominal_rate_rps, *app.qos);
    } else {
      nfc.utility = app.provides_utility ? rates.useful_gips : rates.measured_gips;
    }
    nfc.power_w = rates.power_w;
    points.push_back(OperatingPoint{std::move(erv), nfc});
  }

  std::vector<std::size_t> keep;
  if (options.pareto_filter) {
    keep = pareto_front(points);
  } else {
    keep.resize(candidates.size());
    for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
  }

  OperatingPointTable table(app.name);
  for (std::size_t i : keep) {
    const OperatingPoint& p = points[i];
    if (options.measurements_per_point <= 0) {
      table.set_point(p.erv, p.nfc);
      continue;
    }
    // Record as measurements so the RM treats the table as stable (the EMA
    // of a constant series is that constant).
    for (int m = 0; m < options.measurements_per_point; ++m)
      table.record_measurement(p.erv, p.nfc.utility, p.nfc.power_w);
  }
  if (options.tracer != nullptr)
    options.tracer->end(telemetry::EventType::kDseSweep, app.name,
                        {{"kept", static_cast<double>(keep.size())}});
  return table;
}

}  // namespace harp::core

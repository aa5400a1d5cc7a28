// Day-indexed constant tables shared by the detection models' batch
// channels. Model2 consumes log(d) and model3 consumes log(d+2)/(d+1);
// before this helper each model grew its own thread_local cache inside
// detection_models.cpp with the same lifecycle duplicated per table.
#pragma once

#include <cstddef>
#include <vector>

namespace srm::core {

/// Parallel day-indexed tables, entry [i] describing day i+1. Entries are
/// computed by the exact expressions the scalar detection channels use
/// (`std::log(double(d))` and `std::log(d + 2.0) / (d + 1.0)`), so cached
/// values are bit-identical to the inline ones they replaced.
struct DayTables {
  std::vector<double> log_day;          ///< log(d) for d = 1..days
  std::vector<double> pareto_exponent;  ///< log(d+2)/(d+1) for d = 1..days
};

/// Tables covering at least `days` entries. The backing storage is
/// thread_local (concurrent Gibbs chains must not contend) and grows on
/// demand, so any day count seen during warm-up is served allocation-free
/// in steady state. The reference is invalidated by a later call with a
/// larger `days` on the same thread; probes use it immediately.
const DayTables& day_tables(std::size_t days);

}  // namespace srm::core

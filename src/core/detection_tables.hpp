// Day-indexed constant tables shared by the detection models' range
// kernels. Model2 consumes log(d) and model3 consumes log(d+2)/(d+1), read
// at offset first_day - 1 so a one-day call and a batch fill see the same
// entry for the same day.
#pragma once

#include <cstddef>
#include <vector>

namespace srm::core {

/// Parallel day-indexed tables, entry [i] describing day i+1, computed as
/// `std::log(double(d))` and `std::log(d + 2.0) / (d + 1.0)`.
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

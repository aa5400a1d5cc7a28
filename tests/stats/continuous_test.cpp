// Tests for the continuous distribution object: Beta.
#include <gtest/gtest.h>

#include "stats/beta.hpp"

namespace {

using srm::stats::Beta;

// Trapezoid integral of a pdf over [lo, hi].
template <typename D>
double integrate_pdf(const D& d, double lo, double hi, int steps = 20000) {
  const double h = (hi - lo) / steps;
  double total = 0.5 * (d.pdf(lo) + d.pdf(hi));
  for (int i = 1; i < steps; ++i) total += d.pdf(lo + i * h);
  return total * h;
}

TEST(BetaDist, PdfIntegratesToOne) {
  const Beta d(2.5, 4.0);
  EXPECT_NEAR(integrate_pdf(d, 1e-9, 1.0 - 1e-9), 1.0, 1e-4);
}

TEST(BetaDist, CdfQuantileRoundTrip) {
  const Beta d(3.0, 7.0);
  for (const double p : {0.01, 0.3, 0.5, 0.7, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-9);
  }
}

TEST(BetaDist, UniformSpecialCase) {
  const Beta d(1.0, 1.0);
  EXPECT_NEAR(d.pdf(0.3), 1.0, 1e-12);
  EXPECT_NEAR(d.cdf(0.3), 0.3, 1e-12);
}

TEST(BetaDist, MomentFormulas) {
  const Beta d(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.25);
  EXPECT_NEAR(d.variance(), 2.0 * 6.0 / (64.0 * 9.0), 1e-12);
}

}  // namespace

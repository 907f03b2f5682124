#include "data/synthetic.h"

#include "util/check.h"

namespace sensord {

SyntheticMixtureStream::SyntheticMixtureStream(SyntheticOptions options,
                                               Rng rng)
    : options_(options), rng_(rng) {
  SENSORD_CHECK_GE(options_.dimensions, 1u);
  SENSORD_CHECK_GT(options_.component_stddev, 0.0);
  SENSORD_CHECK_GE(options_.noise_probability, 0.0);
  SENSORD_CHECK_LE(options_.noise_probability, 1.0);
  SENSORD_CHECK_LT(options_.noise_lo, options_.noise_hi);
  means_.resize(options_.dimensions);
  for (auto& dim_means : means_) {
    for (double& m : dim_means) {
      m = options_.mean_pool[rng_.UniformUint64(options_.mean_pool.size())];
    }
  }
}

Point SyntheticMixtureStream::Next() {
  Point p(options_.dimensions);
  if (rng_.Bernoulli(options_.noise_probability)) {
    for (double& x : p) {
      x = rng_.UniformDouble(options_.noise_lo, options_.noise_hi);
    }
    return p;
  }
  for (size_t dim = 0; dim < options_.dimensions; ++dim) {
    const double mean = means_[dim][rng_.UniformUint64(3)];
    p[dim] = Clamp(rng_.Gaussian(mean, options_.component_stddev), 0.0, 1.0);
  }
  return p;
}

GappedBimodalStream::GappedBimodalStream(GappedBimodalOptions options,
                                         Rng rng)
    : options_(options), rng_(rng) {
  SENSORD_CHECK_GE(options_.dimensions, 1u);
  SENSORD_CHECK_LT(options_.band_a_lo, options_.band_a_hi);
  SENSORD_CHECK_LT(options_.band_b_lo, options_.band_b_hi);
  SENSORD_CHECK_LT(options_.band_a_hi, options_.gap_lo);
  SENSORD_CHECK_LT(options_.gap_hi, options_.band_b_lo);
}

Point GappedBimodalStream::Next() {
  Point p(options_.dimensions);
  const bool gap_noise = rng_.Bernoulli(options_.gap_noise_probability);
  for (double& x : p) {
    if (gap_noise) {
      x = rng_.UniformDouble(options_.gap_lo, options_.gap_hi);
    } else if (rng_.Bernoulli(0.5)) {
      x = rng_.UniformDouble(options_.band_a_lo, options_.band_a_hi);
    } else {
      x = rng_.UniformDouble(options_.band_b_lo, options_.band_b_hi);
    }
  }
  return p;
}

AnalyticDistribution SyntheticMixtureStream::TrueDistribution() const {
  std::vector<std::vector<MixtureComponent>> marginals(options_.dimensions);
  const double w_gauss = (1.0 - options_.noise_probability) / 3.0;
  for (size_t dim = 0; dim < options_.dimensions; ++dim) {
    for (double mean : means_[dim]) {
      marginals[dim].push_back(MixtureComponent::MakeGaussian(
          w_gauss, mean, options_.component_stddev));
    }
    if (options_.noise_probability > 0.0) {
      marginals[dim].push_back(MixtureComponent::MakeUniform(
          options_.noise_probability, options_.noise_lo, options_.noise_hi));
    }
  }
  auto result = AnalyticDistribution::Create(std::move(marginals));
  SENSORD_CHECK_OK(result);
  return std::move(result).value();
}

}  // namespace sensord

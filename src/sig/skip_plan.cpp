#include "src/sig/skip_plan.hpp"

#include <sstream>

#include "src/common/error.hpp"

namespace ataman {

bool ApproxConfig::approximates_anything() const {
  for (const double t : tau)
    if (t >= 0.0) return true;
  return false;
}

std::string ApproxConfig::to_string() const {
  std::ostringstream os;
  os << "tau=[";
  for (size_t i = 0; i < tau.size(); ++i) {
    if (i) os << ",";
    if (tau[i] < 0.0) {
      os << "exact";
    } else {
      os << tau[i];
    }
  }
  os << "]";
  return os.str();
}

Json ApproxConfig::to_json() const {
  JsonArray arr;
  arr.reserve(tau.size());
  for (const double t : tau) arr.emplace_back(t);
  JsonObject obj;
  obj.emplace("tau", std::move(arr));
  return Json(std::move(obj));
}

ApproxConfig ApproxConfig::exact(int approx_count) {
  ApproxConfig c;
  c.tau.assign(static_cast<size_t>(approx_count), -1.0);
  return c;
}

ApproxConfig ApproxConfig::uniform(int approx_count, double tau) {
  ApproxConfig c;
  c.tau.assign(static_cast<size_t>(approx_count), tau);
  return c;
}

SkipMask make_skip_mask(const QModel& model,
                        const std::vector<LayerSignificance>& significance,
                        const ApproxConfig& config) {
  const int approx_count = model.approx_layer_count();
  check(static_cast<int>(significance.size()) == approx_count,
        "significance/approximable-layer count mismatch");
  check(static_cast<int>(config.tau.size()) == approx_count,
        "config/approximable-layer count mismatch");

  SkipMask mask = SkipMask::none(model);
  for (int ordinal = 0; ordinal < approx_count; ++ordinal) {
    const double tau = config.tau[static_cast<size_t>(ordinal)];
    const LayerSignificance& sig =
        significance[static_cast<size_t>(ordinal)];
    auto& m = mask.masks[static_cast<size_t>(ordinal)];
    ATAMAN_ASSERT(m.size() ==
                  static_cast<size_t>(sig.out_c) * sig.patch);
    for (size_t i = 0; i < m.size(); ++i) m[i] = skips(sig.S[i], tau) ? 1 : 0;
  }
  return mask;
}

}  // namespace ataman

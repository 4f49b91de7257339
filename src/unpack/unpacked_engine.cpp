#include "src/unpack/unpacked_engine.hpp"

#include "src/common/error.hpp"

namespace ataman {

namespace {

// The hybrid selection, validated, or "unpack everything" when absent.
std::vector<uint8_t> checked_selection(const QModel& model,
                                       const std::vector<uint8_t>* selection) {
  const size_t approx = static_cast<size_t>(model.approx_layer_count());
  if (selection == nullptr) return std::vector<uint8_t>(approx, 1);
  check(selection->size() == approx,
        "unpack selection size must match approximable layer count");
  return *selection;
}

}  // namespace

UnpackedEngine::UnpackedEngine(const QModel* model, const SkipMask* mask,
                               const std::vector<uint8_t>* unpack_selection)
    : InferenceEngine(model, mask, "ataman"),
      unpacked_(checked_selection(*model, unpack_selection)),
      programs_(unpacked_.size()),
      packed_(model, &unpacked_),
      static_pairs_(unpacked_.size(), -1),
      static_singles_(unpacked_.size(), 0) {
  for (const ExecStep& step : plan().steps) {
    const int ordinal = step.approx_ordinal;
    // Packed layers execute exactly: static skips cannot remove work
    // from loop kernels (the paper's argument for unpacking).
    if (ordinal < 0 || !unpacked_[static_cast<size_t>(ordinal)]) continue;
    const size_t o = static_cast<size_t>(ordinal);
    const uint8_t* skip = mask != nullptr ? mask->row(ordinal) : nullptr;
    const UnpackedLayer& u = programs_[o].emplace(UnpackedLayer::build(
        model->layers[static_cast<size_t>(step.layer)], skip));
    static_pairs_[o] = u.static_pairs();
    static_singles_[o] = u.static_singles();
  }
  price_ = price_model(*model, PriceList::kUnpacked, static_pairs_,
                       static_singles_);
  flash_bytes_ = flash().total_bytes;
  ram_bytes_ = model_ram_bytes(*model, /*packed_engine=*/false,
                               kMemoryCosts.runtime_reserve);
}

int UnpackedEngine::unpacked_conv_count() const {
  int n = 0;
  for (const uint8_t u : unpacked_) n += u != 0 ? 1 : 0;
  return n;
}

void UnpackedEngine::run_step(const ExecStep& step,
                              const StepIO& io) const {
  if (step.approx_ordinal >= 0) {
    const auto& u = programs_[static_cast<size_t>(step.approx_ordinal)];
    if (u) return u->run(io.in_a, io.out, io.batch, io.scratch, io.cols);
  }
  packed_.run_step(step, io);
}

}  // namespace ataman

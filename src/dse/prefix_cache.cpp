#include "src/dse/prefix_cache.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/core/eval.hpp"

namespace ataman {

namespace {

// The cache's kernel table: an approximable step whose config row
// (`slots`) names a variant runs that variant's unpacked program; every
// other step — exact approximable layers, pools, adds, dense — runs the
// model's packed kernels. Both families are bit-exact with the reference
// kernels under the same mask.
class VariantKernels final : public KernelTable {
 public:
  VariantKernels(const PackedKernels& packed,
                 const std::vector<std::vector<UnpackedLayer>>& masked,
                 const std::vector<int>& slots)
      : packed_(packed), masked_(masked), slots_(slots) {}

  void run_step(const ExecStep& step, const StepIO& io) const override {
    if (step.approx_ordinal >= 0) {
      const auto k = static_cast<size_t>(step.approx_ordinal);
      const int slot = slots_[k];
      if (slot >= 0)
        return masked_[k][static_cast<size_t>(slot)].run(
            io.in_a, io.out, io.batch, io.scratch, io.cols);
    }
    packed_.run_step(step, io);
  }

 private:
  const PackedKernels& packed_;
  const std::vector<std::vector<UnpackedLayer>>& masked_;
  const std::vector<int>& slots_;
};

// The constructor's argument check, run before the packed kernels read
// the model.
const QModel* checked_model(const QModel* model,
                            const std::vector<LayerSignificance>* significance,
                            const Dataset* eval) {
  check(model != nullptr && significance != nullptr && eval != nullptr,
        "prefix cache needs model, significance and eval set");
  return model;
}

}  // namespace

PrefixCache::PrefixCache(const QModel* model,
                         const std::vector<LayerSignificance>* significance,
                         const Dataset* eval,
                         const std::vector<ApproxConfig>& configs,
                         int eval_images)
    : model_(model),
      eval_(eval),
      packed_(checked_model(model, significance, eval)) {
  check(!configs.empty(), "prefix cache needs at least one config");
  approx_count_ = model_->approx_layer_count();
  check(approx_count_ > 0,
        "prefix cache needs at least one approximable layer");
  check(static_cast<int>(significance->size()) == approx_count_,
        "significance does not match model");
  plan_ = ExecPlan::compile(*model_);
  n_images_ = clamp_eval_limit(eval_images, eval_->size());
  // Golden-ratio stride (bumped to the next value coprime with the image
  // count) so position prefixes sample the eval subset evenly; see
  // image_at().
  stride_ = std::max(1, static_cast<int>(n_images_ * 0.6180339887));
  while (std::gcd(stride_, n_images_) != 1) ++stride_;

  approx_pos_.resize(static_cast<size_t>(approx_count_));
  for (int k = 0; k < approx_count_; ++k)
    approx_pos_[static_cast<size_t>(k)] = model_->approx_layer_index(k);
  // Stage partition (header comment): ordinal k opens a new stage when
  // the deepest linear boundary at or before its layer — the dominating
  // boundary — falls behind ordinal k-1's layer, i.e. the model can be
  // cut between the two with a single cached tensor. On chains every
  // ordinal opens its own stage.
  for (int k = 0; k < approx_count_; ++k) {
    const int cut =
        model_->dominating_boundary(approx_pos_[static_cast<size_t>(k)]);
    if (k == 0) {
      stage_begin_.push_back(cut);
      stage_first_ordinal_.push_back(0);
    } else if (cut > approx_pos_[static_cast<size_t>(k - 1)]) {
      stage_begin_.push_back(cut);
      stage_first_ordinal_.push_back(k);
    }
  }
  // The last stage runs to the end of the model: the exact tail is part
  // of its range.
  stage_begin_.push_back(static_cast<int>(model_->layers.size()));

  const int n_cfg = static_cast<int>(configs.size());
  masked_.resize(static_cast<size_t>(approx_count_));
  key_slot_.resize(static_cast<size_t>(approx_count_));
  keys_.assign(static_cast<size_t>(n_cfg),
               std::vector<int64_t>(static_cast<size_t>(approx_count_), 0));
  slots_.assign(static_cast<size_t>(n_cfg),
                std::vector<int>(static_cast<size_t>(approx_count_), -1));

  // Build one unpacked program per distinct (layer, skip set).
  // The per-layer key is the skipped-operand count: skip sets are nested
  // in tau (skip_plan.hpp), so equal cardinality implies equal set and
  // one tau per distinct count suffices.
  std::vector<uint8_t> layer_mask;
  for (int k = 0; k < approx_count_; ++k) {
    const QLayer& layer =
        model_->layers[static_cast<size_t>(approx_pos_[static_cast<size_t>(k)])];
    const int64_t operand_count =
        describe_layer(layer).skippable_operand_count();
    const LayerSignificance& sig = (*significance)[static_cast<size_t>(k)];
    std::map<double, std::pair<int64_t, int>> by_tau;  // tau -> (key, slot)
    for (int c = 0; c < n_cfg; ++c) {
      check(static_cast<int>(configs[static_cast<size_t>(c)].tau.size()) ==
                approx_count_,
            "config does not match model");
      const double tau = configs[static_cast<size_t>(c)].tau[static_cast<size_t>(k)];
      if (tau < 0.0) continue;  // exact layer: key 0, slot -1
      auto it = by_tau.find(tau);
      if (it == by_tau.end()) {
        // Same comparison make_skip_mask uses (kAlwaysRetain channels
        // never satisfy <= tau), so the variant matches the legacy mask.
        layer_mask.assign(static_cast<size_t>(operand_count), 0);
        int64_t skipped = 0;
        for (size_t i = 0; i < layer_mask.size(); ++i) {
          layer_mask[i] = sig.S[i] <= static_cast<float>(tau) ? 1 : 0;
          skipped += layer_mask[i];
        }
        int slot = -1;
        if (skipped > 0) {
          auto slot_it = key_slot_[static_cast<size_t>(k)].find(skipped);
          if (slot_it == key_slot_[static_cast<size_t>(k)].end()) {
            slot = static_cast<int>(masked_[static_cast<size_t>(k)].size());
            masked_[static_cast<size_t>(k)].push_back(
                UnpackedLayer::build(layer, layer_mask.data()));
            key_slot_[static_cast<size_t>(k)].emplace(skipped, slot);
          } else {
            slot = slot_it->second;
          }
        }
        it = by_tau.emplace(tau, std::make_pair(skipped, slot)).first;
      }
      keys_[static_cast<size_t>(c)][static_cast<size_t>(k)] = it->second.first;
      slots_[static_cast<size_t>(c)][static_cast<size_t>(k)] = it->second.second;
    }
  }

  // Trie leaf order: lexicographic by key vector, stable by config index
  // so the all-exact config 0 stays first among all-exact twins.
  order_.resize(static_cast<size_t>(n_cfg));
  for (int c = 0; c < n_cfg; ++c) order_[static_cast<size_t>(c)] = c;
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const auto& ka = keys_[static_cast<size_t>(a)];
    const auto& kb = keys_[static_cast<size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  });

  lcp_.assign(static_cast<size_t>(n_cfg), 0);
  for (int p = 1; p < n_cfg; ++p) {
    const auto& ka = keys_[static_cast<size_t>(order_[static_cast<size_t>(p - 1)])];
    const auto& kb = keys_[static_cast<size_t>(order_[static_cast<size_t>(p)])];
    int l = 0;
    while (l < approx_count_ && ka[static_cast<size_t>(l)] == kb[static_cast<size_t>(l)])
      ++l;
    lcp_[static_cast<size_t>(p)] = l;
  }
}

int PrefixCache::stage_for_depth(int depth) const {
  int s = 0;
  while (s + 1 < static_cast<int>(stage_first_ordinal_.size()) &&
         stage_first_ordinal_[static_cast<size_t>(s + 1)] <= depth)
    ++s;
  return s;
}

PrefixCacheStats PrefixCache::evaluate_ranges(
    const std::vector<int>& img_begin, const std::vector<int>& img_end,
    std::vector<uint8_t>& hits) const {
  const int n_cfg = config_count();
  check(static_cast<int>(img_begin.size()) == n_cfg &&
            static_cast<int>(img_end.size()) == n_cfg,
        "range vectors do not match config count");
  check(hits.size() == static_cast<size_t>(n_cfg) * n_images_,
        "hits matrix size mismatch");
  int lo_img = n_images_, hi_img = 0;
  for (int c = 0; c < n_cfg; ++c) {
    const int b = img_begin[static_cast<size_t>(c)];
    const int e = img_end[static_cast<size_t>(c)];
    check(b >= 0 && e <= n_images_, "image range out of bounds");
    if (b >= e) continue;
    lo_img = std::min(lo_img, b);
    hi_img = std::max(hi_img, e);
  }
  if (lo_img >= hi_img) return {};

  const int n_stages = static_cast<int>(stage_first_ordinal_.size());
  const bool scored = model_->head == TaskHead::kScore;
  std::atomic<int64_t> run_total{0}, reuse_total{0};
  parallel_for_chunked(lo_img, hi_img, [&](int64_t lo, int64_t hi) {
    // boundary[s] holds tensor stage_begin_[s] (the single-tensor linear
    // cut opening stage s) for the current image; boundary[n_stages] the
    // logits.
    std::vector<std::vector<int8_t>> boundary(
        static_cast<size_t>(n_stages) + 1);
    std::vector<int8_t> q_input;
    int64_t run = 0, reuse = 0;
    for (int64_t img = lo; img < hi; ++img) {
      const int i = static_cast<int>(img);  // position; hits row offset
      const int image_index = image_at(i);  // dataset image it samples
      const int label = eval_->label(image_index);
      const std::span<const uint8_t> image = eval_->image(image_index);
      q_input.resize(image.size());
      plan_.quantize_input(image, q_input);
      // Layers before the first stage (normally none) hold no
      // approximable layer; run them once into the depth-0 boundary.
      boundary[0] = plan_.run_range(0, stage_begin_[0], q_input, packed_);

      // One trie walk per image over every config whose range covers it.
      // The resume depth over a gap of skipped configs is the min of the
      // adjacent lcps (standard property of a lexicographically sorted
      // sequence), tracked in `pending`.
      int pending = approx_count_;
      bool first = true;
      uint8_t prev_hit = 0;
      for (int p = 0; p < n_cfg; ++p) {
        pending = std::min(pending, lcp_[static_cast<size_t>(p)]);
        const int c = order_[static_cast<size_t>(p)];
        if (i < img_begin[static_cast<size_t>(c)] ||
            i >= img_end[static_cast<size_t>(c)])
          continue;
        const int depth = first ? 0 : pending;
        uint8_t hit;
        if (depth == approx_count_) {
          hit = prev_hit;  // identical config key: identical logits
          reuse += approx_count_ + 1;
        } else {
          // Resume from the dominating stage boundary: the deepest
          // single-tensor cut at or below the shared ordinal depth.
          const int s0 = stage_for_depth(depth);
          const int resume_ordinal =
              stage_first_ordinal_[static_cast<size_t>(s0)];
          const VariantKernels kernels(packed_, masked_,
                                       slots_[static_cast<size_t>(c)]);
          for (size_t s = static_cast<size_t>(s0);
               s < static_cast<size_t>(n_stages); ++s) {
            boundary[s + 1] = plan_.run_range(stage_begin_[s],
                                              stage_begin_[s + 1],
                                              boundary[s], kernels);
          }
          const std::vector<int8_t>& logits =
              boundary[static_cast<size_t>(n_stages)];
          const int pred =
              scored ? scored_class(*model_, reconstruction_score(
                                                 *model_, q_input, logits))
                     : argmax_lowest_index(logits);
          hit = pred == label ? 1 : 0;
          reuse += resume_ordinal;
          run += (approx_count_ - resume_ordinal) + 1;
        }
        hits[static_cast<size_t>(c) * n_images_ + static_cast<size_t>(i)] =
            hit;
        prev_hit = hit;
        first = false;
        pending = approx_count_;
      }
    }
    // Integer sums are order-insensitive, so the totals stay bitwise
    // deterministic for any thread count.
    run_total.fetch_add(run, std::memory_order_relaxed);
    reuse_total.fetch_add(reuse, std::memory_order_relaxed);
  });

  PrefixCacheStats total;
  total.segments_run = run_total.load();
  total.segments_reused = reuse_total.load();
  return total;
}

}  // namespace ataman

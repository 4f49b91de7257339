#include "src/dse/prefix_cache.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/core/eval.hpp"

namespace ataman {

namespace {

// The cache's kernel table for one batched stage: lane j runs the
// configs with rung row *rows[j]. The stage's first approximable step
// (ordinal `first`) reads lane 0's input, which every lane shares, and
// writes each lane's rung in one rung-program pass; a later
// approximable step (residual stages only) runs each lane's own rung.
// Every other step runs the model's packed kernels over the batch. Both
// families are bit-exact with the reference kernels under the same
// mask.
class StageKernels final : public KernelTable {
 public:
  StageKernels(const PackedKernels& packed,
               const std::vector<UnpackedLayer>& rungs,
               std::span<const std::vector<int>* const> rows, int first)
      : packed_(packed), rungs_(rungs), rows_(rows), first_(first) {}

  void run_step(const ExecStep& step, const StepIO& io) const override {
    const int k = step.approx_ordinal;
    if (k < 0) return packed_.run_step(step, io);
    const UnpackedLayer& layer = rungs_[static_cast<size_t>(k)];
    std::vector<std::span<int8_t>> outs(
        static_cast<size_t>(layer.rung_count));
    const auto rung = [&](int j) {
      const std::vector<int>& row = *rows_[static_cast<size_t>(j)];
      return static_cast<size_t>(row[static_cast<size_t>(k)]);
    };
    if (k == first_) {
      for (int j = 0; j < io.batch; ++j)
        if (outs[rung(j)].empty()) outs[rung(j)] = io.image(j).out;
      layer.run_rungs(io.image(0).in_a, outs, 1, io.scratch, io.cols);
      // Lanes that differ only at later ordinals share this rung.
      for (int j = 0; j < io.batch; ++j) {
        const std::span<int8_t> mine = io.image(j).out;
        if (outs[rung(j)].data() != mine.data())
          std::ranges::copy(outs[rung(j)], mine.begin());
      }
      return;
    }
    for (int j = 0; j < io.batch; ++j) {
      const StepIO one = io.image(j);
      std::ranges::fill(outs, std::span<int8_t>());
      outs[rung(j)] = one.out;
      layer.run_rungs(one.in_a, outs, 1, io.scratch, io.cols);
    }
  }

 private:
  const PackedKernels& packed_;
  const std::vector<UnpackedLayer>& rungs_;
  std::span<const std::vector<int>* const> rows_;
  int first_;
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
  rung_.assign(static_cast<size_t>(n_cfg),
               std::vector<int>(static_cast<size_t>(approx_count_), 0));

  // One rung program per approximable layer. The per-layer key is the
  // skipped-operand count: skip sets are nested in tau (skip_plan.hpp),
  // so equal cardinality implies equal set, one tau per distinct count
  // suffices, and the rungs in ascending key order nest. The count uses
  // make_skip_mask's comparison (kAlwaysRetain operands never satisfy
  // <= tau), so each rung matches the legacy mask.
  for (int k = 0; k < approx_count_; ++k) {
    const LayerSignificance& sig = (*significance)[static_cast<size_t>(k)];
    std::map<double, int64_t> key_of_tau;
    std::map<int64_t, double> tau_of_key{{0, -1.0}};  // key 0: exact rung 0
    for (const ApproxConfig& config : configs) {
      check(static_cast<int>(config.tau.size()) == approx_count_,
            "config does not match model");
      const double tau = config.tau[static_cast<size_t>(k)];
      if (tau < 0.0 || key_of_tau.count(tau) != 0) continue;
      const int64_t key =
          std::count_if(sig.S.begin(), sig.S.end(), [&](float v) {
            return v <= static_cast<float>(tau);
          });
      key_of_tau.emplace(tau, key);
      tau_of_key.emplace(key, tau);
    }
    std::vector<double> rung_taus;
    for (const auto& [key, tau] : tau_of_key)
      if (key > 0) rung_taus.push_back(tau);
    rungs_.push_back(UnpackedLayer::build_rungs(
        model_->layers[static_cast<size_t>(approx_pos_[static_cast<size_t>(k)])],
        sig, rung_taus));
    // A config's rung is its key's rank; tau < 0 keeps rung 0.
    for (int c = 0; c < n_cfg; ++c) {
      const double tau = configs[static_cast<size_t>(c)].tau[static_cast<size_t>(k)];
      if (tau >= 0.0) {
        rung_[static_cast<size_t>(c)][static_cast<size_t>(k)] =
            static_cast<int>(std::distance(
                tau_of_key.begin(), tau_of_key.find(key_of_tau.at(tau))));
      }
    }
  }

  // Trie leaf order: lexicographic by key vector, stable by config index
  // so the all-exact config 0 stays first among all-exact twins.
  order_.resize(static_cast<size_t>(n_cfg));
  for (int c = 0; c < n_cfg; ++c) order_[static_cast<size_t>(c)] = c;
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const auto& ka = rung_[static_cast<size_t>(a)];
    const auto& kb = rung_[static_cast<size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  });

  lcp_.assign(static_cast<size_t>(n_cfg), 0);
  for (int p = 1; p < n_cfg; ++p) {
    const auto& ka = rung_[static_cast<size_t>(order_[static_cast<size_t>(p - 1)])];
    const auto& kb = rung_[static_cast<size_t>(order_[static_cast<size_t>(p)])];
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
    // entry: tensor stage_begin_[0] of the current image. out[s]: stage
    // s's output for every lane of its current batch, lanes[s] of them,
    // and lane[s] the current config's lane. Stage s > 0 reads its input
    // from lane[s - 1] of out[s - 1].
    std::vector<int8_t> entry, q_input, batch_in;
    std::vector<std::vector<int8_t>> out(static_cast<size_t>(n_stages));
    std::vector<int> lane(static_cast<size_t>(n_stages), 0);
    std::vector<int> lanes(static_cast<size_t>(n_stages), 0);
    std::vector<const std::vector<int>*> rows;
    const auto lane_of = [&](size_t s) {
      const size_t elems = out[s].size() / static_cast<size_t>(lanes[s]);
      return std::span<const int8_t>(out[s]).subspan(
          static_cast<size_t>(lane[s]) * elems, elems);
    };
    int64_t run = 0, reuse = 0;
    for (int64_t img = lo; img < hi; ++img) {
      const int i = static_cast<int>(img);  // position; hits row offset
      const int image_index = image_at(i);  // dataset image it samples
      const int label = eval_->label(image_index);
      const std::span<const uint8_t> image = eval_->image(image_index);
      q_input.resize(image.size());
      plan_.quantize_input(image, q_input);
      // Layers before the first stage (normally none) hold no
      // approximable layer; run them once.
      entry = plan_.run_range(0, stage_begin_[0], q_input, packed_);

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
          for (size_t s = static_cast<size_t>(s0);
               s < static_cast<size_t>(n_stages); ++s) {
            // Stage s's input is new for the image's first config and
            // behind the resume stage. Otherwise the previous covering
            // config shares it and differs inside stage s, and the
            // batch run on that input holds this config's stage key as
            // the next lane: lanes follow the walk's order.
            if (!first && s == static_cast<size_t>(s0)) {
              ++lane[s];
              check(lane[s] < lanes[s], "prefix cache: stage lane missing");
              continue;
            }
            // The batch: one lane per distinct stage key among the
            // configs that resume from this input, i.e. those of p's
            // subtree (p and the positions after it sharing its first k
            // keys) that cover image i. Sorted order keeps equal stage
            // keys adjacent.
            const int k = stage_first_ordinal_[s];
            const int k_end = s + 1 < static_cast<size_t>(n_stages)
                                  ? stage_first_ordinal_[s + 1]
                                  : approx_count_;
            rows.clear();
            int gap = approx_count_;
            for (int q = p;
                 q < n_cfg && (q == p || lcp_[static_cast<size_t>(q)] >= k);
                 ++q) {
              gap = std::min(gap, lcp_[static_cast<size_t>(q)]);
              const auto cq =
                  static_cast<size_t>(order_[static_cast<size_t>(q)]);
              if (i < img_begin[cq] || i >= img_end[cq]) continue;
              if (q == p || gap < k_end) rows.push_back(&rung_[cq]);
              gap = approx_count_;
            }
            const std::span<const int8_t> in =
                s == 0 ? std::span<const int8_t>(entry) : lane_of(s - 1);
            const auto batch = static_cast<int>(rows.size());
            batch_in.resize(in.size() * rows.size());
            for (size_t j = 0; j < rows.size(); ++j)
              std::ranges::copy(in, batch_in.data() + j * in.size());
            const StageKernels kernels(packed_, rungs_, rows, k);
            out[s] = plan_.run_range(stage_begin_[s], stage_begin_[s + 1],
                                     batch_in, kernels, batch);
            lanes[s] = batch;
            lane[s] = 0;
          }
          const std::span<const int8_t> logits =
              lane_of(static_cast<size_t>(n_stages) - 1);
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

// Layer-prefix activation cache for the DSE sweep (§II-C, Fig. 2).
//
// The exhaustive exploration scores thousands of ApproxConfigs, each by
// running inference over hundreds of images — yet most configs share long
// per-layer prefixes (identical skip decisions on the early conv layers)
// and differ only in later-layer tau. Re-running every config from the
// input wastes exactly those shared prefixes.
//
// The cache sorts the config space as a trie keyed by each config's
// per-approximable-layer skip decision (conv and depthwise alike):
// configs are visited in lexicographic key order, and for every image
// the activations at each approximable-layer boundary are kept on a
// stack, so a config that shares a k-layer prefix with its predecessor
// resumes from the cached input of approximable layer k instead of
// layer 0. Two properties make this exact (bitwise identical to the
// per-config ConfigEvaluator::evaluate sweep):
//
//  * the per-layer key is the skipped-operand count, which uniquely
//    identifies the layer's skip set because skip sets are nested in tau
//    (skip_plan.hpp) — equal cardinality implies equal set;
//  * each approximable layer is built once as a rung program
//    (UnpackedLayer::build_rungs): rung 0 is the exact layer and rung j
//    the layer under the j-th smallest non-empty skip set the config
//    space uses there, so rungs are the layer's keys in ascending order.
//    Every other step runs the model's packed kernels. Both kernel
//    families are bit-exact with the reference kernels under the same
//    mask, so a segment computes the legacy path's bits — and a skipped
//    operand removes host work, as it removes MCU instructions.
//
// Sibling configs (same prefix, different key at one layer) share that
// layer's input, and a rung program computes every rung of it in one
// pass. Per image, when a stage's input is new, the stage runs once as
// one batch: one lane per distinct stage key (the rungs at the stage's
// ordinals) among the configs of the trie subtree below that cover the
// image. Its first approximable step writes every lane's rung in one
// pass, which costs the retained products of the lowest rung needed;
// every other sibling costs only its requantize epilogue. The rest of
// the stage runs batched, and each config reads its lane's output.
//
// Execution is the model's compiled ExecPlan: each stage (below) is one
// batched step range (ExecPlan::run_range) through a kernel table that
// runs each approximable step as each lane's rung. The last stage runs to the
// end of the model, so the exact tail behind the last approximable
// layer (pool/dense — never approximated) is part of its range.
//
// DAG models (residual QAdd edges): a cached boundary is a single
// tensor, so the trie can only cut the model at *linear boundaries* —
// layer indices no skip edge crosses (QModel::linear_boundary). The
// approximable region is therefore partitioned into *stages*: a stage
// starts at the deepest linear boundary at or before its first
// approximable layer (the *dominating boundary*), and a config resumes
// from the deepest stage start at or below its trie lcp. Ordinals that
// share keys but sit inside a partially-shared stage are re-run (each
// lane runs its own rung of them), which is why prefix-cache hit
// rates drop on residual models (docs/DSE.md). On a pure chain every
// boundary is linear, every ordinal starts its own stage, and the walk
// is bitwise identical to the pre-DAG cache. A model with no approximable
// layer is one stage, [0, layers), with no rungs: each image's first
// config runs the whole model on the packed kernels, and every config
// sharing its (empty) key copies that hit.
//
// See docs/DSE.md for the sweep-level picture (adaptive early exit,
// exact-mode escape hatch, reproduction commands).
#pragma once

#include <cstdint>
#include <vector>

#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/core/exec_plan.hpp"
#include "src/data/dataset.hpp"
#include "src/sig/skip_plan.hpp"
#include "src/unpack/unpacked_layer.hpp"

namespace ataman {

// Deterministic counters for one evaluate_ranges call, in approximable-
// ordinal units: a "segment" is one approximable layer plus its share of
// non-approximable layers; the exact tail counts as one more segment.
// On DAG models a resume rounds down to the dominating stage boundary,
// so ordinals inside a partially-shared stage count as run, not reused —
// the measured hit-rate drop on residual models.
struct PrefixCacheStats {
  int64_t segments_run = 0;     // segments actually executed
  int64_t segments_reused = 0;  // segments served from a cached prefix
};

class PrefixCache {
 public:
  // `model`, `significance` and `eval` must outlive the cache. The cache
  // evaluates up to `eval_images` images of `eval` (-1 = whole set;
  // clamped by the canonical clamp_eval_limit rule).
  PrefixCache(const QModel* model,
              const std::vector<LayerSignificance>* significance,
              const Dataset* eval, const std::vector<ApproxConfig>& configs,
              int eval_images);

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  int config_count() const { return static_cast<int>(rung_.size()); }
  // Approximable (conv + depthwise) layer count — the trie depth.
  int conv_count() const { return approx_count_; }
  int eval_images() const { return n_images_; }

  // Image positions are a fixed coprime-stride permutation of the first
  // eval_images() dataset images, so any prefix of positions is spread
  // across the whole eval subset instead of mirroring its storage order
  // (a class-ordered eval set would otherwise bias the adaptive sweep's
  // partial samples). A full-budget sum covers the same image set either
  // way, so exact-sweep accuracies are unaffected.
  int image_at(int position) const {
    return static_cast<int>((static_cast<int64_t>(position) * stride_) %
                            n_images_);
  }

  // Config indices sorted so that shared per-layer prefixes are adjacent
  // (the trie's depth-first leaf order).
  const std::vector<int>& order() const { return order_; }

  // Classify, for every config c, the images [img_begin[c], img_end[c])
  // (empty ranges are skipped), writing per-(config, image) hit flags
  // into `hits` (row-major, row stride eval_images()):
  // hits[c * eval_images() + i] = 1 iff config c classifies image i
  // correctly. All configs needing a given image are evaluated in one
  // trie walk, so prefix sharing is maximal regardless of how the
  // caller staggers ranges (blockwise sweeps, anchor completions, ...).
  // Parallel over images; results and counters are bitwise deterministic
  // for any thread count.
  PrefixCacheStats evaluate_ranges(const std::vector<int>& img_begin,
                                   const std::vector<int>& img_end,
                                   std::vector<uint8_t>& hits) const;

 private:
  // Deepest stage whose first ordinal is <= `depth` — the dominating
  // resume point for a trie lcp of `depth` ordinals.
  int stage_for_depth(int depth) const;

  const QModel* model_;
  const Dataset* eval_;
  int n_images_ = 0;
  int stride_ = 1;  // coprime with n_images_; see image_at()
  int approx_count_ = 0;
  std::vector<int> approx_pos_;  // layer index of each approx ordinal
  // Stage partition of the approximable region (header comment): stage s
  // covers layers [stage_begin_[s], stage_begin_[s+1]) — the last entry
  // is the layer count, so the last stage includes the exact tail — and
  // owns the approximable ordinals [stage_first_ordinal_[s],
  // stage_first_ordinal_[s+1]). Every stage_begin_ is a linear boundary;
  // on chains each ordinal is its own stage.
  std::vector<int> stage_begin_;
  std::vector<int> stage_first_ordinal_;
  ExecPlan plan_;  // the model's compiled plan every stage walks

  // Every non-approximable step, on the packed kernels.
  PackedKernels packed_;
  // Per approximable ordinal: the layer's rung program (header comment).
  std::vector<UnpackedLayer> rungs_;

  // [config][ordinal] rung index. Rungs ascend with the skipped-operand
  // count, so rung rows order and compare exactly like the key rows.
  std::vector<std::vector<int>> rung_;
  std::vector<int> order_;  // configs, trie leaf order
  std::vector<int> lcp_;    // lcp_[p] = lcp(order[p-1],order[p])
};

}  // namespace ataman

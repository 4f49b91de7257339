#include "src/serve/stream_session.hpp"

#include "src/common/error.hpp"

namespace ataman::serve {

StreamSession::StreamSession(uint64_t id, const QModel* model,
                             StreamSessionOptions options)
    : id_(id), model_(model), options_(std::move(options)) {
  check(model != nullptr, "StreamSession needs a model");
  check(model->head != TaskHead::kScore,
        "open_session: model '" + model->name +
            "' has a scored head — its reduction reads the whole window "
            "per frame, so streaming sessions support classify heads only");
}

StreamSessionStats StreamSession::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void StreamSession::validate_push(size_t column_bytes) {
  const QModel& m = *model_;
  const int64_t col_elems = static_cast<int64_t>(m.in_h) * m.in_c;
  // Runs on every frame: no message is built unless a check fails.
  if (column_bytes == 0 || static_cast<int64_t>(column_bytes) % col_elems != 0)
    fail("push_frame: frame must be whole [h][s][c] columns (column is " +
         std::to_string(col_elems) + " bytes)");
  const int s = static_cast<int>(static_cast<int64_t>(column_bytes) /
                                 col_elems);
  if (s > m.in_w)
    fail("push_frame: " + std::to_string(s) +
         " columns exceed the input width " + std::to_string(m.in_w));
  const std::lock_guard<std::mutex> lock(push_mutex_);
  if (pushed_ == 0 && s != m.in_w)
    fail("push_frame: a session's first frame must be a full window (" +
         std::to_string(m.in_w) + " columns)");
  ++pushed_;
}

InferResult StreamSession::execute_frame(InferenceEngine& engine,
                                         std::span<const uint8_t> columns) {
  if (poisoned_)
    fail("stream session " + std::to_string(id_) +
         " is poisoned by an earlier frame error (the failed frame was "
         "never applied, so the window is out of sync): " +
         poison_error_);

  InferResult r;
  try {
    r.logits = engine.run_incremental(state_, columns);
  } catch (const std::exception& e) {
    poisoned_ = true;
    poison_error_ = e.what();
    throw;
  }
  r.top1 = argmax_lowest_index(r.logits);

  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.frames;
    if (last_frame_spliced()) {
      ++stats_.incremental_frames;
    } else {
      ++stats_.fallback_frames;
    }
    stats_.recomputed_macs += state_.last_recomputed_macs;
    stats_.full_macs += engine.mac_ops();
    stats_.spliced_elems += state_.last_spliced_elems;
  }
  return r;
}

}  // namespace ataman::serve

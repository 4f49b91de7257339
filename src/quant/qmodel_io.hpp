// The .qm artifact: a quantized model cached on disk. Every engine, DSE
// sweep, serve worker and emitted C file starts from one (same directory
// scheme as the float model zoo).
#pragma once

#include <string>

#include "src/quant/qtypes.hpp"

namespace ataman {

void save_qmodel(const QModel& model, const std::string& path);
// Throws ataman::Error on a file that is truncated, carries a count larger
// than the bytes left, or fails a layer, DAG or head check.
QModel load_qmodel(const std::string& path);

}  // namespace ataman
